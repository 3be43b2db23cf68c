module Bit = Pdf_values.Bit
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit

type t = {
  c : Circuit.t;
  r : Bit.t array array;
  req_nets : int array;
  mutable n_req : int;
  gates : int array;
  mutable n_gates : int;
  pis : int array;
  mutable n_pis : int;
  in_cone : bool array;
  bits : int array;
  listed : int array;
  mutable merges : int;
}

let create c =
  let n = Circuit.num_nets c in
  {
    c;
    r = Array.init 3 (fun _ -> Array.make n Bit.X);
    req_nets = Array.make n 0;
    n_req = 0;
    gates = Array.make (Circuit.num_gates c) 0;
    n_gates = 0;
    pis = Array.make c.Circuit.num_pis 0;
    n_pis = 0;
    in_cone = Array.make n false;
    bits = Array.make n 0;
    listed = Array.make n 0;
    merges = 0;
  }

(* A component's value from its two bits in [Req.bits]. *)
let comp_bit = [| Bit.X; Bit.Zero; Bit.One |]

(* The nets of [lo .. hi] that merge [stamp] listed, ascending, into
   [req_nets], and their merged bits into [r]. *)
let collect t stamp lo hi =
  for net = lo to hi do
    if t.listed.(net) = stamp then begin
      let m = t.bits.(net) in
      t.req_nets.(t.n_req) <- net;
      t.n_req <- t.n_req + 1;
      t.r.(0).(net) <- comp_bit.(m land 3);
      t.r.(1).(net) <- comp_bit.((m lsr 2) land 3);
      t.r.(2).(net) <- comp_bit.(m lsr 4)
    end
  done

(* Each requirement's bits [lor]ed into its net's, the lowest and
   highest net listed carried along. *)
let rec merge_from t stamp lo hi = function
  | [] ->
    collect t stamp lo hi;
    true
  | (net, req) :: rest ->
    let b = Req.bits req in
    if t.listed.(net) = stamp then begin
      let m = t.bits.(net) lor b in
      (not (Req.bits_conflict m))
      &&
      (t.bits.(net) <- m;
       merge_from t stamp lo hi rest)
    end
    else begin
      t.listed.(net) <- stamp;
      t.bits.(net) <- b;
      merge_from t stamp
        (if net < lo then net else lo)
        (if net > hi then net else hi)
        rest
    end

(* Clear the previous problem's requirements — only the entries it
   set — then merge the new ones. *)
let merge t reqs =
  for i = 0 to t.n_req - 1 do
    let net = t.req_nets.(i) in
    for k = 0 to 2 do
      t.r.(k).(net) <- Bit.X
    done
  done;
  t.n_req <- 0;
  t.merges <- t.merges + 1;
  merge_from t t.merges max_int (-1) reqs

let rec visit t net =
  if not t.in_cone.(net) then begin
    t.in_cone.(net) <- true;
    let np = t.c.Circuit.num_pis in
    if net >= np then begin
      let fanins = t.c.Circuit.gates.(net - np).Circuit.fanins in
      for i = 0 to Array.length fanins - 1 do
        visit t fanins.(i)
      done
    end
  end

(* Clear the previous cone — only the entries it set — then build the
   new one.  Its members come out of one ascending scan of the gates
   and one of the inputs. *)
let load t =
  let np = t.c.Circuit.num_pis in
  for i = 0 to t.n_gates - 1 do
    t.in_cone.(np + t.gates.(i)) <- false
  done;
  for i = 0 to t.n_pis - 1 do
    t.in_cone.(t.pis.(i)) <- false
  done;
  for i = 0 to t.n_req - 1 do
    visit t t.req_nets.(i)
  done;
  t.n_gates <- 0;
  for g = 0 to Array.length t.gates - 1 do
    if t.in_cone.(np + g) then begin
      t.gates.(t.n_gates) <- g;
      t.n_gates <- t.n_gates + 1
    end
  done;
  t.n_pis <- 0;
  for pi = 0 to np - 1 do
    if t.in_cone.(pi) then begin
      t.pis.(t.n_pis) <- pi;
      t.n_pis <- t.n_pis + 1
    end
  done

let mismatch req value =
  match req, value with
  | (Bit.Zero | Bit.One), (Bit.Zero | Bit.One) -> not (Bit.equal req value)
  | (Bit.Zero | Bit.One | Bit.X), (Bit.Zero | Bit.One | Bit.X) -> false

(* Both scans run once per PODEM search step, so they build no
   closure. *)
let rec conflict_from t s i =
  if i >= t.n_req then None
  else
    let net = t.req_nets.(i) in
    if
      mismatch t.r.(0).(net) s.(0).(net)
      || mismatch t.r.(1).(net) s.(1).(net)
      || mismatch t.r.(2).(net) s.(2).(net)
    then Some net
    else conflict_from t s (i + 1)

let conflict_net t s = conflict_from t s 0

let holds req value =
  match req with
  | Bit.X -> true
  | Bit.Zero | Bit.One -> Bit.equal value req

let rec satisfied_from t s i =
  i >= t.n_req
  ||
  let net = t.req_nets.(i) in
  holds t.r.(0).(net) s.(0).(net)
  && holds t.r.(1).(net) s.(1).(net)
  && holds t.r.(2).(net) s.(2).(net)
  && satisfied_from t s (i + 1)

let satisfied t s = satisfied_from t s 0
