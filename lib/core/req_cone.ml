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
}

let merge reqs =
  let acc = Hashtbl.create 16 in
  let ok =
    List.for_all
      (fun (net, req) ->
        let current =
          match Hashtbl.find_opt acc net with Some r -> r | None -> Req.any
        in
        match Req.merge current req with
        | Some merged ->
          Hashtbl.replace acc net merged;
          true
        | None -> false)
      reqs
  in
  if ok then Some (Hashtbl.fold (fun net req l -> (net, req) :: l) acc [])
  else None

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
  }

let comp_bit = function Req.Any -> Bit.X | Req.Must b -> Bit.of_bool b

let rec add_reqs t = function
  | [] -> ()
  | (net, (req : Req.t)) :: rest ->
    t.req_nets.(t.n_req) <- net;
    t.n_req <- t.n_req + 1;
    t.r.(0).(net) <- comp_bit req.Req.r1;
    t.r.(1).(net) <- comp_bit req.Req.r2;
    t.r.(2).(net) <- comp_bit req.Req.r3;
    add_reqs t rest

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

(* Clear the previous problem — only the entries it set — then build
   the new one.  The cone's members come out of one ascending scan of
   the gates and one of the inputs. *)
let load t merged =
  let np = t.c.Circuit.num_pis in
  for i = 0 to t.n_req - 1 do
    let net = t.req_nets.(i) in
    for k = 0 to 2 do
      t.r.(k).(net) <- Bit.X
    done
  done;
  for i = 0 to t.n_gates - 1 do
    t.in_cone.(np + t.gates.(i)) <- false
  done;
  for i = 0 to t.n_pis - 1 do
    t.in_cone.(t.pis.(i)) <- false
  done;
  t.n_req <- 0;
  add_reqs t merged;
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
