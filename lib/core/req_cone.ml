module Bit = Pdf_values.Bit
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit

type t = {
  r : Bit.t array array;
  req_nets : int array;
  gates : int array;
  pis : int array;
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

let make c merged =
  let n = Circuit.num_nets c in
  let req_nets = Array.of_list (List.map fst merged) in
  let r = Array.init 3 (fun _ -> Array.make n Bit.X) in
  let comp_bit = function Req.Any -> Bit.X | Req.Must b -> Bit.of_bool b in
  List.iter
    (fun (net, (req : Req.t)) ->
      r.(0).(net) <- comp_bit req.Req.r1;
      r.(1).(net) <- comp_bit req.Req.r2;
      r.(2).(net) <- comp_bit req.Req.r3)
    merged;
  let in_cone = Array.make n false in
  let rec visit net =
    if not in_cone.(net) then begin
      in_cone.(net) <- true;
      match Circuit.gate_of_net c net with
      | None -> ()
      | Some g -> Array.iter visit c.Circuit.gates.(g).Circuit.fanins
    end
  in
  Array.iter visit req_nets;
  let select count keep =
    Array.of_list (List.filter keep (List.init count Fun.id))
  in
  let gates =
    select (Circuit.num_gates c) (fun g -> in_cone.(Circuit.net_of_gate c g))
  in
  let pis = select c.Circuit.num_pis (fun pi -> in_cone.(pi)) in
  { r; req_nets; gates; pis; in_cone }

let mismatch req value =
  match req, value with
  | (Bit.Zero | Bit.One), (Bit.Zero | Bit.One) -> not (Bit.equal req value)
  | (Bit.Zero | Bit.One | Bit.X), (Bit.Zero | Bit.One | Bit.X) -> false

(* Both scans run once per PODEM search step, so they build no
   closure. *)
let rec conflict_from t s i =
  if i >= Array.length t.req_nets then None
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
  i >= Array.length t.req_nets
  ||
  let net = t.req_nets.(i) in
  holds t.r.(0).(net) s.(0).(net)
  && holds t.r.(1).(net) s.(1).(net)
  && holds t.r.(2).(net) s.(2).(net)
  && satisfied_from t s (i + 1)

let satisfied t s = satisfied_from t s 0
