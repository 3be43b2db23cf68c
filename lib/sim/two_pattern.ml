module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit

type pi_pair = { b1 : Bit.t; b3 : Bit.t }

let middle_of_pair = Bit.middle

let simulate c (pis : pi_pair array) =
  if Array.length pis <> c.Circuit.num_pis then
    invalid_arg "Two_pattern.simulate: wrong number of PI pairs";
  let v1 = Logic_sim.simulate c (Array.map (fun p -> p.b1) pis) in
  let v3 = Logic_sim.simulate c (Array.map (fun p -> p.b3) pis) in
  let v2 =
    Logic_sim.simulate c (Array.map (fun p -> middle_of_pair p.b1 p.b3) pis)
  in
  Array.init (Circuit.num_nets c) (fun net ->
      Triple.make v1.(net) v2.(net) v3.(net))

let satisfies values reqs =
  List.for_all (fun (net, req) -> Req.satisfied_by values.(net) req) reqs

let first_violation values reqs =
  List.find_opt
    (fun (net, req) -> not (Req.satisfied_by values.(net) req))
    reqs
