module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate

type outcome =
  | Consistent of Triple.t array
  | Conflict of { net : int; component : int }

exception Stop of int * int (* net, component *)

type state = {
  circuit : Circuit.t;
  layers : Bit.t array array; (* layers.(k) for component k+1 *)
  mutable changed : bool;
}

let assign st ~component ~net value =
  let layer = st.layers.(component - 1) in
  match layer.(net), value with
  | Bit.X, (Bit.Zero | Bit.One) ->
    layer.(net) <- value;
    st.changed <- true
  | (Bit.Zero | Bit.One | Bit.X), Bit.X -> ()
  | old, v -> if not (Bit.equal old v) then raise (Stop (net, component))

(* Forward + backward rules for one gate on one layer. *)
let imply_gate st ~component gate_index =
  let c = st.circuit in
  let layer = st.layers.(component - 1) in
  let g = c.Circuit.gates.(gate_index) in
  let out = Circuit.net_of_gate c gate_index in
  let fanins = g.Circuit.fanins in
  let n = Array.length fanins in
  match g.Circuit.kind with
  | Gate.Buff -> (
    assign st ~component ~net:out layer.(fanins.(0));
    match layer.(out) with
    | (Bit.Zero | Bit.One) as v -> assign st ~component ~net:fanins.(0) v
    | Bit.X -> ())
  | Gate.Not -> (
    assign st ~component ~net:out (Bit.not_ layer.(fanins.(0)));
    match layer.(out) with
    | (Bit.Zero | Bit.One) as v ->
      assign st ~component ~net:fanins.(0) (Bit.not_ v)
    | Bit.X -> ())
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> (
    let cv =
      match Gate.controlling g.Circuit.kind with
      | Some b -> Bit.of_bool b
      | None -> assert false
    in
    let ncv = Bit.not_ cv in
    let inv = Gate.inverting g.Circuit.kind in
    let apply_inv v = if inv then Bit.not_ v else v in
    let out_controlled = apply_inv cv and out_all_nc = apply_inv ncv in
    (* Forward. *)
    let any_cv = ref false and all_ncv = ref true in
    for i = 0 to n - 1 do
      let v = layer.(fanins.(i)) in
      if Bit.equal v cv then any_cv := true;
      if not (Bit.equal v ncv) then all_ncv := false
    done;
    if !any_cv then assign st ~component ~net:out out_controlled
    else if !all_ncv then assign st ~component ~net:out out_all_nc;
    (* Backward. *)
    match layer.(out) with
    | Bit.X -> ()
    | v when Bit.equal v out_all_nc ->
      for i = 0 to n - 1 do
        assign st ~component ~net:fanins.(i) ncv
      done
    | _ ->
      (* Output is controlled: if exactly one input is unknown and every
         other input is non-controlling, the unknown one must be
         controlling. *)
      let unknown = ref (-1) and count = ref 0 and rest_nc = ref true in
      for i = 0 to n - 1 do
        match layer.(fanins.(i)) with
        | Bit.X ->
          incr count;
          unknown := fanins.(i)
        | v -> if not (Bit.equal v ncv) then rest_nc := false
      done;
      if !count = 1 && !rest_nc then assign st ~component ~net:!unknown cv
      else if !count = 0 && !rest_nc then
        (* all inputs non-controlling but output controlled *)
        raise (Stop (out, component)))
  | Gate.Xor | Gate.Xnor ->
    let inv = Gate.inverting g.Circuit.kind in
    let apply_inv v = if inv then Bit.not_ v else v in
    (* Forward. *)
    let acc = ref Bit.Zero in
    for i = 0 to n - 1 do
      acc := Bit.xor !acc layer.(fanins.(i))
    done;
    assign st ~component ~net:out (apply_inv !acc);
    (* Backward: output and all-but-one inputs known. *)
    (match layer.(out) with
    | Bit.X -> ()
    | out_v ->
      let unknown = ref (-1) and count = ref 0 and acc = ref Bit.Zero in
      for i = 0 to n - 1 do
        match layer.(fanins.(i)) with
        | Bit.X ->
          incr count;
          unknown := fanins.(i)
        | v -> acc := Bit.xor !acc v
      done;
      if !count = 1 then
        assign st ~component ~net:!unknown (Bit.xor (apply_inv out_v) !acc))

(* Coupling between layers: a definite intermediate value forces the same
   end values anywhere; stable end values force the intermediate value on
   PIs only. *)
let imply_coupling st =
  let c = st.circuit in
  let l1 = st.layers.(0) and l2 = st.layers.(1) and l3 = st.layers.(2) in
  for net = 0 to Circuit.num_nets c - 1 do
    (match l2.(net) with
    | (Bit.Zero | Bit.One) as v ->
      assign st ~component:1 ~net v;
      assign st ~component:3 ~net v
    | Bit.X -> ());
    if Circuit.is_pi c net then
      match l1.(net), l3.(net) with
      | (Bit.Zero | Bit.One), (Bit.Zero | Bit.One)
        when Bit.equal l1.(net) l3.(net) ->
        assign st ~component:2 ~net l1.(net)
      | (Bit.Zero | Bit.One | Bit.X), (Bit.Zero | Bit.One | Bit.X) -> ()
  done

let seed st reqs =
  let comp_value = function
    | Req.Any -> Bit.X
    | Req.Must b -> Bit.of_bool b
  in
  List.iter
    (fun (net, (r : Req.t)) ->
      assign st ~component:1 ~net (comp_value r.Req.r1);
      assign st ~component:2 ~net (comp_value r.Req.r2);
      assign st ~component:3 ~net (comp_value r.Req.r3))
    reqs

let infer c reqs =
  let n = Circuit.num_nets c in
  let st =
    { circuit = c; layers = Array.init 3 (fun _ -> Array.make n Bit.X); changed = false }
  in
  try
    seed st reqs;
    st.changed <- true;
    while st.changed do
      st.changed <- false;
      for gate_index = 0 to Circuit.num_gates c - 1 do
        imply_gate st ~component:1 gate_index;
        imply_gate st ~component:2 gate_index;
        imply_gate st ~component:3 gate_index
      done;
      imply_coupling st
    done;
    Consistent
      (Array.init n (fun net ->
           Triple.make st.layers.(0).(net) st.layers.(1).(net)
             st.layers.(2).(net)))
  with Stop (net, component) -> Conflict { net; component }

let consistent c reqs =
  match infer c reqs with Consistent _ -> true | Conflict _ -> false
