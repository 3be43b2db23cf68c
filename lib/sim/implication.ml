module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate

type outcome =
  | Consistent of Triple.t array
  | Conflict of { net : int; component : int }

type conflict = { net : int; component : int }

exception Stop of int * int (* net, component *)

(* Bitsets over gate and net indices, [bits] indices a word. *)
let bits = 63

(* Index of the single set bit of [p]: the powers 2^0 .. 2^61 are
   distinct modulo 67 (2 is a primitive root of 67), and 2^62 is the
   sign bit. *)
let bit_index_table =
  let t = Array.make 67 0 in
  for k = 0 to bits - 2 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let bit_index p = if p < 0 then bits - 1 else bit_index_table.(p mod 67)

type t = {
  circuit : Circuit.t;
  num_pis : int;
  layers : Bit.t array array; (* layers.(k) for component k+1 *)
  gate_dirty : int array;
      (* gates with a net changed since their last evaluation *)
  net_dirty : int array; (* nets changed since their last coupling *)
  trail : int array;
      (* every X -> 0/1 assignment since the last reset, as
         [(net lsl 2) lor (component - 1)]; a mark is a length of it,
         and [undo] cuts it back *)
  mutable trail_len : int;
  mutable current : int; (* gate under evaluation, or -1 *)
  mutable failed : conflict option;
  within : bool array option;
      (* per net, aliased: a gate whose output net is unflagged never
         becomes dirty *)
}

let mark_gate st g =
  if
    g <> st.current
    &&
    match st.within with
    | None -> true
    | Some within -> within.(st.num_pis + g)
  then begin
    let w = g / bits in
    st.gate_dirty.(w) <- st.gate_dirty.(w) lor (1 lsl (g - (w * bits)))
  end

(* [net] just changed: it needs coupling at the end of this pass, and
   every gate reading or driving it needs re-evaluation — in this pass if
   its index is above the gate under evaluation, else in the next. *)
let touch st net =
  let w = net / bits in
  st.net_dirty.(w) <- st.net_dirty.(w) lor (1 lsl (net - (w * bits)));
  if net >= st.num_pis then mark_gate st (net - st.num_pis);
  let fanouts = st.circuit.Circuit.fanouts.(net) in
  for k = 0 to Array.length fanouts - 1 do
    mark_gate st (fst fanouts.(k))
  done

(* Forward values by lookup in [Bit]'s operator tables, as in
   [Pdf_core.Cone_sim]: no call into another module and no branch on a
   value per fanin.  [index] is the tables' row and column; [Bit.t]'s
   constructors are immediate, so [==] compares them. *)
let[@inline] index (v : Bit.t) =
  match v with Bit.Zero -> 0 | Bit.One -> 1 | Bit.X -> 2

(* [layer]'s values on [fanins] folded left to right through [op], the
   last one through [last]: a gate's forward value. *)
let[@inline] forward (layer : Bit.t array) (op : Bit.t array)
    (last : Bit.t array) (fanins : int array) =
  let n = Array.length fanins - 1 in
  let acc = ref (index layer.(fanins.(0))) in
  for i = 1 to n - 1 do
    acc := index op.((3 * !acc) + index layer.(fanins.(i)))
  done;
  last.((3 * !acc) + index layer.(fanins.(n)))

let assign st ~component ~net value =
  let layer = st.layers.(component - 1) in
  match layer.(net), value with
  | Bit.X, (Bit.Zero | Bit.One) ->
    layer.(net) <- value;
    st.trail.(st.trail_len) <- (net lsl 2) lor (component - 1);
    st.trail_len <- st.trail_len + 1;
    touch st net
  | (Bit.Zero | Bit.One | Bit.X), Bit.X -> ()
  | old, v -> if old != v then raise (Stop (net, component))

(* BUFF and NOT on one layer: [last] is the kind's table, read at
   (v, v) — AND there for BUFF, NAND for NOT — which maps the input to
   the output and a definite output back to the input. *)
let[@inline] imply_unary st ~component ~out fanins last =
  let layer = st.layers.(component - 1) in
  assign st ~component ~net:out last.(4 * index layer.(fanins.(0)));
  match layer.(out) with
  | (Bit.Zero | Bit.One) as v ->
    assign st ~component ~net:fanins.(0) last.(4 * index v)
  | Bit.X -> ()

(* AND, NAND, OR and NOR on one layer: [op] is the kind's operator,
   [last] its form for the last fanin (inverted when the kind inverts),
   [cv] the controlling input value and [ncv] the other. *)
let[@inline] imply_controlled st ~component ~out fanins op last ~cv ~ncv =
  let layer = st.layers.(component - 1) in
  let n = Array.length fanins in
  (* The output when every input is non-controlling. *)
  let out_all_nc = last.(4 * index ncv) in
  (* Forward. *)
  assign st ~component ~net:out (forward layer op last fanins);
  (* Backward. *)
  match layer.(out) with
  | Bit.X -> ()
  | v when v == out_all_nc ->
    for i = 0 to n - 1 do
      assign st ~component ~net:fanins.(i) ncv
    done
  | Bit.Zero | Bit.One ->
    (* Output is controlled: if exactly one input is unknown and every
       other input is non-controlling, the unknown one must be
       controlling. *)
    let unknown = ref (-1) and count = ref 0 and rest_nc = ref true in
    for i = 0 to n - 1 do
      match layer.(fanins.(i)) with
      | Bit.X ->
        incr count;
        unknown := fanins.(i)
      | v -> if v != ncv then rest_nc := false
    done;
    if !count = 1 && !rest_nc then assign st ~component ~net:!unknown cv
    else if !count = 0 && !rest_nc then
      (* all inputs non-controlling but output controlled *)
      raise (Stop (out, component))

(* XOR and XNOR on one layer: [last] is the kind's table. *)
let[@inline] imply_parity st ~component ~out fanins last =
  let layer = st.layers.(component - 1) in
  (* Forward. *)
  assign st ~component ~net:out (forward layer Bit.xor_table last fanins);
  (* Backward: output and all-but-one inputs known. *)
  match layer.(out) with
  | Bit.X -> ()
  | out_v ->
    let unknown = ref (-1) and count = ref 0 and acc = ref 0 in
    for i = 0 to Array.length fanins - 1 do
      match layer.(fanins.(i)) with
      | Bit.X ->
        incr count;
        unknown := fanins.(i)
      | v -> acc := index Bit.xor_table.((3 * !acc) + index v)
    done;
    if !count = 1 then
      assign st ~component ~net:!unknown last.((3 * index out_v) + !acc)

(* Forward + backward rules for one gate on one layer. *)
let imply_gate st ~component gate_index =
  let g = st.circuit.Circuit.gates.(gate_index) in
  let out = st.num_pis + gate_index in
  let fanins = g.Circuit.fanins in
  match g.Circuit.kind with
  | Gate.Buff -> imply_unary st ~component ~out fanins Bit.and_table
  | Gate.Not -> imply_unary st ~component ~out fanins Bit.nand_table
  | Gate.And ->
    imply_controlled st ~component ~out fanins Bit.and_table Bit.and_table
      ~cv:Bit.Zero ~ncv:Bit.One
  | Gate.Nand ->
    imply_controlled st ~component ~out fanins Bit.and_table Bit.nand_table
      ~cv:Bit.Zero ~ncv:Bit.One
  | Gate.Or ->
    imply_controlled st ~component ~out fanins Bit.or_table Bit.or_table
      ~cv:Bit.One ~ncv:Bit.Zero
  | Gate.Nor ->
    imply_controlled st ~component ~out fanins Bit.or_table Bit.nor_table
      ~cv:Bit.One ~ncv:Bit.Zero
  | Gate.Xor -> imply_parity st ~component ~out fanins Bit.xor_table
  | Gate.Xnor -> imply_parity st ~component ~out fanins Bit.xnor_table

(* Coupling between layers on one net: a definite intermediate value
   forces the same end values anywhere; stable end values force the
   intermediate value on PIs only. *)
let imply_coupling st net =
  let l1 = st.layers.(0) and l2 = st.layers.(1) and l3 = st.layers.(2) in
  (match l2.(net) with
  | (Bit.Zero | Bit.One) as v ->
    assign st ~component:1 ~net v;
    assign st ~component:3 ~net v
  | Bit.X -> ());
  if net < st.num_pis then
    match l1.(net), l3.(net) with
    | ((Bit.Zero | Bit.One) as v1), (Bit.Zero | Bit.One) when v1 == l3.(net)
      ->
      assign st ~component:2 ~net v1
    | (Bit.Zero | Bit.One | Bit.X), (Bit.Zero | Bit.One | Bit.X) -> ()

let comp_value = function Req.Any -> Bit.X | Req.Must b -> Bit.of_bool b

let rec seed st = function
  | [] -> ()
  | (net, (r : Req.t)) :: rest ->
    assign st ~component:1 ~net (comp_value r.Req.r1);
    assign st ~component:2 ~net (comp_value r.Req.r2);
    assign st ~component:3 ~net (comp_value r.Req.r3);
    seed st rest

(* One pass: the dirty gates in ascending index, each on its three
   layers.  [w] holds the word's bits above the last evaluated gate, so a
   gate marked at or below it waits for the next pass. *)
let gate_pass st =
  let d = st.gate_dirty in
  for wi = 0 to Array.length d - 1 do
    let w = ref d.(wi) in
    while !w <> 0 do
      let low = !w land - !w in
      d.(wi) <- d.(wi) lxor low;
      let g = (wi * bits) + bit_index low in
      st.current <- g;
      imply_gate st ~component:1 g;
      imply_gate st ~component:2 g;
      imply_gate st ~component:3 g;
      w := d.(wi) land -(low lsl 1)
    done
  done;
  st.current <- -1

(* The coupling rule over the nets changed since their last coupling, in
   ascending order.  A net's bit is cleared after its rule ran: the rule
   only changes that net, and running it again would change nothing. *)
let coupling_pass st =
  let d = st.net_dirty in
  for wi = 0 to Array.length d - 1 do
    let w = ref d.(wi) in
    while !w <> 0 do
      let low = !w land - !w in
      imply_coupling st ((wi * bits) + bit_index low);
      d.(wi) <- d.(wi) land lnot low;
      w := d.(wi) land -(low lsl 1)
    done
  done

(* A top-level loop: [Array.exists] builds a closure per call, and the
   fixpoint loop runs once per [assume], that is once per PODEM
   decision. *)
let rec any_dirty d i = i < Array.length d && (d.(i) <> 0 || any_dirty d (i + 1))

(* No gate is dirty in a fresh state: every gate has a fanin
   ([Gate.min_arity]), so no rule fires on all-X nets. *)
let create ?within c =
  let n = Circuit.num_nets c in
  let words k = (k + bits - 1) / bits in
  (match within with
  | Some a when Array.length a <> n -> invalid_arg "Implication.create: within"
  | Some _ | None -> ());
  {
    circuit = c;
    num_pis = c.Circuit.num_pis;
    layers = Array.init 3 (fun _ -> Array.make n Bit.X);
    gate_dirty = Array.make (words (Circuit.num_gates c)) 0;
    net_dirty = Array.make (words n) 0;
    trail = Array.make (3 * n) 0;
    trail_len = 0;
    current = -1;
    failed = None;
    within;
  }

let mark st = st.trail_len

(* A pass that ends at its fixpoint leaves both dirty sets empty: the
   loop below stops on an empty gate set, and the coupling pass clears
   every net bit it visits.  Only a conflict leaves bits behind. *)
let undo st m =
  if m < 0 || m > st.trail_len then invalid_arg "Implication.undo";
  for i = m to st.trail_len - 1 do
    let e = st.trail.(i) in
    st.layers.(e land 3).(e lsr 2) <- Bit.X
  done;
  st.trail_len <- m;
  match st.failed with
  | None -> ()
  | Some _ ->
    Array.fill st.gate_dirty 0 (Array.length st.gate_dirty) 0;
    Array.fill st.net_dirty 0 (Array.length st.net_dirty) 0;
    st.current <- -1;
    st.failed <- None

let reset st = undo st 0

(* Run the passes from the seeded changes to the fixpoint. *)
let settle st =
  try
    gate_pass st;
    coupling_pass st;
    while any_dirty st.gate_dirty 0 do
      gate_pass st;
      coupling_pass st
    done
  with Stop (net, component) -> st.failed <- Some { net; component }

let extend st reqs =
  (match st.failed with
  | Some _ -> ()
  | None -> (
    match seed st reqs with
    | () -> settle st
    | exception Stop (net, component) -> st.failed <- Some { net; component }));
  st.failed

let assume st ~component net v =
  (match st.failed with
  | Some _ -> ()
  | None -> (
    match assign st ~component ~net v with
    | () -> settle st
    | exception Stop (net, component) -> st.failed <- Some { net; component }));
  st.failed

let failed st = st.failed

let value st ~component net = st.layers.(component - 1).(net)

let infer c reqs =
  let st = create c in
  match extend st reqs with
  | Some { net; component } -> Conflict { net; component }
  | None ->
    Consistent
      (Array.init (Circuit.num_nets c) (fun net ->
           Triple.make st.layers.(0).(net) st.layers.(1).(net)
             st.layers.(2).(net)))

let consistent c reqs = Option.is_none (extend (create c) reqs)
