module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate

type planes = {
  p_lanes : int;
  p_mask : int;
  z : int array array;
  o : int array array;
}

let lanes t = t.p_lanes

let mask t = t.p_mask

let get t ~comp ~net ~lane =
  let b = 1 lsl lane in
  if t.o.(comp).(net) land b <> 0 then Bit.One
  else if t.z.(comp).(net) land b <> 0 then Bit.Zero
  else Bit.X

let triple t ~net ~lane =
  Triple.make (get t ~comp:0 ~net ~lane) (get t ~comp:1 ~net ~lane)
    (get t ~comp:2 ~net ~lane)

let batch_bounds n =
  let nb = (n + Word.lanes - 1) / Word.lanes in
  Array.init nb (fun b -> (b * Word.lanes, min n ((b + 1) * Word.lanes)))

(* Mutation-testing hook (DESIGN.md §10): with the bug injected, packed
   evaluation of AND/NAND gates with three or more fanins silently drops
   the last fanin.  The scalar simulator is untouched, so the
   differential oracles in Pdf_check must flag the discrepancy — this is
   how test_check.ml proves the fuzz harness catches real simulator
   bugs.  The extra check costs one branch on >2-input gates only. *)
let injected_bug = Atomic.make false

let set_injected_bug b = Atomic.set injected_bug b

let injected_bug_enabled () = Atomic.get injected_bug

(* One plane of one gate, all lanes at once, computed into a scratch
   cell.  The dual-rail formulas are the {!Pdf_values.Word} operations
   inlined over the plane arrays; the result goes into two mutable int
   fields instead of a returned pair, so a pass allocates nothing per
   gate. *)
type scratch = { mutable sz : int; mutable so : int }

let eval_gate_plane_into (s : scratch) (g : Circuit.gate) (z : int array)
    (o : int array) =
  let fanins = g.Circuit.fanins in
  let f0 = fanins.(0) in
  match g.Circuit.kind with
  | Gate.Not ->
    s.sz <- o.(f0);
    s.so <- z.(f0)
  | Gate.Buff ->
    s.sz <- z.(f0);
    s.so <- o.(f0)
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
    let zv = ref z.(f0) and ov = ref o.(f0) in
    (match g.Circuit.kind with
    | Gate.And | Gate.Nand ->
      let last =
        let n = Array.length fanins - 1 in
        if n > 1 && Atomic.get injected_bug then n - 1 else n
      in
      for i = 1 to last do
        let f = fanins.(i) in
        zv := !zv lor z.(f);
        ov := !ov land o.(f)
      done
    | Gate.Or | Gate.Nor ->
      for i = 1 to Array.length fanins - 1 do
        let f = fanins.(i) in
        zv := !zv land z.(f);
        ov := !ov lor o.(f)
      done
    | Gate.Xor | Gate.Xnor ->
      for i = 1 to Array.length fanins - 1 do
        let f = fanins.(i) in
        let za = !zv and oa = !ov in
        zv := (za land z.(f)) lor (oa land o.(f));
        ov := (za land o.(f)) lor (oa land z.(f))
      done
    | Gate.Not | Gate.Buff -> ());
    if Gate.inverting g.Circuit.kind then begin
      s.sz <- !ov;
      s.so <- !zv
    end
    else begin
      s.sz <- !zv;
      s.so <- !ov
    end

let simulate c ~(w1 : Word.t array) ~(w3 : Word.t array) ~lanes =
  if
    Array.length w1 <> c.Circuit.num_pis
    || Array.length w3 <> c.Circuit.num_pis
  then invalid_arg "Wsim.simulate: wrong number of PI words";
  if lanes < 1 || lanes > Word.lanes then
    invalid_arg "Wsim.simulate: lane count out of range";
  let n = Circuit.num_nets c and np = c.Circuit.num_pis in
  let z = Array.init 3 (fun _ -> Array.make n 0) in
  let o = Array.init 3 (fun _ -> Array.make n 0) in
  for pi = 0 to np - 1 do
    z.(0).(pi) <- w1.(pi).Word.zero;
    o.(0).(pi) <- w1.(pi).Word.one;
    z.(2).(pi) <- w3.(pi).Word.zero;
    o.(2).(pi) <- w3.(pi).Word.one;
    (* Lane-wise Two_pattern.middle_of_pair: definite only where both
       patterns agree on a definite value. *)
    z.(1).(pi) <- w1.(pi).Word.zero land w3.(pi).Word.zero;
    o.(1).(pi) <- w1.(pi).Word.one land w3.(pi).Word.one
  done;
  let s = { sz = 0; so = 0 } and gates = c.Circuit.gates in
  for k = 0 to 2 do
    let zk = z.(k) and ok = o.(k) in
    for gi = 0 to Array.length gates - 1 do
      eval_gate_plane_into s gates.(gi) zk ok;
      zk.(np + gi) <- s.sz;
      ok.(np + gi) <- s.so
    done
  done;
  { p_lanes = lanes; p_mask = Word.lane_mask lanes; z; o }
