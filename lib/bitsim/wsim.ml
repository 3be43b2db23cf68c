module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate

type planes = {
  mutable p_mask : int;
  rows : int array array;
}

let get t ~comp ~net ~lane =
  let b = 1 lsl lane in
  if t.rows.((2 * comp) + 1).(net) land b <> 0 then Bit.One
  else if t.rows.(2 * comp).(net) land b <> 0 then Bit.Zero
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

let create c =
  let n = Circuit.num_nets c in
  { p_mask = 0; rows = Array.init 6 (fun _ -> Array.make n 0) }

(* One gate, all three planes and all lanes at once, written straight
   into the plane arrays at net [out].  The dual-rail formulas are the
   {!Pdf_values.Word} operations inlined; the six accumulators are local
   mutable variables, so a pass allocates nothing per gate.  Fused, not
   one plane per call: ~4% lower [grade] p50 (DESIGN.md §8.1). *)
let eval_gate (g : Circuit.gate) out z0 o0 z1 o1 z2 o2 =
  let fanins = g.Circuit.fanins in
  let f0 = fanins.(0) in
  match g.Circuit.kind with
  | Gate.Not ->
    z0.(out) <- o0.(f0);
    o0.(out) <- z0.(f0);
    z1.(out) <- o1.(f0);
    o1.(out) <- z1.(f0);
    z2.(out) <- o2.(f0);
    o2.(out) <- z2.(f0)
  | Gate.Buff ->
    z0.(out) <- z0.(f0);
    o0.(out) <- o0.(f0);
    z1.(out) <- z1.(f0);
    o1.(out) <- o1.(f0);
    z2.(out) <- z2.(f0);
    o2.(out) <- o2.(f0)
  | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor) as kind
    ->
    let a0 = ref z0.(f0) and b0 = ref o0.(f0) in
    let a1 = ref z1.(f0) and b1 = ref o1.(f0) in
    let a2 = ref z2.(f0) and b2 = ref o2.(f0) in
    let n = Array.length fanins - 1 in
    (match kind with
    | Gate.And | Gate.Nand ->
      let last = if n > 1 && Atomic.get injected_bug then n - 1 else n in
      for i = 1 to last do
        let f = fanins.(i) in
        a0 := !a0 lor z0.(f);
        b0 := !b0 land o0.(f);
        a1 := !a1 lor z1.(f);
        b1 := !b1 land o1.(f);
        a2 := !a2 lor z2.(f);
        b2 := !b2 land o2.(f)
      done
    | Gate.Or | Gate.Nor ->
      for i = 1 to n do
        let f = fanins.(i) in
        a0 := !a0 land z0.(f);
        b0 := !b0 lor o0.(f);
        a1 := !a1 land z1.(f);
        b1 := !b1 lor o1.(f);
        a2 := !a2 land z2.(f);
        b2 := !b2 lor o2.(f)
      done
    | Gate.Xor | Gate.Xnor ->
      for i = 1 to n do
        let f = fanins.(i) in
        let za = !a0 and oa = !b0 in
        a0 := (za land z0.(f)) lor (oa land o0.(f));
        b0 := (za land o0.(f)) lor (oa land z0.(f));
        let za = !a1 and oa = !b1 in
        a1 := (za land z1.(f)) lor (oa land o1.(f));
        b1 := (za land o1.(f)) lor (oa land z1.(f));
        let za = !a2 and oa = !b2 in
        a2 := (za land z2.(f)) lor (oa land o2.(f));
        b2 := (za land o2.(f)) lor (oa land z2.(f))
      done
    | Gate.Not | Gate.Buff -> ());
    (match kind with
    | Gate.Nand | Gate.Nor | Gate.Xnor ->
      z0.(out) <- !b0;
      o0.(out) <- !a0;
      z1.(out) <- !b1;
      o1.(out) <- !a1;
      z2.(out) <- !b2;
      o2.(out) <- !a2
    | Gate.And | Gate.Or | Gate.Xor | Gate.Not | Gate.Buff ->
      z0.(out) <- !a0;
      o0.(out) <- !b0;
      z1.(out) <- !a1;
      o1.(out) <- !b1;
      z2.(out) <- !a2;
      o2.(out) <- !b2)

let simulate_into c p ~lanes =
  if Array.length p.rows.(0) <> Circuit.num_nets c then
    invalid_arg "Wsim.simulate_into: planes of another circuit";
  if lanes < 1 || lanes > Word.lanes then
    invalid_arg "Wsim.simulate_into: lane count out of range";
  let np = c.Circuit.num_pis in
  let r = p.rows in
  let z0 = r.(0) and o0 = r.(1) and z1 = r.(2) and o1 = r.(3) in
  let z2 = r.(4) and o2 = r.(5) in
  (* Lane-wise Two_pattern.middle_of_pair: definite only where both
     patterns agree on a definite value. *)
  for pi = 0 to np - 1 do
    z1.(pi) <- z0.(pi) land z2.(pi);
    o1.(pi) <- o0.(pi) land o2.(pi)
  done;
  let gates = c.Circuit.gates in
  for gi = 0 to Array.length gates - 1 do
    eval_gate gates.(gi) (np + gi) z0 o0 z1 o1 z2 o2
  done;
  p.p_mask <- Word.lane_mask lanes

let simulate c ~(w1 : Word.t array) ~(w3 : Word.t array) ~lanes =
  if
    Array.length w1 <> c.Circuit.num_pis
    || Array.length w3 <> c.Circuit.num_pis
  then invalid_arg "Wsim.simulate: wrong number of PI words";
  let p = create c in
  for pi = 0 to c.Circuit.num_pis - 1 do
    p.rows.(0).(pi) <- w1.(pi).Word.zero;
    p.rows.(1).(pi) <- w1.(pi).Word.one;
    p.rows.(4).(pi) <- w3.(pi).Word.zero;
    p.rows.(5).(pi) <- w3.(pi).Word.one
  done;
  simulate_into c p ~lanes;
  p
