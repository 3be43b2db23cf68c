module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span

type planes = {
  p_lanes : int;
  p_mask : int;
  z : int array array;
  o : int array array;
}

let lanes t = t.p_lanes

let mask t = t.p_mask

let word t ~comp ~net = { Word.zero = t.z.(comp).(net); one = t.o.(comp).(net) }

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
   fields instead of a returned pair so the incremental hot path
   allocates nothing per gate. *)
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

let eval_gate_plane (g : Circuit.gate) (z : int array) (o : int array) =
  let s = { sz = 0; so = 0 } in
  eval_gate_plane_into s g z o;
  (s.sz, s.so)

(* Incremental-path-only mutation hook (DESIGN.md §10): with the bug
   injected, [Inc.assign] ignores PI words whose second pattern changed
   but whose first pattern did not, so the incremental planes drift from
   the full-pass reference exactly when only [w3] moves.  The full-pass
   simulator is untouched; the inc-vs-full oracle must flag it and the
   shrinker must minimize it.  Never enable outside tests. *)
let inc_injected_bug = Atomic.make false

let set_inc_injected_bug b = Atomic.set inc_injected_bug b

let inc_injected_bug_enabled () = Atomic.get inc_injected_bug

module Inc = struct
  type stats = {
    mutable assigns : int;
    mutable resim_gates : int;
    mutable early_stops : int;
  }

  type t = {
    ic : Circuit.t;
    p : planes;
    (* Last-assigned PI words, both rails, so [assign] can diff. *)
    z1 : int array;
    o1 : int array;
    z3 : int array;
    o3 : int array;
    (* Dirty worklist: one bucket per circuit level, sized from
       [Circuit.level_gates] so enqueueing never allocates. *)
    bucket : int array array;
    blen : int array;
    queued : bool array;
    scratch : scratch;
    st : stats;
    att : Pdf_obs.Attrib.sheet option;
  }

  let create ?attrib c ~lanes =
    if lanes < 1 || lanes > Word.lanes then
      invalid_arg "Wsim.Inc.create: lane count out of range";
    let n = Circuit.num_nets c in
    let np = c.Circuit.num_pis in
    let lg = Circuit.level_gates c in
    {
      ic = c;
      p =
        {
          p_lanes = lanes;
          p_mask = Word.lane_mask lanes;
          z = Array.init 3 (fun _ -> Array.make n 0);
          o = Array.init 3 (fun _ -> Array.make n 0);
        };
      z1 = Array.make np 0;
      o1 = Array.make np 0;
      z3 = Array.make np 0;
      o3 = Array.make np 0;
      bucket = Array.map (fun b -> Array.make (Array.length b) 0) lg;
      blen = Array.make (Array.length lg) 0;
      queued = Array.make (Array.length c.Circuit.gates) false;
      scratch = { sz = 0; so = 0 };
      st = { assigns = 0; resim_gates = 0; early_stops = 0 };
      att = attrib;
    }

  let circuit t = t.ic

  let planes t = t.p

  let stats t =
    {
      assigns = t.st.assigns;
      resim_gates = t.st.resim_gates;
      early_stops = t.st.early_stops;
    }

  let reset_stats t =
    t.st.assigns <- 0;
    t.st.resim_gates <- 0;
    t.st.early_stops <- 0

  (* A fresh state holds all-X planes, which is exactly the full-pass
     result for all-X PI words (every dual-rail gate function maps all-X
     inputs to X), so the first real [assign] starts from a consistent
     fixpoint and only the nets its flips reach are re-evaluated. *)
  let assign t ~(w1 : Word.t array) ~(w3 : Word.t array) =
    let c = t.ic in
    let np = c.Circuit.num_pis in
    if Array.length w1 <> np || Array.length w3 <> np then
      invalid_arg "Wsim.Inc.assign: wrong number of PI words";
    let lo = ref max_int and hi = ref (-1) in
    let enqueue gi =
      if not t.queued.(gi) then begin
        t.queued.(gi) <- true;
        let l = c.Circuit.level.(np + gi) in
        t.bucket.(l).(t.blen.(l)) <- gi;
        t.blen.(l) <- t.blen.(l) + 1;
        if l < !lo then lo := l;
        if l > !hi then hi := l
      end
    in
    let dirty_net net =
      let fo = c.Circuit.fanouts.(net) in
      for i = 0 to Array.length fo - 1 do
        let g, _pin = fo.(i) in
        enqueue g
      done
    in
    let bug = Atomic.get inc_injected_bug in
    for pi = 0 to np - 1 do
      let nz1 = w1.(pi).Word.zero and no1 = w1.(pi).Word.one in
      let nz3 = w3.(pi).Word.zero and no3 = w3.(pi).Word.one in
      let ch1 = nz1 <> t.z1.(pi) || no1 <> t.o1.(pi) in
      let ch3 = nz3 <> t.z3.(pi) || no3 <> t.o3.(pi) in
      let ch3 = ch3 && not (bug && not ch1) in
      if ch1 || ch3 then begin
        if ch1 then begin
          t.z1.(pi) <- nz1;
          t.o1.(pi) <- no1;
          t.p.z.(0).(pi) <- nz1;
          t.p.o.(0).(pi) <- no1
        end;
        if ch3 then begin
          t.z3.(pi) <- nz3;
          t.o3.(pi) <- no3;
          t.p.z.(2).(pi) <- nz3;
          t.p.o.(2).(pi) <- no3
        end;
        (* Lane-wise Two_pattern.middle_of_pair, as in [simulate]. *)
        t.p.z.(1).(pi) <- t.z1.(pi) land t.z3.(pi);
        t.p.o.(1).(pi) <- t.o1.(pi) land t.o3.(pi);
        dirty_net pi
      end
    done;
    t.st.assigns <- t.st.assigns + 1;
    (* Sweep the dirty buckets in level order.  A gate's fanouts always
       live at strictly higher levels, so [hi] can only grow ahead of
       the sweep and nothing is ever enqueued at or below the level
       being drained; gates within one level are independent, so the
       resulting planes (and the resim/early-stop counts) are the same
       whatever order the bucket was filled in. *)
    let s = t.scratch in
    let l = ref !lo in
    while !l <= !hi do
      let b = t.bucket.(!l) and n = t.blen.(!l) in
      t.blen.(!l) <- 0;
      for i = 0 to n - 1 do
        let gi = b.(i) in
        t.queued.(gi) <- false;
        let g = c.Circuit.gates.(gi) in
        let out = np + gi in
        t.st.resim_gates <- t.st.resim_gates + 1;
        (match t.att with
        | Some a ->
          a.Pdf_obs.Attrib.inc_resims.(out) <-
            a.Pdf_obs.Attrib.inc_resims.(out) + 1;
          a.Pdf_obs.Attrib.t_inc_resims <- a.Pdf_obs.Attrib.t_inc_resims + 1
        | None -> ());
        let changed = ref false in
        for k = 0 to 2 do
          let zk = t.p.z.(k) and ok = t.p.o.(k) in
          eval_gate_plane_into s g zk ok;
          if s.sz <> zk.(out) || s.so <> ok.(out) then begin
            changed := true;
            zk.(out) <- s.sz;
            ok.(out) <- s.so
          end
        done;
        if !changed then dirty_net out
        else t.st.early_stops <- t.st.early_stops + 1
      done;
      incr l
    done
end

(* sim.inc.* metrics: jobs-invariant by construction — worker domains
   never touch the registry; they return per-state {!Inc.stats} deltas
   with their results and the sequential caller records them in fixed
   batch order through {!record_inc}. *)
let inc_assigns_m = Metrics.counter "sim.inc.assigns"

let inc_resim_gates_m = Metrics.counter "sim.inc.resim_gates"

let inc_early_stops_m = Metrics.counter "sim.inc.early_stops"

let inc_resim_fraction_m = Metrics.gauge "sim.inc.resim_fraction"

(* Denominator of the fraction gauge: gate evaluations an equivalent
   full pass would have performed for the same assigns.  A registry
   counter, so Metrics.reset clears it together with the numerator. *)
let inc_fullpass_gates_m = Metrics.counter "sim.inc.fullpass_gates"

(* All updates happen under one lock so the last recorder computes the
   gauge from the complete totals: whatever order deltas arrive in (the
   totals are commutative sums), the final gauge value is the cumulative
   fraction over everything recorded — deterministic at any --jobs. *)
let record_lock = Mutex.create ()

let record_inc ~num_gates (st : Inc.stats) =
  Mutex.lock record_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock record_lock) @@ fun () ->
  Metrics.add inc_assigns_m st.Inc.assigns;
  Metrics.add inc_resim_gates_m st.Inc.resim_gates;
  Metrics.add inc_early_stops_m st.Inc.early_stops;
  Metrics.add inc_fullpass_gates_m (st.Inc.assigns * num_gates);
  let possible = Metrics.value inc_fullpass_gates_m in
  if possible > 0 then
    Metrics.set inc_resim_fraction_m
      (float_of_int (Metrics.value inc_resim_gates_m)
      /. float_of_int possible)

let simulate c ~(w1 : Word.t array) ~(w3 : Word.t array) ~lanes =
  if
    Array.length w1 <> c.Circuit.num_pis
    || Array.length w3 <> c.Circuit.num_pis
  then invalid_arg "Wsim.simulate: wrong number of PI words";
  if lanes < 1 || lanes > Word.lanes then
    invalid_arg "Wsim.simulate: lane count out of range";
  Span.with_ "bitsim" @@ fun () ->
  let n = Circuit.num_nets c in
  let z = Array.init 3 (fun _ -> Array.make n 0) in
  let o = Array.init 3 (fun _ -> Array.make n 0) in
  for pi = 0 to c.Circuit.num_pis - 1 do
    z.(0).(pi) <- w1.(pi).Word.zero;
    o.(0).(pi) <- w1.(pi).Word.one;
    z.(2).(pi) <- w3.(pi).Word.zero;
    o.(2).(pi) <- w3.(pi).Word.one;
    (* Lane-wise Two_pattern.middle_of_pair: definite only where both
       patterns agree on a definite value. *)
    z.(1).(pi) <- w1.(pi).Word.zero land w3.(pi).Word.zero;
    o.(1).(pi) <- w1.(pi).Word.one land w3.(pi).Word.one
  done;
  for k = 0 to 2 do
    let zk = z.(k) and ok = o.(k) in
    Array.iteri
      (fun gi g ->
        let out = c.Circuit.num_pis + gi in
        let zv, ov = eval_gate_plane g zk ok in
        zk.(out) <- zv;
        ok.(out) <- ov)
      c.Circuit.gates
  done;
  { p_lanes = lanes; p_mask = Word.lane_mask lanes; z; o }
