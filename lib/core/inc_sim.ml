module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Logic_sim = Pdf_sim.Logic_sim
module Two_pattern = Pdf_sim.Two_pattern
module Wsim = Pdf_bitsim.Wsim

(* Scalar counterpart of {!Wsim.Inc} (DESIGN.md §13): the same
   dirty-bucket worklist over {!Circuit.level_gates}, but over a
   caller-owned [Bit.t array array] of three components, so the justify
   engine's persistent cone state and Atpg's per-test values can be
   maintained in place instead of re-simulated from scratch.  Shares the
   stats record and the sim.inc.* accounting with the packed engine. *)

type t = {
  c : Circuit.t;
  s : Bit.t array array; (* caller's 3 x nets, aliased *)
  mask : bool array; (* gates the propagation may enter *)
  l1 : Bit.t array; (* remembered per-PI assignments, for diffing *)
  l3 : Bit.t array;
  bucket : int array array;
  blen : int array;
  queued : bool array;
  st : Wsim.Inc.stats;
  read : (int -> Bit.t) array; (* per component, reading [s] *)
  att : Pdf_obs.Attrib.sheet option;
  mutable lo : int;
  mutable hi : int;
}

let create ?attrib ?gate_mask c ~s =
  let n = Circuit.num_nets c in
  let ng = Circuit.num_gates c in
  let np = c.Circuit.num_pis in
  if Array.length s <> 3 || Array.exists (fun p -> Array.length p <> n) s then
    invalid_arg "Inc_sim.create: state must be 3 x num_nets";
  let mask =
    match gate_mask with
    | None -> Array.make ng true
    | Some m ->
      if Array.length m <> ng then
        invalid_arg "Inc_sim.create: gate mask length mismatch";
      Array.copy m
  in
  let lg = Circuit.level_gates c in
  {
    c;
    s;
    mask;
    l1 = Array.make np Bit.X;
    l3 = Array.make np Bit.X;
    bucket = Array.map (fun b -> Array.make (Array.length b) 0) lg;
    blen = Array.make (Array.length lg) 0;
    queued = Array.make ng false;
    st = { Wsim.Inc.assigns = 0; resim_gates = 0; early_stops = 0 };
    read = Array.init 3 (fun k -> let sk = s.(k) in fun net -> sk.(net));
    att = attrib;
    lo = max_int;
    hi = -1;
  }

let stats t =
  {
    Wsim.Inc.assigns = t.st.Wsim.Inc.assigns;
    resim_gates = t.st.Wsim.Inc.resim_gates;
    early_stops = t.st.Wsim.Inc.early_stops;
  }

let reset_stats t =
  t.st.Wsim.Inc.assigns <- 0;
  t.st.Wsim.Inc.resim_gates <- 0;
  t.st.Wsim.Inc.early_stops <- 0

let enqueue t gi =
  if t.mask.(gi) && not t.queued.(gi) then begin
    t.queued.(gi) <- true;
    let l = t.c.Circuit.level.(t.c.Circuit.num_pis + gi) in
    t.bucket.(l).(t.blen.(l)) <- gi;
    t.blen.(l) <- t.blen.(l) + 1;
    if l < t.lo then t.lo <- l;
    if l > t.hi then t.hi <- l
  end

let dirty_net t net =
  let fo = t.c.Circuit.fanouts.(net) in
  for i = 0 to Array.length fo - 1 do
    let g, _pin = fo.(i) in
    enqueue t g
  done

let set_pi t pi ~v1 ~v3 =
  if not (Bit.equal v1 t.l1.(pi) && Bit.equal v3 t.l3.(pi)) then begin
    t.l1.(pi) <- v1;
    t.l3.(pi) <- v3;
    t.s.(0).(pi) <- v1;
    t.s.(2).(pi) <- v3;
    t.s.(1).(pi) <- Two_pattern.middle_of_pair v1 v3;
    dirty_net t pi
  end

let propagate t =
  t.st.Wsim.Inc.assigns <- t.st.Wsim.Inc.assigns + 1;
  let l = ref t.lo in
  while !l <= t.hi do
    let b = t.bucket.(!l) and n = t.blen.(!l) in
    t.blen.(!l) <- 0;
    for i = 0 to n - 1 do
      let gi = b.(i) in
      t.queued.(gi) <- false;
      let g = t.c.Circuit.gates.(gi) in
      let out = t.c.Circuit.num_pis + gi in
      t.st.Wsim.Inc.resim_gates <- t.st.Wsim.Inc.resim_gates + 1;
      (match t.att with
      | Some a ->
        a.Pdf_obs.Attrib.inc_resims.(out) <-
          a.Pdf_obs.Attrib.inc_resims.(out) + 1;
        a.Pdf_obs.Attrib.t_inc_resims <- a.Pdf_obs.Attrib.t_inc_resims + 1
      | None -> ());
      let changed = ref false in
      for k = 0 to 2 do
        let sk = t.s.(k) in
        let v = Logic_sim.eval_gate_get g t.read.(k) in
        if not (Bit.equal v sk.(out)) then begin
          changed := true;
          sk.(out) <- v
        end
      done;
      if !changed then dirty_net t out
      else t.st.Wsim.Inc.early_stops <- t.st.Wsim.Inc.early_stops + 1
    done;
    incr l
  done;
  t.lo <- max_int;
  t.hi <- -1

let record = Wsim.record_inc
