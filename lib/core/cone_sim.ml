module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Wsim = Pdf_bitsim.Wsim
module Attrib = Pdf_obs.Attrib

(* A trial's private view of the values: the nets it changed, stamped
   with its id; every other net reads through to the persistent state. *)
type overlay = {
  tval : Bit.t array array;
  tstamp : int array array;
  mutable tread : (int -> Bit.t) array; (* per component, overlay over [s] *)
  mutable id : int; (* the current trial *)
}

(* The per-gate loops of both passes live here, next to the heap they
   drain: a call into another module is neither inlined nor direct in
   the default build (-opaque), and one per popped gate measurably
   slowed trials (DESIGN.md §13.2). *)
type t = {
  c : Circuit.t;
  size : int; (* gates in the set *)
  r : Bit.t array array;
      (* the requirements a trial checks, 3 x nets; empty over the
         whole circuit *)
  s : Bit.t array array; (* persistent state, 3 x nets *)
  read : (int -> Bit.t) array; (* per component, reading [s] *)
  att : Attrib.sheet option;
  heap : int array; (* queued gate indices, a binary min-heap *)
  mutable len : int;
  queued : int array;
      (* per gate: the pass that last queued it; [max_int] outside the
         set, so one test excludes both *)
  mutable pass : int;
  mutable ov : overlay option; (* allocated by the first trial *)
  mutable assigns : int;
  mutable resim_gates : int;
  mutable early_stops : int;
  mutable trial_evals : int;
}

let create ?attrib ?cone c =
  let n = Circuit.num_nets c and ng = Circuit.num_gates c in
  let s = Array.init 3 (fun _ -> Array.make n Bit.X) in
  let size, r, queued =
    match cone with
    | Some cone ->
      let np = c.Circuit.num_pis in
      ( Array.length cone.Req_cone.gates,
        cone.Req_cone.r,
        Array.init ng (fun gi ->
            if cone.Req_cone.in_cone.(np + gi) then 0 else max_int) )
    | None -> (ng, [||], Array.make ng 0)
  in
  {
    c;
    size;
    r;
    s;
    read = Array.init 3 (fun k -> let sk = s.(k) in fun net -> sk.(net));
    att = attrib;
    heap = Array.make size 0;
    len = 0;
    queued;
    pass = 1;
    ov = None;
    assigns = 0;
    resim_gates = 0;
    early_stops = 0;
    trial_evals = 0;
  }

let values t = t.s

let trial_evals t = t.trial_evals

let push t gi =
  let h = t.heap in
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && h.((!i - 1) / 2) > gi do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- gi

(* The smallest queued gate index, removed; -1 when the heap is empty. *)
let pop t =
  if t.len = 0 then -1
  else begin
    let h = t.heap in
    let top = h.(0) in
    let n = t.len - 1 in
    t.len <- n;
    let last = h.(n) in
    let i = ref 0 and sifting = ref (n > 0) in
    while !sifting do
      let l = (2 * !i) + 1 in
      let child = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if child < n && h.(child) < last then begin
        h.(!i) <- h.(child);
        i := child
      end
      else sifting := false
    done;
    if n > 0 then h.(!i) <- last;
    top
  end

(* Queue every gate of the set reading [net] that this pass has not
   queued yet. *)
let queue_fanouts t net =
  let fanouts = t.c.Circuit.fanouts.(net) in
  for i = 0 to Array.length fanouts - 1 do
    let gi, _pin = fanouts.(i) in
    if t.queued.(gi) < t.pass then begin
      t.queued.(gi) <- t.pass;
      push t gi
    end
  done

(* Every pass ends here: the heap empty (a trial may stop early) and a
   fresh stamp, so the next pass may queue every gate once more. *)
let end_pass t =
  t.len <- 0;
  t.pass <- t.pass + 1

(* [s.(1)] holds the middle of [s.(0)] and [s.(2)] on every primary
   input, so comparing the two patterns compares all three components. *)
let set_pi t pi ~v1 ~v3 =
  let s = t.s in
  if not (Bit.equal s.(0).(pi) v1 && Bit.equal s.(2).(pi) v3) then begin
    s.(0).(pi) <- v1;
    s.(2).(pi) <- v3;
    s.(1).(pi) <- Two_pattern.middle_of_pair v1 v3;
    queue_fanouts t pi
  end

let propagate t =
  t.assigns <- t.assigns + 1;
  let s = t.s and np = t.c.Circuit.num_pis in
  let gi = ref (pop t) in
  while !gi >= 0 do
    let g = t.c.Circuit.gates.(!gi) and out = np + !gi in
    t.resim_gates <- t.resim_gates + 1;
    (match t.att with
    | Some a ->
      a.Attrib.inc_resims.(out) <- a.Attrib.inc_resims.(out) + 1;
      a.Attrib.t_inc_resims <- a.Attrib.t_inc_resims + 1
    | None -> ());
    let changed = ref false in
    for k = 0 to 2 do
      let v = Pdf_sim.Logic_sim.eval_gate_get g t.read.(k) in
      if not (Bit.equal v s.(k).(out)) then begin
        s.(k).(out) <- v;
        changed := true
      end
    done;
    if !changed then queue_fanouts t out
    else t.early_stops <- t.early_stops + 1;
    gi := pop t
  done;
  end_pass t

let overlay t =
  match t.ov with
  | Some ov -> ov
  | None ->
    let n = Circuit.num_nets t.c in
    let tval = Array.init 3 (fun _ -> Array.make n Bit.X) in
    let tstamp = Array.init 3 (fun _ -> Array.make n 0) in
    let ov = { tval; tstamp; tread = [||]; id = 0 } in
    ov.tread <-
      Array.init 3 (fun k ->
          let tk = tstamp.(k) and vk = tval.(k) and sk = t.s.(k) in
          fun net -> if tk.(net) = ov.id then vk.(net) else sk.(net));
    t.ov <- Some ov;
    ov

(* Record a trial value in the overlay; [true] when it contradicts a
   requirement. *)
let write t ov k net v =
  ov.tval.(k).(net) <- v;
  ov.tstamp.(k).(net) <- ov.id;
  Req_cone.mismatch t.r.(k).(net) v

(* Component [k] of the tried input, written when it differs from the
   persistent state. *)
let seed_pi t ov k pi v = (not (Bit.equal t.s.(k).(pi) v)) && write t ov k pi v

(* One component's trial pass, from the tried input if that component
   changed; the first conflicting net, or -1. *)
let trial_pass t ov k pi =
  if ov.tstamp.(k).(pi) = ov.id then queue_fanouts t pi;
  let read = ov.tread.(k) and sk = t.s.(k) and np = t.c.Circuit.num_pis in
  let conflict = ref (-1) in
  let gi = ref (pop t) in
  while !gi >= 0 do
    let out = np + !gi in
    t.trial_evals <- t.trial_evals + 1;
    (match t.att with
    | Some a ->
      a.Attrib.trial_evals.(out) <- a.Attrib.trial_evals.(out) + 1;
      a.Attrib.t_trial_evals <- a.Attrib.t_trial_evals + 1
    | None -> ());
    let v = Pdf_sim.Logic_sim.eval_gate_get t.c.Circuit.gates.(!gi) read in
    if Bit.equal v sk.(out) then gi := pop t
    else if write t ov k out v then begin
      conflict := out;
      gi := -1
    end
    else begin
      queue_fanouts t out;
      gi := pop t
    end
  done;
  end_pass t;
  !conflict

let trial t pi ~v1 ~v3 =
  if Array.length t.r = 0 then invalid_arg "Cone_sim.trial: no cone";
  let ov = overlay t in
  ov.id <- ov.id + 1;
  let mid = Two_pattern.middle_of_pair v1 v3 in
  if seed_pi t ov 0 pi v1 || seed_pi t ov 2 pi v3 || seed_pi t ov 1 pi mid
  then pi
  else
    let net = trial_pass t ov 0 pi in
    if net >= 0 then net
    else
      let net = trial_pass t ov 2 pi in
      if net >= 0 then net else trial_pass t ov 1 pi

let trial_value t ~k net =
  match t.ov with
  | Some ov when ov.tstamp.(k).(net) = ov.id -> ov.tval.(k).(net)
  | Some _ | None -> t.s.(k).(net)

let record t =
  Wsim.record_inc ~num_gates:t.size
    {
      Wsim.Inc.assigns = t.assigns;
      resim_gates = t.resim_gates;
      early_stops = t.early_stops;
    }
