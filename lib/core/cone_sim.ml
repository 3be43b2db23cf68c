module Bit = Pdf_values.Bit
module Gate = Pdf_circuit.Gate
module Circuit = Pdf_circuit.Circuit
module Attrib = Pdf_obs.Attrib
module Metrics = Pdf_obs.Metrics

(* Both passes evaluate gates by lookup in [Bit]'s operator tables
   (DESIGN.md §13.2): the gate kind picks two tables once per gate, and
   each fanin costs one read, with no call — the default build's -opaque
   makes every call into another module a real one — and no branch on
   its value.  [index] is the tables' row and column: the constructors'
   order, so it compiles to arithmetic on the immediate, here rather
   than in [Bit] for the same reason.  [Bit.t]'s constructors are
   constant, so physical equality is equality. *)
let[@inline] index (v : Bit.t) =
  match v with Bit.Zero -> 0 | Bit.One -> 1 | Bit.X -> 2

(* A definite value against the other definite requirement: their xor
   is one. *)
let[@inline] mismatch req v =
  Bit.xor_table.((3 * index req) + index v) == Bit.One

let[@inline] middle v1 v3 = Bit.middle_table.((3 * index v1) + index v3)

(* A gate folds its fanins left to right through [op], the last one
   through [last] — the kind's operator, inverted for an inverting
   kind.  A one-fanin gate reads [last] at (fanin, fanin): BUFF is AND
   and NOT is NAND there. *)
let[@inline] fold (op : Bit.t array) (last : Bit.t array) (f : int array)
    (sk : Bit.t array) =
  let n = Array.length f - 1 in
  let acc = ref (index sk.(f.(0))) in
  for i = 1 to n - 1 do
    acc := index op.((3 * !acc) + index sk.(f.(i)))
  done;
  last.((3 * !acc) + index sk.(f.(n)))

let eval (g : Circuit.gate) (sk : Bit.t array) =
  let f = g.Circuit.fanins in
  match g.Circuit.kind with
  | Gate.And | Gate.Buff -> fold Bit.and_table Bit.and_table f sk
  | Gate.Nand | Gate.Not -> fold Bit.and_table Bit.nand_table f sk
  | Gate.Or -> fold Bit.or_table Bit.or_table f sk
  | Gate.Nor -> fold Bit.or_table Bit.nor_table f sk
  | Gate.Xor -> fold Bit.xor_table Bit.xor_table f sk
  | Gate.Xnor -> fold Bit.xor_table Bit.xnor_table f sk

(* A trial reads a net's value from the overlay when the running trial
   [id] stamped it there, else from the persistent state. *)
let[@inline] read ~(stamp : int array) ~(value : Bit.t array) ~base ~id net =
  if stamp.(net) = id then value.(net) else base.(net)

let[@inline] fold_overlay (op : Bit.t array) (last : Bit.t array)
    (f : int array) ~stamp ~value ~base ~id =
  let n = Array.length f - 1 in
  let acc = ref (index (read ~stamp ~value ~base ~id f.(0))) in
  for i = 1 to n - 1 do
    acc := index op.((3 * !acc) + index (read ~stamp ~value ~base ~id f.(i)))
  done;
  last.((3 * !acc) + index (read ~stamp ~value ~base ~id f.(n)))

let eval_overlay (g : Circuit.gate) ~stamp ~value ~(base : Bit.t array) ~id =
  let f = g.Circuit.fanins in
  match g.Circuit.kind with
  | Gate.And | Gate.Buff ->
    fold_overlay Bit.and_table Bit.and_table f ~stamp ~value ~base ~id
  | Gate.Nand | Gate.Not ->
    fold_overlay Bit.and_table Bit.nand_table f ~stamp ~value ~base ~id
  | Gate.Or -> fold_overlay Bit.or_table Bit.or_table f ~stamp ~value ~base ~id
  | Gate.Nor ->
    fold_overlay Bit.or_table Bit.nor_table f ~stamp ~value ~base ~id
  | Gate.Xor ->
    fold_overlay Bit.xor_table Bit.xor_table f ~stamp ~value ~base ~id
  | Gate.Xnor ->
    fold_overlay Bit.xor_table Bit.xnor_table f ~stamp ~value ~base ~id

(* A trial's private view of the values: the nets it changed, stamped
   with its id; every other net reads through to the persistent state. *)
type overlay = {
  tval : Bit.t array array;
  tstamp : int array array;
  mutable id : int; (* the current trial *)
}

(* The trial memo (DESIGN.md §13.2): one slot per (input, tried first
   and second pattern values).  A slot holds the trial's outcome, the
   gates it evaluated in order, and the epoch it ran at; it stays valid
   while no net the trial read — the input, each evaluated gate's
   output and fanins — has changed since. *)
type memo = {
  outcome : int array; (* per slot: the conflicting net, or -1 *)
  filled : int array; (* per slot: the epoch it ran at; 0 = never *)
  len : int array; (* per slot: gates evaluated *)
  evaluated : int array array; (* per slot: their indices, grown on demand *)
  mutable cur : int array; (* the running trial's list ... *)
  mutable cur_len : int; (* ... and its length *)
  mutable hits : int;
}

(* The per-gate loops of both passes live here, next to the heap they
   drain and the evaluator they call: a call into another module is
   neither inlined nor direct in the default build (-opaque), and one
   per popped gate measurably slowed trials (DESIGN.md §13.2). *)
type t = {
  c : Circuit.t;
  set : int array; (* the set's gates, ascending; the first [size] *)
  mutable size : int;
  mutable r : Bit.t array array;
      (* the requirements a trial checks, 3 x nets; empty over the
         whole circuit *)
  s : Bit.t array array; (* persistent state, 3 x nets *)
  att : Attrib.sheet option;
  heap : int array; (* queued gate indices, a binary min-heap *)
  mutable len : int;
  queued : int array;
      (* per gate: the pass that last queued it; [max_int] outside the
         set, so one test excludes both *)
  mutable pass : int;
  changed : int array;
      (* per net: the epoch in which the persistent pass last changed
         it; the memo's validity test *)
  mutable epoch : int; (* advanced by every [propagate] *)
  mutable base : int; (* the epoch of the last [retarget] *)
  touched : int array; (* inputs [set_pi] changed since then ... *)
  mutable n_touched : int; (* ... and their count *)
  mutable ov : overlay option; (* allocated by the first trial *)
  mutable memo : memo option; (* likewise *)
  mutable contradictions : int;
      (* persistent writes that contradicted a requirement *)
  mutable assigns : int;
  mutable resim_gates : int;
  mutable early_stops : int;
  mutable trial_evals : int;
}

let values t = t.s

let trial_evals t = t.trial_evals

let memo_hits t = match t.memo with Some m -> m.hits | None -> 0

let contradictions t = t.contradictions

let create ?attrib c =
  let n = Circuit.num_nets c and ng = Circuit.num_gates c in
  {
    c;
    set = Array.init ng Fun.id;
    size = ng;
    r = [||];
    s = Array.init 3 (fun _ -> Array.make n Bit.X);
    att = attrib;
    heap = Array.make ng 0;
    len = 0;
    queued = Array.make ng 0;
    pass = 1;
    changed = Array.make n 0;
    epoch = 1;
    base = 0;
    touched = Array.make c.Circuit.num_pis 0;
    n_touched = 0;
    ov = None;
    memo = None;
    contradictions = 0;
    assigns = 0;
    resim_gates = 0;
    early_stops = 0;
    trial_evals = 0;
  }

(* Point the state at [cone]: every net written since the last
   retarget back to X — the old set's gate outputs and the inputs
   [set_pi] changed — so the state is a fresh one's, then the new gate
   set, and a new memo epoch that invalidates every slot. *)
let retarget t (cone : Req_cone.t) =
  let np = t.c.Circuit.num_pis in
  for i = 0 to t.size - 1 do
    let gi = t.set.(i) in
    t.queued.(gi) <- max_int;
    for k = 0 to 2 do
      t.s.(k).(np + gi) <- Bit.X
    done
  done;
  for i = 0 to t.n_touched - 1 do
    for k = 0 to 2 do
      t.s.(k).(t.touched.(i)) <- Bit.X
    done
  done;
  t.n_touched <- 0;
  t.len <- 0;
  t.size <- cone.Req_cone.n_gates;
  Array.blit cone.Req_cone.gates 0 t.set 0 t.size;
  for i = 0 to t.size - 1 do
    t.queued.(t.set.(i)) <- 0
  done;
  t.r <- cone.Req_cone.r;
  t.base <- t.epoch;
  t.epoch <- t.epoch + 1;
  t.assigns <- 0;
  t.resim_gates <- 0;
  t.early_stops <- 0;
  t.trial_evals <- 0

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

(* A persistent write of component [k] of [net]: counted when it
   contradicts the net's requirement, so that a search whose state was
   conflict-free scans its requirements only after a step that wrote a
   conflict.  The whole circuit has no requirements. *)
let[@inline] note t k net v =
  if Array.length t.r > 0 && mismatch t.r.(k).(net) v then
    t.contradictions <- t.contradictions + 1

(* [s.(1)] holds the middle of [s.(0)] and [s.(2)] on every primary
   input, so comparing the two patterns compares all three components. *)
let set_pi t pi ~v1 ~v3 =
  let s = t.s in
  if not (s.(0).(pi) == v1 && s.(2).(pi) == v3) then begin
    let mid = middle v1 v3 in
    s.(0).(pi) <- v1;
    s.(2).(pi) <- v3;
    s.(1).(pi) <- mid;
    note t 0 pi v1;
    note t 2 pi v3;
    note t 1 pi mid;
    if t.changed.(pi) <= t.base then begin
      t.touched.(t.n_touched) <- pi;
      t.n_touched <- t.n_touched + 1
    end;
    t.changed.(pi) <- t.epoch;
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
      let sk = s.(k) in
      let v = eval g sk in
      if v != sk.(out) then begin
        sk.(out) <- v;
        note t k out v;
        changed := true
      end
    done;
    if !changed then begin
      t.changed.(out) <- t.epoch;
      queue_fanouts t out
    end
    else t.early_stops <- t.early_stops + 1;
    gi := pop t
  done;
  end_pass t;
  t.epoch <- t.epoch + 1

let overlay t =
  match t.ov with
  | Some ov -> ov
  | None ->
    let n = Circuit.num_nets t.c in
    let ov =
      {
        tval = Array.init 3 (fun _ -> Array.make n Bit.X);
        tstamp = Array.init 3 (fun _ -> Array.make n 0);
        id = 0;
      }
    in
    t.ov <- Some ov;
    ov

let memo t =
  match t.memo with
  | Some m -> m
  | None ->
    let slots = 9 * t.c.Circuit.num_pis in
    let m =
      {
        outcome = Array.make slots (-1);
        filled = Array.make slots 0;
        len = Array.make slots 0;
        evaluated = Array.make slots [||];
        cur = [||];
        cur_len = 0;
        hits = 0;
      }
    in
    t.memo <- Some m;
    m

(* Record a trial value in the overlay; [true] when it contradicts a
   requirement. *)
let[@inline] write t ov k net v =
  ov.tval.(k).(net) <- v;
  ov.tstamp.(k).(net) <- ov.id;
  mismatch t.r.(k).(net) v

(* Component [k] of the tried input, written when it differs from the
   persistent state. *)
let seed_pi t ov k pi v = t.s.(k).(pi) != v && write t ov k pi v

(* Double the running trial's memo list, which the trial pass appends
   each evaluated gate to: storage belongs to the engine, not the
   trial. *)
let grow m =
  let a = Array.make (max 16 (2 * m.cur_len)) 0 in
  Array.blit m.cur 0 a 0 m.cur_len;
  m.cur <- a

(* One component's trial pass, from the tried input if that component
   changed; the first conflicting net, or -1. *)
let trial_pass t ov m k pi =
  if ov.tstamp.(k).(pi) = ov.id then queue_fanouts t pi;
  let stamp = ov.tstamp.(k) and value = ov.tval.(k) and base = t.s.(k) in
  let id = ov.id and np = t.c.Circuit.num_pis in
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
    if m.cur_len = Array.length m.cur then grow m;
    m.cur.(m.cur_len) <- !gi;
    m.cur_len <- m.cur_len + 1;
    let v =
      eval_overlay t.c.Circuit.gates.(!gi) ~stamp ~value ~base ~id
    in
    if v == base.(out) then gi := pop t
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

(* The trial itself: seed the input's changed components, then one
   pass per changed component. *)
let run_trial t m pi v1 v3 =
  let ov = overlay t in
  ov.id <- ov.id + 1;
  let mid = middle v1 v3 in
  if seed_pi t ov 0 pi v1 || seed_pi t ov 2 pi v3 || seed_pi t ov 1 pi mid
  then pi
  else
    let net = trial_pass t ov m 0 pi in
    if net >= 0 then net
    else
      let net = trial_pass t ov m 2 pi in
      if net >= 0 then net else trial_pass t ov m 1 pi

(* A slot answers for its trial when it was filled since the last
   retarget and no net that trial read has changed since: then the
   trial would read the same values and take the same path. *)
let valid t m slot pi =
  let e = m.filled.(slot) in
  e > t.base
  && t.changed.(pi) < e
  &&
  let ev = m.evaluated.(slot) and np = t.c.Circuit.num_pis in
  let ok = ref true and i = ref 0 in
  while !ok && !i < m.len.(slot) do
    let gi = ev.(!i) in
    if t.changed.(np + gi) >= e then ok := false
    else begin
      let fanins = t.c.Circuit.gates.(gi).Circuit.fanins in
      for f = 0 to Array.length fanins - 1 do
        if t.changed.(fanins.(f)) >= e then ok := false
      done
    end;
    incr i
  done;
  !ok

let trial t pi ~v1 ~v3 =
  if Array.length t.r = 0 then invalid_arg "Cone_sim.trial: no cone";
  let m = memo t in
  let slot = (9 * pi) + (3 * index v1) + index v3 in
  if valid t m slot pi then begin
    (* A hit charges what the trial it replaces would have. *)
    m.hits <- m.hits + 1;
    t.trial_evals <- t.trial_evals + m.len.(slot);
    (match t.att with
    | Some a ->
      let ev = m.evaluated.(slot) and np = t.c.Circuit.num_pis in
      for i = 0 to m.len.(slot) - 1 do
        let out = np + ev.(i) in
        a.Attrib.trial_evals.(out) <- a.Attrib.trial_evals.(out) + 1
      done;
      a.Attrib.t_trial_evals <- a.Attrib.t_trial_evals + m.len.(slot)
    | None -> ());
    m.outcome.(slot)
  end
  else begin
    m.cur <- m.evaluated.(slot);
    m.cur_len <- 0;
    let net = run_trial t m pi v1 v3 in
    m.evaluated.(slot) <- m.cur;
    m.len.(slot) <- m.cur_len;
    m.outcome.(slot) <- net;
    m.filled.(slot) <- t.epoch;
    net
  end

let trial_value t ~k net =
  match t.ov with
  | Some ov when ov.tstamp.(k).(net) = ov.id -> ov.tval.(k).(net)
  | Some _ | None -> t.s.(k).(net)

(* sim.inc.* metrics.  Their denominator, [sim.inc.fullpass_gates], is
   the gate evaluations a full pass over each recorded state's set
   would have made; a registry counter, so Metrics.reset clears it
   together with the numerator. *)
let assigns_m = Metrics.counter "sim.inc.assigns"

let resim_gates_m = Metrics.counter "sim.inc.resim_gates"

let early_stops_m = Metrics.counter "sim.inc.early_stops"

let fullpass_gates_m = Metrics.counter "sim.inc.fullpass_gates"

let resim_fraction_m = Metrics.gauge "sim.inc.resim_fraction"

(* All updates happen under one lock so the last recorder computes the
   gauge from the complete totals: whatever order records from pool
   domains arrive in (the totals are commutative sums), the final gauge
   is the cumulative fraction over everything recorded — deterministic
   at any --jobs. *)
let record_lock = Mutex.create ()

let record t =
  Mutex.lock record_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock record_lock) @@ fun () ->
  Metrics.add assigns_m t.assigns;
  Metrics.add resim_gates_m t.resim_gates;
  Metrics.add early_stops_m t.early_stops;
  Metrics.add fullpass_gates_m (t.assigns * t.size);
  let possible = Metrics.value fullpass_gates_m in
  if possible > 0 then
    Metrics.set resim_fraction_m
      (float_of_int (Metrics.value resim_gates_m) /. float_of_int possible)
