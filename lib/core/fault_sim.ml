module Req = Pdf_values.Req
module Word = Pdf_values.Word
module Fault = Pdf_faults.Fault
module Robust = Pdf_faults.Robust
module Target_sets = Pdf_faults.Target_sets
module Circuit = Pdf_circuit.Circuit
module Wsim = Pdf_bitsim.Wsim
module Wreq = Pdf_bitsim.Wreq
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span

let m_simulations = Metrics.counter "fault_sim.simulations"
let m_detections = Metrics.counter "fault_sim.detections"
let m_word_batches = Metrics.counter "fault_sim.word_batches"
let m_lanes_used = Metrics.counter "fault_sim.lanes_used"
let g_prepared = Metrics.gauge "fault_sim.prepared"

(* ------------------------------------------------------------------ *)
(* Condition cache                                                     *)
(* ------------------------------------------------------------------ *)

(* [Robust.conditions] is pure in (circuit, criterion, fault) and is
   recomputed for the same faults by every experiment phase (prepare,
   weak dictionaries, ablations), so results are memoised here.  Caches
   are keyed per circuit by physical identity and bounded; the inner
   table is keyed structurally (faults are plain ints/variants/arrays).
   The lock makes the cache safe from pool domains; the conditions
   themselves are computed outside the lock, so a rare duplicate
   computation is possible but harmless. *)
let cond_lock = Mutex.create ()

let cond_caches :
    (Circuit.t
    * (Robust.criterion * Fault.t, (int * Req.t) list option) Hashtbl.t)
    list
    ref =
  ref []

let max_cond_circuits = 8

let with_cond_lock f =
  Mutex.lock cond_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cond_lock) f

let conditions ?(criterion = Robust.Robust) c fault =
  let tbl =
    with_cond_lock (fun () ->
        match List.find_opt (fun (c', _) -> c' == c) !cond_caches with
        | Some (_, tbl) -> tbl
        | None ->
          let tbl = Hashtbl.create 1024 in
          let kept =
            List.filteri
              (fun i _ -> i < max_cond_circuits - 1)
              !cond_caches
          in
          cond_caches := (c, tbl) :: kept;
          tbl)
  in
  let key = (criterion, fault) in
  match with_cond_lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some r -> r
  | None ->
    let r = Robust.conditions ~criterion c fault in
    with_cond_lock (fun () ->
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key r);
    r

(* ------------------------------------------------------------------ *)
(* Preparation and scalar detection                                    *)
(* ------------------------------------------------------------------ *)

type prepared = {
  id : int;
  fault : Fault.t;
  length : int;
  reqs : (int * Req.t) list;
}

let prepare ?(criterion = Robust.Robust) c entries =
  Span.with_ "prepare" @@ fun () ->
  let prepared =
    List.filter_map
      (fun (e : Target_sets.entry) ->
        match conditions ~criterion c e.Target_sets.fault with
        | Some reqs ->
          Some (fun id ->
              { id; fault = e.Target_sets.fault; length = e.Target_sets.length;
                reqs })
        | None -> None)
      entries
  in
  let a = Array.of_list (List.mapi (fun id make -> make id) prepared) in
  Metrics.set_int g_prepared (Array.length a);
  a

let detects_values values p =
  List.for_all (fun (net, req) -> Req.satisfied_by values.(net) req) p.reqs

let detected_by_test c test faults =
  Span.with_ "fault-sim" @@ fun () ->
  Metrics.incr m_simulations;
  let values = Test_pair.simulate c test in
  Array.map
    (fun p ->
      let d = detects_values values p in
      if d then Metrics.incr m_detections;
      d)
    faults

let count detected =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 detected

(* ------------------------------------------------------------------ *)
(* Packed (word-parallel) detection                                    *)
(* ------------------------------------------------------------------ *)

(* Pack tests [lo .. hi-1] into per-PI dual-rail words, one lane per
   test.  Test pairs are fully specified, so every lane is definite. *)
let pack_batch c (tests : Test_pair.t array) (lo, hi) =
  let lanes = hi - lo in
  let np = c.Circuit.num_pis in
  let z1 = Array.make np 0 and o1 = Array.make np 0 in
  let z3 = Array.make np 0 and o3 = Array.make np 0 in
  for l = 0 to lanes - 1 do
    let t = tests.(lo + l) in
    let b = 1 lsl l in
    for pi = 0 to np - 1 do
      if t.Test_pair.v1.(pi) then o1.(pi) <- o1.(pi) lor b
      else z1.(pi) <- z1.(pi) lor b;
      if t.Test_pair.v3.(pi) then o3.(pi) <- o3.(pi) lor b
      else z3.(pi) <- z3.(pi) lor b
    done
  done;
  let w1 = Array.init np (fun pi -> { Word.zero = z1.(pi); one = o1.(pi) }) in
  let w3 = Array.init np (fun pi -> { Word.zero = z3.(pi); one = o3.(pi) }) in
  (w1, w3, lanes)

(* Word-parallel scan over one batch, metrics-free: the caller accounts
   centrally so totals are identical to the scalar path and independent
   of how batches are distributed over domains. *)
let detect_batch c tests faults bound =
  let w1, w3, lanes = pack_batch c tests bound in
  let planes = Wsim.simulate c ~w1 ~w3 ~lanes in
  let detected = Array.make (Array.length faults) false in
  Array.iteri
    (fun i p ->
      if Wreq.satisfied_mask planes p.reqs <> 0 then detected.(i) <- true)
    faults;
  detected

(* Sequential scalar scan over [tests.(lo .. hi-1)], metrics-free (the
   engine of sets below one word). *)
let detect_chunk c tests faults (lo, hi) =
  let detected = Array.make (Array.length faults) false in
  for t = lo to hi - 1 do
    let values = Test_pair.simulate c tests.(t) in
    Array.iteri
      (fun i p ->
        if (not detected.(i)) && detects_values values p then
          detected.(i) <- true)
      faults
  done;
  detected

(* OR every partial into the first one: partials are fresh per call, so
   the merge needs no copy. *)
let or_merge nf partials =
  if Array.length partials = 0 then Array.make nf false
  else begin
    let detected = partials.(0) in
    for k = 1 to Array.length partials - 1 do
      Array.iteri (fun i d -> if d then detected.(i) <- true) partials.(k)
    done;
    detected
  end

let detected_by_tests ?pool c tests faults =
  Span.with_ "fault-sim" @@ fun () ->
  let pool =
    match pool with Some p -> p | None -> Pdf_par.Pool.default ()
  in
  let nf = Array.length faults in
  let n_tests = List.length tests in
  let tests = Array.of_list tests in
  (* Both engines cut the set into chunks, run them over the pool and
     OR-merge the flags, so flags and detection counts are identical
     whatever the job count. *)
  let detected =
    if n_tests >= Word.lanes then begin
      (* Word batches at fixed multiples of [Word.lanes], so the
         batch/lane counters are jobs-invariant too. *)
      let bounds = Wsim.batch_bounds n_tests in
      let partials =
        Pdf_par.Pool.map_array pool (detect_batch c tests faults) bounds
      in
      Metrics.add m_word_batches (Array.length bounds);
      Metrics.add m_lanes_used n_tests;
      or_merge nf partials
    end
    else begin
      (* Below one word, the scalar engine: contiguous chunks, one per
         domain (a single chunk, run inline, with one job). *)
      let chunks = min (Pdf_par.Pool.jobs pool) n_tests in
      let bounds =
        Array.init chunks (fun k ->
            (k * n_tests / chunks, (k + 1) * n_tests / chunks))
      in
      or_merge nf
        (Pdf_par.Pool.map_array pool (detect_chunk c tests faults) bounds)
    end
  in
  Metrics.add m_simulations n_tests;
  Metrics.add m_detections (count detected);
  detected

(* ------------------------------------------------------------------ *)
(* Full detection matrix                                               *)
(* ------------------------------------------------------------------ *)

(* One word batch of matrix rows: simulate once, then scatter each
   fault's satisfaction mask into the per-test rows. *)
let matrix_batch c tests faults (lo, hi) =
  let w1, w3, lanes = pack_batch c tests (lo, hi) in
  let planes = Wsim.simulate c ~w1 ~w3 ~lanes in
  let nf = Array.length faults in
  let rows = Array.init lanes (fun _ -> Array.make nf false) in
  Array.iteri
    (fun i p ->
      let m = Wreq.satisfied_mask planes p.reqs in
      if m <> 0 then
        for l = 0 to lanes - 1 do
          if m land (1 lsl l) <> 0 then rows.(l).(i) <- true
        done)
    faults;
  rows

let matrix_row c faults test =
  let values = Test_pair.simulate c test in
  Array.map (fun p -> detects_values values p) faults

let detect_matrix ?pool c tests faults =
  Span.with_ "fault-sim" @@ fun () ->
  let pool =
    match pool with Some p -> p | None -> Pdf_par.Pool.default ()
  in
  let n_tests = List.length tests in
  let tests = Array.of_list tests in
  let rows =
    if n_tests >= Word.lanes then begin
      let bounds = Wsim.batch_bounds n_tests in
      let parts =
        Pdf_par.Pool.map_array pool (matrix_batch c tests faults) bounds
      in
      Metrics.add m_word_batches (Array.length bounds);
      Metrics.add m_lanes_used n_tests;
      Array.concat (Array.to_list parts)
    end
    else Pdf_par.Pool.map_array pool (matrix_row c faults) tests
  in
  Metrics.add m_simulations n_tests;
  Metrics.add m_detections
    (Array.fold_left (fun acc row -> acc + count row) 0 rows);
  rows
