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
   computation is possible but harmless.

   A set enters the cache with its requirements interned and with its
   literals ([Wreq.literals]), the form packed grading reads: both are
   paid once per cached set, and every [prepare] of the fault shares
   them. *)
let cond_lock = Mutex.create ()

type condition_set = (int * Req.t) list * int array

let cond_caches :
    (Circuit.t
    * (Robust.criterion * Fault.t, condition_set option) Hashtbl.t)
    list
    ref =
  ref []

let max_cond_circuits = 8

let with_cond_lock f =
  Mutex.lock cond_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cond_lock) f

let compile reqs : condition_set =
  let reqs = List.map (fun (net, r) -> (net, Req.intern r)) reqs in
  (reqs, Wreq.literals reqs)

let cached ~criterion c fault =
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
    let r = Option.map compile (Robust.conditions ~criterion c fault) in
    with_cond_lock (fun () ->
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key r);
    r

let conditions ?(criterion = Robust.Robust) c fault =
  Option.map fst (cached ~criterion c fault)

(* ------------------------------------------------------------------ *)
(* Preparation and scalar detection                                    *)
(* ------------------------------------------------------------------ *)

type prepared = {
  id : int;
  fault : Fault.t;
  length : int;
  reqs : (int * Req.t) list;
  lits : int array;
}

let prepare ?(criterion = Robust.Robust) c entries =
  Span.with_ "prepare" @@ fun () ->
  let prepared =
    List.filter_map
      (fun (e : Target_sets.entry) ->
        match cached ~criterion c e.Target_sets.fault with
        | Some (reqs, lits) ->
          Some (fun id ->
              { id; fault = e.Target_sets.fault; length = e.Target_sets.length;
                reqs; lits })
        | None -> None)
      entries
  in
  let a = Array.of_list (List.mapi (fun id make -> make id) prepared) in
  Metrics.set_int g_prepared (Array.length a);
  a

let with_reqs p reqs =
  let reqs, lits = compile reqs in
  { p with reqs; lits }

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

(* Store tests [lo .. hi-1] as the PI words of planes 0 and 2, one lane
   per test, and simulate them.  Test pairs are fully specified, so
   every occupied lane is definite and every other lane X.  The bits are
   shifted in without a branch: random patterns would mispredict half
   of them. *)
let load_batch c (p : Wsim.planes) (tests : Test_pair.t array) lo hi =
  let np = c.Circuit.num_pis in
  let r = p.Wsim.rows in
  let z0 = r.(0) and o0 = r.(1) and z2 = r.(4) and o2 = r.(5) in
  Array.fill o0 0 np 0;
  Array.fill o2 0 np 0;
  for l = 0 to hi - lo - 1 do
    let t = tests.(lo + l) in
    let v1 = t.Test_pair.v1 and v3 = t.Test_pair.v3 in
    for pi = 0 to np - 1 do
      o0.(pi) <- o0.(pi) lor (Bool.to_int v1.(pi) lsl l);
      o2.(pi) <- o2.(pi) lor (Bool.to_int v3.(pi) lsl l)
    done
  done;
  let m = Word.lane_mask (hi - lo) in
  for pi = 0 to np - 1 do
    z0.(pi) <- m land lnot o0.(pi);
    z2.(pi) <- m land lnot o2.(pi)
  done;
  Wsim.simulate_into c p ~lanes:(hi - lo)

(* Every test set, a sub-word one included, is cut into word batches at
   fixed multiples of [Word.lanes] ([Wsim.batch_bounds]), and the
   batches into one contiguous chunk per pool domain.  [run_chunk bounds
   b_lo b_hi] grades batches [b_lo .. b_hi-1] of [bounds] with one plane
   buffer; the chunks' results come back in chunk order, and with one
   job the single chunk runs inline.  The counters depend on the set
   size alone, so they are jobs-invariant. *)
let over_chunks pool n_tests run_chunk =
  let bounds = Wsim.batch_bounds n_tests in
  let nb = Array.length bounds in
  let k = min (Pdf_par.Pool.jobs pool) nb in
  let chunks = Array.init k (fun j -> (j * nb / k, (j + 1) * nb / k)) in
  Metrics.add m_word_batches nb;
  Metrics.add m_lanes_used n_tests;
  Metrics.add m_simulations n_tests;
  Pdf_par.Pool.map_array pool (fun (lo, hi) -> run_chunk bounds lo hi) chunks

let resolve pool =
  match pool with Some p -> p | None -> Pdf_par.Pool.default ()

let detected_by_tests ?pool c tests faults =
  Span.with_ "fault-sim" @@ fun () ->
  let nf = Array.length faults in
  let tests = Array.of_list tests in
  (* Each chunk ORs its batches into its own flags, skipping the faults
     it has already seen detected; the chunks' flags are OR-merged. *)
  let run_chunk bounds b_lo b_hi =
    let planes = Wsim.create c and detected = Array.make nf false in
    for b = b_lo to b_hi - 1 do
      let lo, hi = bounds.(b) in
      load_batch c planes tests lo hi;
      for i = 0 to nf - 1 do
        if
          (not detected.(i))
          && Wreq.satisfied_mask planes faults.(i).lits <> 0
        then detected.(i) <- true
      done
    done;
    detected
  in
  let partials = over_chunks (resolve pool) (Array.length tests) run_chunk in
  let detected =
    if Array.length partials = 0 then Array.make nf false else partials.(0)
  in
  for k = 1 to Array.length partials - 1 do
    Array.iteri (fun i d -> if d then detected.(i) <- true) partials.(k)
  done;
  Metrics.add m_detections (count detected);
  detected

(* ------------------------------------------------------------------ *)
(* Full detection matrix                                               *)
(* ------------------------------------------------------------------ *)

let detect_matrix ?pool c tests faults =
  Span.with_ "fault-sim" @@ fun () ->
  let nf = Array.length faults in
  let tests = Array.of_list tests in
  let rows = Array.make (Array.length tests) [||] in
  (* Per batch, the faults some test of the batch detects are listed
     with their lane masks: [ids.(k)] is detected by the lanes (tests) of
     [masks.(k)], [k < hits].  The batch's rows are then written lane by
     lane from that list, counting detections as they are written.
     Chunks write disjoint rows. *)
  let run_chunk bounds b_lo b_hi =
    let planes = Wsim.create c in
    let ids = Array.make nf 0 and masks = Array.make nf 0 in
    let detections = ref 0 in
    for b = b_lo to b_hi - 1 do
      let lo, hi = bounds.(b) in
      load_batch c planes tests lo hi;
      let hits = ref 0 in
      for i = 0 to nf - 1 do
        let m = Wreq.satisfied_mask planes faults.(i).lits in
        if m <> 0 then begin
          ids.(!hits) <- i;
          masks.(!hits) <- m;
          incr hits
        end
      done;
      for l = 0 to hi - lo - 1 do
        let bit = 1 lsl l and row = Array.make nf false in
        for k = 0 to !hits - 1 do
          if masks.(k) land bit <> 0 then begin
            row.(ids.(k)) <- true;
            incr detections
          end
        done;
        rows.(lo + l) <- row
      done
    done;
    !detections
  in
  let counts = over_chunks (resolve pool) (Array.length tests) run_chunk in
  Metrics.add m_detections (Array.fold_left ( + ) 0 counts);
  rows
