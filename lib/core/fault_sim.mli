(** Robust fault simulation for path delay faults.

    A two-pattern test robustly detects a fault iff the simulated line
    values satisfy the fault's condition set [A(p)] — detection checking
    is therefore a per-fault scan over one whole-circuit simulation.

    Two engines implement that scan.  The scalar engine simulates one
    test at a time ({!detected_by_test}); the packed engine
    ([Pdf_bitsim]) simulates up to 63 tests per pass, one lane per test.
    The batch entry points ({!detected_by_tests}, {!detect_matrix}) run
    the packed engine at every set size: a set below one word
    ([Pdf_values.Word.lanes] tests) is one partly filled word.  The
    scalar engine is the reference: packed results equal per-test
    {!detected_by_test} rows, by construction and by property test and
    oracle, and metric totals do not depend on how many jobs the pool
    has. *)

(** A fault with its precomputed, merged condition set, ready for
    simulation.  [id] is the fault's index in the prepared array and is
    the id every ATPG entry point works with.  Only {!prepare} builds
    one, so [reqs] and [lits] always describe the same condition set:
    to grade a fault under another criterion, prepare it again with
    that criterion. *)
type prepared = private {
  id : int;  (** index in the array returned by {!prepare} *)
  fault : Pdf_faults.Fault.t;  (** the underlying path delay fault *)
  length : int;  (** path length under the experiment's delay model *)
  reqs : (int * Pdf_values.Req.t) list;
      (** merged [A(p)], its requirements interned
          ({!Pdf_values.Req.intern}) *)
  lits : int array;
      (** [reqs] as {!Pdf_bitsim.Wreq.literals}, what packed grading
          reads; shared with the condition cache, never to be written *)
}

val conditions :
  ?criterion:Pdf_faults.Robust.criterion ->
  Pdf_circuit.Circuit.t ->
  Pdf_faults.Fault.t ->
  (int * Pdf_values.Req.t) list option
(** Memoising front end to {!Pdf_faults.Robust.conditions}: results are
    cached per circuit (by physical identity, a bounded number of
    circuits) and per (criterion, fault).  Safe to call from pool
    domains.  Used by {!prepare} and the weak diagnosis dictionary,
    which repeatedly ask for the same condition sets.  A cached set
    holds its requirements interned ({!Pdf_values.Req.intern}: equal to
    what [Robust.conditions] returns, but sharing one value per
    distinct requirement) and its {!Pdf_bitsim.Wreq.literals}, both
    computed once, when the set enters the cache. *)

val prepare :
  ?criterion:Pdf_faults.Robust.criterion ->
  Pdf_circuit.Circuit.t ->
  Pdf_faults.Target_sets.entry list ->
  prepared array
(** Precompute merged conditions; ids are array indices.  Entries whose
    conditions conflict directly (undetectable) are dropped — {!Pdf_faults.Target_sets}
    already filters them, so this is normally the identity. *)

val with_reqs : prepared -> (int * Pdf_values.Req.t) list -> prepared
(** [p] with its requirement list replaced — by the same conditions in
    another order, say — interned, and their literals. *)

val detects_values :
  Pdf_values.Triple.t array -> prepared -> bool
(** Check one fault against an existing simulation result. *)

val detected_by_test :
  Pdf_circuit.Circuit.t -> Test_pair.t -> prepared array -> bool array
(** One simulation, then all faults checked. *)

val detected_by_tests :
  ?pool:Pdf_par.Pool.t ->
  Pdf_circuit.Circuit.t ->
  Test_pair.t list ->
  prepared array ->
  bool array
(** Union over a whole test set: the flags of OR-ing per-test
    {!detected_by_test} rows.  The list is cut into word batches at
    fixed multiples of 63 (see [Wsim.batch_bounds]; a sub-word set is
    one partly filled batch, an empty one none) and the batches into one
    contiguous chunk per pool domain (one chunk, run inline, with one
    job).  A chunk simulates its batches one after the other into one
    plane buffer ({!Pdf_bitsim.Wsim.simulate_into}), checks each fault's
    [lits] against it ({!Pdf_bitsim.Wreq.satisfied_mask}), skips the
    faults it has already seen detected, and the chunks' flags are
    merged by OR.
    The metric totals [fault_sim.simulations], [fault_sim.detections],
    [fault_sim.word_batches] and [fault_sim.lanes_used] depend on the
    set alone, not on the pool.  [pool] defaults to
    {!Pdf_par.Pool.default}. *)

val detect_matrix :
  ?pool:Pdf_par.Pool.t ->
  Pdf_circuit.Circuit.t ->
  Test_pair.t list ->
  prepared array ->
  bool array array
(** Full test [x] fault detection matrix: row [t] is the detection flag
    of every fault under test [t], equal to {!detected_by_test}'s row.
    Batches and chunks as in {!detected_by_tests}; per batch, the
    faults some lane detects are listed with their lane masks, and the
    batch's rows are written lane by lane from that list, counting
    detections as they are written.  This is the workhorse behind
    diagnosis dictionaries and static compaction delta scans. *)

val count : bool array -> int
(** Number of [true] flags, i.e. detected faults. *)
