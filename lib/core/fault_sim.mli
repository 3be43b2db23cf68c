(** Robust fault simulation for path delay faults.

    A two-pattern test robustly detects a fault iff the simulated line
    values satisfy the fault's condition set [A(p)] — detection checking
    is therefore a per-fault scan over one whole-circuit simulation.

    Two engines implement that scan.  The scalar engine simulates one
    test at a time ({!detected_by_test}); the packed engine
    ([Pdf_bitsim]) simulates up to 63 tests per pass, one lane per test.
    The batch entry points pick the engine from the test count alone:
    packed exactly when the set holds at least one full word
    ([Pdf_values.Word.lanes] tests), scalar below that.  There is no
    override.  The scalar engine is the reference: packed results equal
    per-test {!detected_by_test} rows, by construction and by property
    test and oracle, and metric totals do not depend on how many jobs
    the pool has. *)

(** A fault with its precomputed, merged condition set, ready for
    simulation.  [id] is the fault's index in the prepared array and is
    the id every ATPG entry point works with. *)
type prepared = {
  id : int;  (** index in the array returned by {!prepare} *)
  fault : Pdf_faults.Fault.t;  (** the underlying path delay fault *)
  length : int;  (** path length under the experiment's delay model *)
  reqs : (int * Pdf_values.Req.t) list;  (** merged [A(p)] *)
}

val conditions :
  ?criterion:Pdf_faults.Robust.criterion ->
  Pdf_circuit.Circuit.t ->
  Pdf_faults.Fault.t ->
  (int * Pdf_values.Req.t) list option
(** Memoising front end to {!Pdf_faults.Robust.conditions}: results are
    cached per circuit (by physical identity, a bounded number of
    circuits) and per (criterion, fault).  Safe to call from pool
    domains.  Used by {!prepare} and the diagnosis dictionaries, which
    repeatedly ask for the same condition sets. *)

val prepare :
  ?criterion:Pdf_faults.Robust.criterion ->
  Pdf_circuit.Circuit.t ->
  Pdf_faults.Target_sets.entry list ->
  prepared array
(** Precompute merged conditions; ids are array indices.  Entries whose
    conditions conflict directly (undetectable) are dropped — {!Pdf_faults.Target_sets}
    already filters them, so this is normally the identity. *)

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
(** Union over a whole test set.  When the set holds at least one full
    word of tests, the list is cut into word batches at fixed multiples
    of 63 (see [Wsim.batch_bounds]), each batch is simulated
    bit-parallel on a pool domain, and the per-batch flags are merged by
    OR.  Below one word the scalar engine runs over contiguous
    per-domain chunks (one chunk, run inline, with one job), merged the
    same way.  Both paths produce the flags of OR-ing per-test
    {!detected_by_test} rows, and the metric totals
    ([fault_sim.simulations], [fault_sim.detections], and for the packed
    path [fault_sim.word_batches]/[fault_sim.lanes_used]) are
    jobs-invariant.  [pool] defaults to {!Pdf_par.Pool.default}.

    A packed batch is one full pass ({!Pdf_bitsim.Wsim.simulate}) over
    its tests; it records no [sim.inc.*] metric. *)

val detect_matrix :
  ?pool:Pdf_par.Pool.t ->
  Pdf_circuit.Circuit.t ->
  Test_pair.t list ->
  prepared array ->
  bool array array
(** Full test [x] fault detection matrix: row [t] is the detection flag
    of every fault under test [t] (same row shape as
    {!detected_by_test}).  Runs packed word batches from one full word
    of tests up, scalar per-test rows below that, under the same size
    rule as {!detected_by_tests}; rows equal {!detected_by_test}'s
    either way.  This is the workhorse behind diagnosis dictionaries and
    static compaction delta scans. *)

val count : bool array -> int
(** Number of [true] flags, i.e. detected faults. *)
