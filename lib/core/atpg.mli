(** Test generation with primary and secondary target faults
    (paper, Sections 2.2 and 3.2).

    The engine is generic over one pool of primary target faults and an
    ordered list of secondary pools.  Each test starts from a primary
    target; secondary candidates are then scanned pool by pool — a
    candidate joins the test's fault set [P(t)] when a test detecting all
    of [P(t)] plus the candidate can be (re-)justified.  A candidate is
    accepted for free when the current test already detects it; it is
    rejected without search when its conditions conflict directly with
    the accumulated requirements.  After each test, fault simulation drops
    every fault the test detects accidentally.

    - The {e basic} procedure of the paper uses a single set [P0] for both
      roles (or no secondary pool at all for the uncompacted baseline).
    - The {e enrichment} procedure uses primaries from [P0] and secondary
      pools [P0] then [P1]: [P1] faults are only targeted with values left
      over after [P0], so the test count is fixed by [P0] alone. *)

(** Per-run configuration: which compaction heuristic orders the targets
    and the seed all of the run's randomness derives from.  Two runs with
    the same configuration and fault set produce identical results — the
    run never reads shared mutable state, so runs with different
    configurations may execute concurrently on separate domains (see
    DESIGN.md, "Architecture & concurrency model"). *)
type config = {
  ordering : Ordering.t;  (** target-ordering heuristic *)
  seed : int;  (** seeds the run's private RNG *)
}

(** Outcome of one generation run. *)
type result = {
  tests : Test_pair.t list;  (** in generation order *)
  detected : bool array;  (** over all prepared fault ids *)
  primary_aborts : int;
      (** primaries for which justification found no test *)
  justification_runs : int;
      (** justification searches this run performed (per-engine count) *)
  justification_trials : int;
      (** trial simulations this run performed (per-engine count) *)
  runtime_s : float;
      (** wall-clock seconds of this run only — meaningful even when
          several runs execute concurrently *)
}

val generate :
  ?ledger:Pdf_obs.Ledger.t ->
  ?attrib:Pdf_obs.Attrib.t ->
  ?justify:Justify.kind ->
  Pdf_circuit.Circuit.t ->
  config ->
  faults:Fault_sim.prepared array ->
  primaries:int list ->
  secondary_pools:int list list ->
  result
(** Fault ids in [primaries] and the pools index into [faults].

    [justify] selects the justification backend (DESIGN.md §15),
    defaulting to {!Justify.default_kind} (the [PDF_JUSTIFY]
    environment variable, else the paper's simulation-based search).
    The run record names the backend in a ["justify"] field, and every
    test / detected-fault record carries the ["engine"] member label
    that produced the winning assignment.

    When [ledger] is given the run appends provenance records
    (DESIGN.md §9): one ["run"] header, one ["test"] record per
    generated test (primary fault, secondary faults folded with their
    fold step and whether each came for free or needed justification,
    and the test's justification effort), and one ["fault"] record per
    prepared fault with its disposition — [detected] (by which test and
    via [primary]/[folded]/[accidental]), [aborted] (targeted as a
    primary, justification found no test) or [uncovered] (with the last
    rejection reason) — plus its accumulated justification [effort]
    (runs, trials, backtracks, semantic resim-gate total over every
    search that targeted it) and, when any targeted attempt hit a
    requirement conflict, a [last_conflict] object naming the blamed
    net, its level and the deepest conflict level reached (abort
    forensics, DESIGN.md §14).  Records carry no timestamps and are
    appended by the sequential generation loop only, so the ledger
    JSONL is byte-identical across [--jobs] values.

    When [attrib] is given the run charges per-net effort — justify
    trial loop, incremental refreshes, candidate delta scans — to a
    fresh {!Pdf_obs.Attrib} sheet, merged into the store once at the
    end of the run. *)

val basic :
  ?ledger:Pdf_obs.Ledger.t ->
  ?attrib:Pdf_obs.Attrib.t ->
  ?justify:Justify.kind ->
  Pdf_circuit.Circuit.t ->
  config ->
  faults:Fault_sim.prepared array ->
  result
(** Single-set procedure over all of [faults]; {!Ordering.Uncompacted}
    uses no secondary pool. *)

val enrich :
  ?ledger:Pdf_obs.Ledger.t ->
  ?attrib:Pdf_obs.Attrib.t ->
  ?justify:Justify.kind ->
  Pdf_circuit.Circuit.t ->
  seed:int ->
  faults:Fault_sim.prepared array ->
  p0:int list ->
  p1:int list ->
  result
(** The proposed enrichment procedure (value-based ordering, as selected
    in the paper). *)

val enrich_multi :
  ?ledger:Pdf_obs.Ledger.t ->
  ?attrib:Pdf_obs.Attrib.t ->
  ?justify:Justify.kind ->
  Pdf_circuit.Circuit.t ->
  seed:int ->
  faults:Fault_sim.prepared array ->
  pools:int list list ->
  result
(** Enrichment with more than two target sets (paper, end of Sec. 3.1):
    primaries come from the first pool only; secondary candidates are
    scanned pool by pool in the given order, so later pools only consume
    the flexibility left by earlier ones.  [enrich] is the two-pool
    special case.  Raises [Invalid_argument] on an empty pool list. *)

val count_detected : result -> ids:int list -> int
(** Detected faults within an id subset (e.g. only [P1]). *)
