(** Simulation-based justification (paper, Section 2.1).

    Given a set of required line values — the union of the [A(p)] of the
    faults a test under construction must detect — the engine searches for
    a fully specified two-pattern test that assigns all of them:

    + every primary-input bit starts unspecified;
    + {e necessary values}: for each unspecified input bit, both values are
      tried by simulation; a value whose implication contradicts a
      requirement is excluded, and if both are excluded the search fails;
    + when no more necessary values exist, a {e decision} is made — an
      input with exactly one specified pattern bit is made stable at it,
      otherwise a random unspecified bit gets a random value;
    + on full specification the requirements are checked exactly (a pinned
      intermediate value must simulate to that definite value — a
      potential glitch fails the check).

    Only inputs in the fan-in cone of the required lines are searched;
    the remaining inputs cannot affect any requirement and are filled
    randomly (equivalent to the paper's random decisions on them).

    {b Cost.}  Trials dominate: both values of every open bit, each
    simulated in an overlay over the persistent cone state.  A trial is
    event-driven from the tried input: it evaluates only the cone gates
    with a changed fanin, in ascending gate index — the order a full
    cone scan would visit them, which fixes the evaluation count and
    the first conflict the attribution sheet and the ledger record —
    and allocates nothing (DESIGN.md §13.2).  After an assignment most
    re-trials cannot have changed: a trial none of whose read nets has
    changed since the same one ran in the same search is answered from
    an exact memo, charged what it would have cost.  An assignment
    resimulates the cone event-driven, from the one input it changed,
    and scans the requirements only when that pass wrote a value
    contradicting one ({!Cone_sim.contradictions}).  Both run on one
    {!Cone_sim}.  An engine builds its search state —
    the cone, the values, the memo — once, on its first search, and
    reloads it for every search after. *)

type t
(** A justification engine for one circuit.  Engines hold an effort
    account and one search state, reused by every search: drive
    each engine from a single domain at a time (create one engine per
    concurrent ATPG run). *)

val create : ?attrib:Pdf_obs.Attrib.sheet -> Pdf_circuit.Circuit.t -> t
(** A fresh engine with a zeroed {!effort} account.  When [attrib] is
    given, the engine charges per-net effort to the sheet (DESIGN.md
    §14): its trial simulations to the tried PI net, their gate
    evaluations to each evaluated gate's output net, and through the
    account resimulations, conflicts and backtracks.  The sheet is
    bumped without synchronisation — drive the engine from one domain
    at a time, as always. *)

val run :
  t ->
  rng:Pdf_util.Rng.t ->
  reqs:(int * Pdf_values.Req.t) list ->
  Test_pair.t option
(** [run engine ~rng ~reqs] — [None] when a conflict is met or the final
    check fails.  [reqs] may list a net several times; entries are merged
    first (a direct conflict fails immediately). *)

val effort : t -> Effort.t
(** The engine's account: its runs ([run] and [run_complete]), trial
    simulations as steps, backtracks, resimulations as full-cone passes,
    aborts and conflict forensics.  The process-wide [justify.trials]
    and [justify.trial_evals] metrics count the trials and their gate
    evaluations over all engines, added once per search. *)

type forensics = Effort.forensics = {
  last_net : int;
  last_level : int;
  deepest_level : int;
}
(** {!Effort.type-forensics}, for the ledger code of {!Atpg}. *)

(** {2 Complete search}

    The paper notes that the coverage variations caused by random value
    selection "can be eliminated by using a branch-and-bound procedure
    instead of a simulation-based procedure for justification".  This is
    that procedure: the same necessary-value machinery, but decisions are
    explored depth-first with backtracking, deterministically. *)

type complete_outcome = Podem.outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable  (** the whole decision tree was refuted *)
  | Gave_up  (** backtrack budget exhausted *)

val run_complete :
  ?max_backtracks:int ->
  t ->
  reqs:(int * Pdf_values.Req.t) list ->
  complete_outcome
(** Deterministic branch-and-bound justification.  Default budget is
    10000 backtracks; an exhausted budget counts an abort.  Unsearched
    inputs (outside the requirement cone) are filled with zeros. *)

(** {2 Backend selection}

    The generation loop justifies through a dispatching {!Engine.t}
    that hosts one of three backends (DESIGN.md §15): the paper's
    simulation-based search, the structural {!Podem} engine, or a
    portfolio that escalates from PODEM to the simulation engine and
    two random-restart simulation members until one finds a test.
    Selected by the [--justify] CLI flag / serve-protocol field,
    falling back to the [PDF_JUSTIFY] environment variable. *)

type kind = Sim | Podem | Portfolio

val kind_name : kind -> string
(** ["sim"] / ["podem"] / ["portfolio"] — the names used by the CLI
    flag, the [PDF_JUSTIFY] variable, the serve protocol's ["justify"]
    field and the ledger's engine records. *)

val kind_of_name : string -> kind option
(** Case-insensitive parse of {!kind_name} (["simulation"] also
    accepted). *)

val default_kind : unit -> kind
(** [PDF_JUSTIFY] when set and non-empty (raising [Invalid_argument] on
    an unknown value — a silently ignored engine selection would be a
    debugging trap), else {!Sim}. *)

(** The dispatching engine used by {!Atpg.generate}.  Its counter and
    forensics accessors fold the members' {!Effort} accounts.  In
    portfolio mode the members run one after another on the caller's
    domain, in the fixed priority order [podem; sim; sim-r1; sim-r2],
    until one finds a test or PODEM proves the requirements
    unsatisfiable; the test and the winner are those of
    running every member to completion and taking the first success in
    that order (the [portfolio] oracle checks this), and counters and
    forensics cover only the members that ran. *)
module Engine : sig
  type engine_kind := kind

  type t

  val create :
    ?attrib:Pdf_obs.Attrib.sheet ->
    ?kind:engine_kind ->
    Pdf_circuit.Circuit.t ->
    t
  (** [kind] defaults to {!default_kind}.  Every member charges
      [attrib] directly. *)

  val kind : t -> engine_kind

  val run :
    t ->
    rng:Pdf_util.Rng.t ->
    reqs:(int * Pdf_values.Req.t) list ->
    Test_pair.t option
  (** Justify through the selected backend.  [Sim] passes [rng]
      straight through (bit-identical to {!run} on a bare engine);
      [Podem] ignores it (the structural search is deterministic);
      [Portfolio] draws exactly one value from it per call, whichever
      members run, and derives member seeds from that draw and the
      member index. *)

  val winner : t -> string
  (** Member label of the most recent successful {!run} (["sim"],
      ["podem"], ["sim-r1"], ...); [""] before the first success.  The
      generation loop persists it into the ledger's test and
      detected-fault records. *)

  val runs : t -> int
  val trials : t -> int
  (** Sim trials plus PODEM decisions: both count one unit of search
      work, so per-fault effort keeps one schema across backends. *)

  val backtracks : t -> int
  val resim_gates : t -> int
  (** Sim resimulation gate charges plus PODEM implication gate
      charges (the same full-cone-pass semantic unit). *)

  val aborts : t -> int
  (** PODEM budget exhaustions ({!Podem.Gave_up}) summed over members;
      0 for the pure simulation backend. *)

  val forensics : t -> forensics
  (** Deterministic combination over members: deepest conflict level is
      the maximum, the last-conflict net comes from the first member in
      priority order that recorded one. *)

  val reset_forensics : t -> unit
end
