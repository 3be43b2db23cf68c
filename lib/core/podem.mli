(** Structural PODEM justification (DESIGN.md §15).

    A second justification backend next to the simulation-based engine
    of {!Justify}: instead of trying values by trial simulation, PODEM
    works an explicit objective frontier.  The requirement set is
    carried as per-net value triples in the 5-valued two-pattern algebra
    — the (component-0, component-2) pair of a net is one of stable 0,
    stable 1, rising, falling or unassigned, with the hazard-aware
    intermediate component 1 implied alongside — and the search loop is
    the classical one:

    + {e imply}: evaluate all three components of the requirement
      cone on the shared {!Cone_sim}, event-driven from the pattern
      bits changed since the last pass: only the cone gates with a
      changed fanin, in ascending gate index (DESIGN.md §15.5);
    + {e objective}: the first requirement component still implied to X
      (the frontier generalises the classical D-frontier: until the test
      is found it is never empty, because an unsatisfied requirement is
      either a conflict or an X);
    + {e backtrace}: walk the objective backward through X-valued nets
      to an unassigned primary-input pattern bit, choosing per-gate
      target values by probing the evaluator;
    + {e decide / backtrack}: assign the bit and seed it into the
      engine's implication state; unless that conflicts, re-imply; on a
      conflict flip the most recent unflipped decision (chronological
      backtracking, bounded by a backtrack budget).

    The implication state ({!Pdf_sim.Implication}, restricted to the
    requirement cone) holds the merged requirements plus the assigned
    bits, implied forward and backward by the rules of the paper's
    implication-conflict elimination.  It is seeded with the
    requirements once per search — a conflict there is
    {!Proved_unsatisfiable} without a decision — and kept in step with
    the decision stack by a trail mark per decision: a flip or a pop
    undoes to the decision's mark.  A decision it refutes is
    backtracked at once instead of searched: the rules are sound, so
    the subtree holds no test, and the search that remains is the
    forward-only one in the same order (DESIGN.md §15.1).

    The engine is deterministic — no randomness anywhere — and complete
    up to its budget: {!Proved_unsatisfiable} means the whole decision
    tree over the cone's input bits was refuted.

    {b Cost.}  An engine builds its search state once, on its first
    search — a few arrays over the circuit's nets, gates and input
    bits, the decision stack included — and reloads it for every
    search after.  The search step — implication, objective, backtrace,
    decision and backtrack — allocates only the implication's conflict
    record on a refuted branch and the backtrack-depth histogram's
    sample (DESIGN.md §15.5). *)

type t
(** A PODEM engine for one circuit, holding per-engine effort counters,
    conflict forensics and its one search state.  Drive each engine from
    a single domain at a time. *)

val create : ?attrib:Pdf_obs.Attrib.sheet -> Pdf_circuit.Circuit.t -> t
(** A fresh engine.  When [attrib] is given, effort is charged to the
    sheet with the same vocabulary as {!Justify}: implication passes as
    resimulation cone cost, conflicts to the net implication blames, backtracks
    to the retracted decision input — so attribution conservation holds
    whichever engine runs. *)

type outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable  (** the whole decision tree was refuted *)
  | Gave_up  (** backtrack budget exhausted *)

val run :
  ?max_backtracks:int ->
  t ->
  reqs:(int * Pdf_values.Req.t) list ->
  outcome
(** [run engine ~reqs] — deterministic structural search for a test
    assigning every required value.  [reqs] may repeat nets; entries are
    merged first (a direct conflict is {!Proved_unsatisfiable}).
    Unassigned input bits are filled with zeros, which cannot disturb
    satisfaction: implied definite values are monotone under completion.
    Default budget is 10000 backtracks. *)

(** {2 Effort counters} *)

val runs : t -> int
val decisions : t -> int
(** PI pattern-bit decisions made (the engine's unit of search work). *)

val backtracks : t -> int
val imply_calls : t -> int
val imply_gates : t -> int
(** Implication effort: every pass charged the full cone gate count,
    however few gates it evaluated — the same semantic unit as
    {!Justify.resim_gates}. *)

val aborts : t -> int
(** Runs that returned {!Gave_up}. *)

(** {2 Abort forensics}

    Same shape and semantics as {!Justify.forensics}; the dispatching
    engine layer converts between the two. *)

type forensics = { last_net : int; last_level : int; deepest_level : int }

val forensics : t -> forensics
val reset_forensics : t -> unit

(** {2 Differential-testing mutation hook}

    Mirrors {!Pdf_bitsim.Wsim.set_injected_bug}: a process-wide switch
    that corrupts the second-pattern implication of multi-input gates
    (it reads fanin 0's first-pattern value — a copy-paste bug the
    engine's own final check cannot see, because the corrupted implied
    state is self-consistent).  While it is on, every implication ends
    with {!Internal.full_pass}, the pass it corrupts, so the
    {!Cone_sim} that the other engines share stays correct.  The [justify-podem]
    three-way oracle must catch it by independent re-simulation;
    [test_check.ml] proves it is caught and shrunk. *)

val set_injected_bug : bool -> unit
val injected_bug_enabled : unit -> bool

(** {2 Exposed internals}

    For the property tests in [test_core.ml] only: the search-state
    invariants (frontier non-empty until detection, backtrace reaching
    an unassigned PI, monotone implication, exact backtrack restore,
    the implication state in step with the decision stack) are stated
    against these. *)

module Internal : sig
  type state
  (** The engine's one search state.  An engine holds at most one live
      state: {!prepare} and {!run} reload the same state, so a state
      obtained from {!prepare} is valid only until the engine's next
      {!prepare} or {!run}. *)

  val prepare :
    t -> reqs:(int * Pdf_values.Req.t) list -> state option
  (** Load the engine's search state with the merged requirements, seed
      them into its implication state and run the initial forward
      implication; [None] on a directly conflicting set.  Invalidates
      the state of the engine's previous search. *)

  val imply : state -> unit
  (** The engine's implication pass, event-driven from the pattern-bit
      writes since the last one. *)

  val full_pass : state -> unit
  (** Recompute the implication of the current assignment over the
      whole cone, from the pattern bits alone: the reference {!imply}
      must agree with. *)

  val frontier : state -> (int * int) list
  (** Unsatisfied requirement components, as [(net, component)] pairs in
      deterministic order. *)

  val conflict : state -> int option
  val satisfied : state -> bool
  val objective : state -> (int * int * bool) option
  val backtrace : state -> int * int * bool -> (int * int * bool) option
  (** [(pi, pattern, value)] with [pattern] 1 or 3; the returned pattern
      bit is always unassigned. *)

  val cone_pis : state -> int array
  val assign : state -> int * int * bool -> unit
  (** Set a PI pattern bit without implying (call {!imply} after). *)

  val unassign : state -> int * int -> unit

  val decide : state -> int * int * bool -> bool
  (** Push a decision as the search does: mark the implication state's
      trail, set the bit and assume it; [false] when the implication
      conflicts, refuting the branch.  Like {!assign}, runs no forward
      pass. *)

  val flip : state -> bool
  (** Flip the most recent decision: undo the implication state to its
      mark, set the opposite value and assume it; [false] on a
      conflict.  The stack must be non-empty. *)

  val pop : state -> unit
  (** Retract the most recent decision: undo to its mark, clear its
      bit.  The stack must be non-empty. *)

  val depth : state -> int
  (** Decisions on the stack. *)

  val implication : state -> Pdf_sim.Implication.t
  (** The engine's implication state: the merged requirements plus the
      decisions on the stack, restricted to the requirement cone. *)

  val snapshot : state -> string
  (** Canonical rendering of the full search state (assignment and
      implied values) for exact-equality assertions. *)
end
