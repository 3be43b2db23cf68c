(** Scalar event-driven two-pattern simulation over a gate set: a
    requirement cone ({!Req_cone}), or the whole circuit.

    The one scalar evaluator behind {!Justify}'s resimulation and
    trials, {!Podem}'s implication and backtrace probes and {!Atpg}'s
    per-test values (DESIGN.md §13.2).  It owns a persistent value
    state — three components per net of {!Pdf_values.Bit.t}: 0 = first
    pattern, 1 = intermediate, 2 = second pattern — and a min-heap of gate
    indices that both of its passes drain.  Gates pop in ascending gate
    index, a topological order, and every fanout has a higher index
    than the gate that queues it, so a pass evaluates each gate at most
    once, after its fanins, and exactly the gates of the set with a
    changed fanin: the gates, in the order, of a full ascending scan
    that skips the unchanged ones.

    A state belongs to an engine and serves its searches one after
    another: {!retarget} points it at the next search's cone.  Its
    storage is sized by the circuit at {!create}; the trial overlay and
    memo are allocated by the first {!trial}.  After that nothing is
    allocated, except when a memo slot's gate list outgrows every list
    it held before.

    Nets outside the set are never written by a pass: a cone's fanins
    are closed under the cone, so every value a cone gate reads is a
    cone net or a primary input. *)

type t

val create : ?attrib:Pdf_obs.Attrib.sheet -> Pdf_circuit.Circuit.t -> t
(** An all-[X] state — the fixpoint of all-[X] inputs — over every
    gate; {!retarget} narrows it to a requirement cone.  When [attrib]
    is given, every gate a persistent pass evaluates bumps the sheet's
    [inc_resims] counter for its output net, and every gate a trial
    evaluates, or a memo hit replays, bumps [trial_evals] (DESIGN.md
    §14.1). *)

val retarget : t -> Req_cone.t -> unit
(** Point the state at [cone]'s gates and requirements, as {!Req_cone.load}
    left them: every net written since the last retarget — the old set's
    gates and every input {!set_pi} changed — returns to [X], as in a
    fresh {!create}; every memo slot becomes
    invalid, and the counters behind {!trial_evals} and {!record}
    restart.  Call it after every {!Req_cone.load}.  Costs the old and
    the new set's gates, and allocates nothing. *)

val values : t -> Pdf_values.Bit.t array array
(** The persistent state, [3 x num_nets], aliased: read it, and write
    it only to restore a value read from it, or — on a state that never
    runs a {!trial} — to store what a full pass would compute.  The
    memo sees only the changes {!set_pi} and {!propagate} make. *)

(** {2 The persistent pass} *)

val set_pi : t -> int -> v1:Pdf_values.Bit.t -> v3:Pdf_values.Bit.t -> unit
(** Install primary input [pi]'s two pattern values, with the
    intermediate component {!Pdf_sim.Two_pattern.middle_of_pair}.  When
    one of the three components changes, the gates of the set reading
    [pi] are queued for the next {!propagate}. *)

val propagate : t -> unit
(** Evaluate the queued gates and, transitively, every gate of the set
    with a changed fanin, writing the persistent state.  Afterwards
    every net of the set holds what a full simulation of the installed
    inputs computes. *)

val contradictions : t -> int
(** Persistent writes since {!create} — a component {!set_pi} installs
    or {!propagate} changes — that put a definite value on a net whose
    requirement in that component is the other definite value.  A step
    ({!set_pi} calls, then {!propagate}) from a state that contradicts
    no requirement leaves one that does only if it raised this count:
    every net it did not write keeps its value.  {!Justify} scans its
    requirements after an assignment only then.  Always 0 over the
    whole circuit, which has no requirements. *)

(** {2 The trial pass} *)

val trial : t -> int -> v1:Pdf_values.Bit.t -> v3:Pdf_values.Bit.t -> int
(** [trial t pi ~v1 ~v3] simulates primary input [pi] at the pattern
    values [v1], [v3] in an overlay over the persistent state, leaving
    that state untouched, and checks every value it changes against the
    cone's requirements.  It returns the first net whose new value is
    definite and contradicts a definite requirement, or [-1].  The
    visit order decides that net and the evaluation count: first
    [pi]'s changed components (0, 2, then 1), then for each of those
    components in the same order, the gates of the set with a changed
    fanin, in ascending gate index; a conflict ends the trial.  Call it
    with no {!set_pi} pending.  Raises [Invalid_argument] on a state
    over the whole circuit, which has no requirements to check.

    The answer may come from the memo: the same ([pi], [v1], [v3])
    tried since the last {!retarget}, with no net that trial read —
    [pi], and each evaluated gate's output and fanins — changed by a
    persistent pass since.  Reading the same values, the trial would
    take the same path, so a hit returns its net and charges its
    evaluations ({!trial_evals}, and the sheet's per-net
    [trial_evals]) without evaluating; it writes no overlay. *)

val trial_value : t -> k:int -> int -> Pdf_values.Bit.t
(** Component [k] of [net] as the last {!trial} that evaluated — not a
    memo hit — left it: the value it wrote, else the persistent one.
    For the property tests. *)

val trial_evals : t -> int
(** Gates evaluated by trials since the last {!retarget} (or
    {!create}), memo hits counted as the evaluations they replay. *)

val memo_hits : t -> int
(** Trials answered by the memo since {!create}.  For the property
    tests. *)

(** {2 The gate kernel}

    Both passes evaluate a gate by lookup, not by matching on values:
    the gate's kind picks two of {!Pdf_values.Bit}'s operator tables
    once per gate — its operator, and for the last fanin the inverting
    form when the kind inverts — and each fanin costs one table read,
    with no call outside this module and no branch on its value
    (DESIGN.md §13.2).  Requirement checks read {!Pdf_values.Bit.xor_table}
    and an input's intermediate component
    {!Pdf_values.Bit.middle_table}.  The test "kernel algebra = Bit and
    Logic_sim" checks every table entry against the operator it was
    built from and both evaluators against the reference gate evaluator
    of {!Pdf_sim.Logic_sim}, for every gate kind and arity up to 4 over
    every input. *)

val eval :
  Pdf_circuit.Circuit.gate -> Pdf_values.Bit.t array -> Pdf_values.Bit.t
(** [eval g sk] evaluates [g] over the per-net values [sk], one
    component of a state.  {!Podem}'s backtrace probes gates with it. *)

val eval_overlay :
  Pdf_circuit.Circuit.gate ->
  stamp:int array ->
  value:Pdf_values.Bit.t array ->
  base:Pdf_values.Bit.t array ->
  id:int ->
  Pdf_values.Bit.t
(** [eval_overlay g ~stamp ~value ~base ~id] evaluates [g] reading each
    fanin from [value] when its [stamp] is [id], else from [base]: the
    trial pass's read of its overlay over the persistent state. *)

(** {2 Accounting} *)

val record : t -> unit
(** Fold the persistent passes' work since the last {!retarget} (or
    {!create}) into the process-wide metrics [sim.inc.assigns] (one per
    {!propagate}), [sim.inc.resim_gates] (the gates it evaluated),
    [sim.inc.early_stops] (those whose output did not change),
    [sim.inc.fullpass_gates] (the set's size per assign, what a full
    pass would have evaluated) and the gauge [sim.inc.resim_fraction] =
    [resim_gates / fullpass_gates], cumulative over all records.  The
    totals are commutative sums updated under one lock, so every value,
    the gauge included, is jobs-invariant however the calls are
    scheduled. *)
