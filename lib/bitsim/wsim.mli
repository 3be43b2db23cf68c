(** Word-level (bit-parallel) two-pattern simulation.

    One call to {!simulate} evaluates the circuit for up to 63
    two-pattern tests at once: each net carries three dual-rail words
    (see {!Pdf_values.Word}) — the first-pattern plane [v1], the
    hazard/intermediate plane [v2] and the second-pattern plane [v3] —
    and lane [l] of every word belongs to test [l].  The [v2] plane is
    seeded at the primary inputs with the lane-wise
    [Two_pattern.middle_of_pair] of the two patterns, exactly
    like the scalar simulator, so lane [l] of the result equals
    [Two_pattern.simulate] of test [l] component for
    component.

    Gates are evaluated once per plane in the circuit's levelized
    (topological) order; each gate costs a handful of integer
    instructions per plane regardless of how many lanes are occupied.

    The scalar simulator remains the reference implementation: the
    packed result is required (and property-tested) to agree with it
    lane for lane, including [X] lanes. *)

type planes = {
  p_lanes : int;  (** occupied lanes *)
  p_mask : int;  (** [Word.lane_mask p_lanes] *)
  z : int array array;  (** zero rail, [3 x num_nets]: [z.(comp).(net)] *)
  o : int array array;  (** one rail, [3 x num_nets] *)
}
(** Simulation result, struct-of-arrays so requirement scans touch flat
    integer arrays.  Component indices: 0 = first pattern, 1 =
    intermediate, 2 = second pattern. *)

val simulate :
  Pdf_circuit.Circuit.t ->
  w1:Pdf_values.Word.t array ->
  w3:Pdf_values.Word.t array ->
  lanes:int ->
  planes
(** [simulate c ~w1 ~w3 ~lanes] — [w1.(pi)]/[w3.(pi)] pack the first and
    second pattern of PI [pi] across tests.  Emits a ["bitsim"] span.
    Raises [Invalid_argument] on a PI-count mismatch or [lanes] outside
    [1..63]. *)

val batch_bounds : int -> (int * int) array
(** [batch_bounds n] cuts [0..n-1] into word batches [(lo, hi)] of at
    most 63 lanes each, at fixed multiples of 63 — independent of any
    parallelism, so batch-derived metrics are jobs-invariant. *)

val set_injected_bug : bool -> unit
(** Mutation-testing hook for the [Pdf_check] fuzz harness (DESIGN.md
    §10): when enabled, the packed evaluation of AND/NAND gates with
    three or more inputs deliberately ignores the last fanin, while the
    scalar reference simulator stays correct.  The differential oracles
    must then report a violation and shrink it to a small reproducer —
    the harness's own self-test.  Never enable outside tests. *)

val injected_bug_enabled : unit -> bool

val set_inc_injected_bug : bool -> unit
(** Mutation-testing hook for the incremental path only (DESIGN.md §10):
    when enabled, {!Inc.assign} ignores PI words whose second pattern
    changed while the first did not, so incremental planes drift from
    the full-pass reference.  The inc-vs-full oracle must catch and
    shrink it.  Never enable outside tests. *)

val inc_injected_bug_enabled : unit -> bool

(** Event-driven incremental simulation (DESIGN.md §13).

    An {!Inc.t} holds the three planes persistently plus a dirty-set
    worklist over the circuit's validated level buckets
    ({!Pdf_circuit.Circuit.level_gates}).  {!Inc.assign} diffs the new
    PI words against the previous call, seeds only the changed inputs,
    and re-evaluates the affected fanout cone level by level, stopping a
    branch as soon as a gate's three output words are unchanged.  Gate
    functions are pure and evaluated in topological order, so the planes
    after [assign] are bit-for-bit the full-pass {!simulate} result for
    the same words — the hard determinism contract the property tests
    and the [inc-sim] oracle enforce.  Zero allocation per gate on the
    hot path; a zero-flip [assign] is a no-op sweep. *)
module Inc : sig
  type t

  type stats = {
    mutable assigns : int;
    mutable resim_gates : int;  (** gate (re-)evaluations, all planes *)
    mutable early_stops : int;
        (** dirty gates whose outputs were unchanged, cutting their cone *)
  }

  val create :
    ?attrib:Pdf_obs.Attrib.sheet -> Pdf_circuit.Circuit.t -> lanes:int -> t
  (** Fresh state: all-X planes (the full-pass fixpoint for all-X
      inputs) and all-X remembered PI words.  Raises [Invalid_argument]
      if [lanes] is outside [1..63].  When [attrib] is given, every
      dirty-cone gate re-evaluation bumps the sheet's [inc_resims]
      counter for the gate's output net (engine-variant attribution,
      see {!Pdf_obs.Attrib}). *)

  val assign : t -> w1:Pdf_values.Word.t array -> w3:Pdf_values.Word.t array -> unit
  (** Install new PI words and propagate the difference.  Raises
      [Invalid_argument] on a PI-count mismatch. *)

  val planes : t -> planes
  (** The live planes — aliased, not copied; valid until the next
      {!assign}. *)

  val circuit : t -> Pdf_circuit.Circuit.t

  val stats : t -> stats
  (** A copy of the cumulative per-state counters since creation or the
      last {!reset_stats}. *)

  val reset_stats : t -> unit
end

val record_inc : num_gates:int -> Inc.stats -> unit
(** Fold a per-state {!Inc.stats} delta into the process-wide metrics
    [sim.inc.assigns], [sim.inc.resim_gates], [sim.inc.early_stops],
    [sim.inc.fullpass_gates] ([assigns * num_gates], what a full pass
    would have evaluated) and the gauge [sim.inc.resim_fraction] =
    [resim_gates / fullpass_gates], cumulative over all records.  The
    totals are commutative sums updated under one lock, so every
    sim.inc.* value — including the gauge — is jobs-invariant however
    the recording calls are scheduled. *)

val lanes : planes -> int

val mask : planes -> int

val word : planes -> comp:int -> net:int -> Pdf_values.Word.t

val get : planes -> comp:int -> net:int -> lane:int -> Pdf_values.Bit.t

val triple : planes -> net:int -> lane:int -> Pdf_values.Triple.t
(** One lane of one net re-assembled as a scalar value triple. *)
