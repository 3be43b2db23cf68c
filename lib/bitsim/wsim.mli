(** Word-level (bit-parallel) two-pattern simulation.

    One call to {!simulate_into} evaluates the circuit for up to 63
    two-pattern tests at once: each net carries three dual-rail words
    (see {!Pdf_values.Word}) — the first-pattern plane [v1], the
    hazard/intermediate plane [v2] and the second-pattern plane [v3] —
    and lane [l] of every word belongs to test [l].  The [v2] plane is
    seeded at the primary inputs with the lane-wise
    [Two_pattern.middle_of_pair] of the two patterns, exactly
    like the scalar simulator, so lane [l] of the result equals
    [Two_pattern.simulate] of test [l] component for
    component.

    The planes are a caller-owned buffer ({!create}): the caller stores
    the PI words of the two patterns straight into it and simulates it
    again for every batch, so a batch allocates nothing.  Gates are
    evaluated once each, in the circuit's levelized (topological)
    order, all three planes in the same visit; each gate costs a
    handful of integer instructions per plane regardless of how many
    lanes are occupied.

    The scalar simulator remains the reference implementation: the
    packed result is required (and property-tested) to agree with it
    lane for lane, including [X] lanes. *)

type planes = {
  mutable p_mask : int;
      (** [Word.lane_mask lanes]: the occupied lanes of the last
          simulation *)
  rows : int array array;
      (** the six rails, [6 x num_nets]: [rows.(2*comp + v).(net)] is
          the lane mask of the tests whose component [comp] of [net] is
          the definite value [v] (0 or 1) *)
}
(** Simulation buffer and result, struct-of-arrays so requirement scans
    touch flat integer arrays.  Component indices: 0 = first pattern,
    1 = intermediate, 2 = second pattern; row [2*comp] is the
    component's zero rail, row [2*comp + 1] its one rail.  A pinned
    requirement component is therefore one row id, which is what
    {!Wreq.literals} encodes.  The inputs of a simulation are the PI
    entries ([net < num_pis]) of rows 0, 1 (first pattern) and 4, 5
    (second pattern). *)

val create : Pdf_circuit.Circuit.t -> planes
(** A buffer for the circuit: every lane of every net [X], no lane
    occupied.  Its six rows are the only allocation of a simulation. *)

val simulate_into : Pdf_circuit.Circuit.t -> planes -> lanes:int -> unit
(** [simulate_into c p ~lanes] simulates the PI words the caller stored
    in components 0 and 2 of [p] (rows 0, 1, 4 and 5): it derives
    component 1 at the PIs,
    overwrites every gate net of all three components and sets
    [p_mask].  Lanes at or above [lanes] are don't-cares that
    consumers mask off.  Allocates nothing.  Raises [Invalid_argument]
    when [p] was not created for [c]'s net count or [lanes] is outside
    [1..63]. *)

val simulate :
  Pdf_circuit.Circuit.t ->
  w1:Pdf_values.Word.t array ->
  w3:Pdf_values.Word.t array ->
  lanes:int ->
  planes
(** [simulate c ~w1 ~w3 ~lanes] — {!simulate_into} on a fresh buffer
    whose PI [pi] holds [w1.(pi)]/[w3.(pi)], the first and second
    pattern packed across tests.  Raises [Invalid_argument] on a
    PI-count mismatch or [lanes] outside [1..63]. *)

val batch_bounds : int -> (int * int) array
(** [batch_bounds n] cuts [0..n-1] into word batches [(lo, hi)] of at
    most 63 lanes each, at fixed multiples of 63 — independent of any
    parallelism, so batch-derived metrics are jobs-invariant.  A set
    below 63 is one partly filled batch; an empty one has none. *)

val set_injected_bug : bool -> unit
(** Mutation-testing hook for the [Pdf_check] fuzz harness (DESIGN.md
    §10): when enabled, the packed evaluation of AND/NAND gates with
    three or more inputs deliberately ignores the last fanin, while the
    scalar reference simulator stays correct.  The differential oracles
    must then report a violation and shrink it to a small reproducer —
    the harness's own self-test.  Never enable outside tests. *)

val triple : planes -> net:int -> lane:int -> Pdf_values.Triple.t
(** One lane of one net re-assembled as a scalar value triple. *)
