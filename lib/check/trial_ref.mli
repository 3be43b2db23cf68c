(** Reference for {!Pdf_core.Cone_sim.trial}: the full ascending scan of
    the requirement cone that the event-driven trial replaced (DESIGN.md
    §13.2).

    With [before] and [after] the full simulation of the inputs without
    and with the tried values, the scan first checks the tried input's
    changed components — 0, 2, then 1 — against the cone's
    requirements; then, for each component in the same order, every
    cone gate with a fanin that changed in that component, in ascending
    gate index, until one's new value contradicts a definite
    requirement.  The first such net and the number of gates scanned
    are what a trial must return and charge, whether it evaluates or
    answers from its memo.  A trial popping gates level by level
    reaches the same [after] values but fails on the count and the
    first conflict. *)

val scan :
  Pdf_circuit.Circuit.t ->
  Pdf_core.Req_cone.t ->
  before:Pdf_values.Triple.t array ->
  after:Pdf_values.Triple.t array ->
  pi:int ->
  int * int
(** [scan c cone ~before ~after ~pi]: the conflicting net, or [-1], and
    the gates scanned, for a trial of input [pi]. *)

val component : Pdf_values.Triple.t -> int -> Pdf_values.Bit.t
(** Component [k] of a triple: 0 = first pattern, 1 = intermediate,
    2 = second pattern — {!Pdf_core.Cone_sim.values}' layout. *)
