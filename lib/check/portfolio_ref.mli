(** Reference justification portfolio: the oracle for the escalating
    {!Pdf_core.Justify.Engine} in [Portfolio] mode.

    Every member runs each request to completion — PODEM, then the
    simulation engine and two random-restart simulation members with
    seeds derived from one draw per call and the member index — and the
    first success in that priority order wins.  The production engine
    stops at the first success, or at PODEM's proof of
    unsatisfiability, and must return the same test and winner (the
    [portfolio] oracle). *)

type t

val create : Pdf_circuit.Circuit.t -> t

val run :
  t ->
  rng:Pdf_util.Rng.t ->
  reqs:(int * Pdf_values.Req.t) list ->
  (Pdf_core.Test_pair.t * string) option
(** The winning test and its member label ([podem], [sim], [sim-r1] or
    [sim-r2]), or [None] when no member finds a test.  Draws exactly
    one value from [rng]. *)
