(** Robust sensitization conditions [A(p)] (paper, Section 2.1).

    A two-pattern test robustly detects a path delay fault iff it assigns:
    - the fault's transition to the path source ([0x1] for slow-to-rise),
    - at every gate along the path, the robust off-path (side input)
      condition: when the on-path transition ends at the gate's
      {e controlling} value the side inputs must hold the non-controlling
      value hazard-free through both patterns (e.g. [000]); when it ends at
      the {e non-controlling} value the side inputs only need the
      non-controlling value under the second pattern ([xx0] / [xx1]).

    XOR/XNOR gates have no controlling value; we use the standard
    restriction that side inputs be hazard-free stable, canonically at 0
    (documented substitution — the benchmark gate set has no XOR). *)

type criterion =
  | Robust
      (** the paper's setting: hazard-free side inputs where needed *)
  | Non_robust
      (** classic weaker conditions: every side input only needs the
          non-controlling value under the second pattern — detection is
          then conditional on no other path being slow *)

val criterion_name : criterion -> string
(** ["robust"] / ["nonrobust"] — the names used by the CLI's
    [--criterion] flag, the serve protocol's ["criterion"] field and the
    session cache keys. *)

val criterion_of_name : string -> criterion option
(** Case-insensitive parse of {!criterion_name} (["non-robust"] also
    accepted). *)

val source_requirement : Fault.direction -> Pdf_values.Req.t
(** The source transition of [A(p)]: [0x1] for {!Fault.Rising}, [1x0]
    for {!Fault.Falling}. *)

val side_requirement :
  ?criterion:criterion ->
  Pdf_circuit.Gate.kind ->
  Fault.direction ->
  Pdf_values.Req.t option
(** What each side input of a gate of this kind must hold when the
    on-path transition [dir] enters the gate; [None] for NOT and BUFF,
    which have no side input.  The one definition of a hop's part of
    [A(p)], read by {!raw_conditions} and by {!Undetectable.filter}.
    Default criterion is {!Robust}. *)

val raw_conditions :
  ?criterion:criterion ->
  Pdf_circuit.Circuit.t ->
  Fault.t ->
  (int * Pdf_values.Req.t) list
(** One entry per constraint occurrence: the source transition first, then
    one entry per off-path input in path order.  A net may appear several
    times.  Default criterion is {!Robust}. *)

val conditions :
  ?criterion:criterion ->
  Pdf_circuit.Circuit.t ->
  Fault.t ->
  (int * Pdf_values.Req.t) list option
(** {!raw_conditions} merged per net; [None] when two occurrences conflict
    directly — the fault is undetectable (elimination type 1 of the
    paper). *)

val merge_into :
  (int, Pdf_values.Req.t) Hashtbl.t ->
  (int * Pdf_values.Req.t) list ->
  bool
(** Destructively merge requirements into an accumulated set (the
    [union of A(p_j)] of a test under construction); on direct conflict the
    table is left unchanged and [false] is returned. *)

val output_direction : Pdf_circuit.Circuit.t -> Fault.t -> Fault.direction
(** Transition direction observed at the path's final net (source direction
    composed with the path's inversion parity). *)
