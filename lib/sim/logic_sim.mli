(** Single-pattern logic simulation over three-valued logic. *)

val eval_gate_get :
  Pdf_circuit.Circuit.gate -> (int -> Pdf_values.Bit.t) -> Pdf_values.Bit.t
(** [eval_gate_get g get] evaluates gate [g] reading fanin values through
    [get], so a caller can evaluate against any per-net view without
    copying.  It is the reference scalar gate evaluator: {!simulate}
    runs on it, and so does {!Two_pattern.simulate}, the full pass the
    tests and oracles compare the engines against; the incremental
    engine's in-place kernel (DESIGN.md §13.2) is tested against it. *)

val simulate :
  Pdf_circuit.Circuit.t -> Pdf_values.Bit.t array -> Pdf_values.Bit.t array
(** [simulate c pis] evaluates the whole circuit in one levelised pass.
    [pis] must have length [c.num_pis]; the result has one value per net
    (PIs first). *)

val simulate_bool : Pdf_circuit.Circuit.t -> bool array -> bool array
(** Fully specified two-valued convenience wrapper. *)

val outputs : Pdf_circuit.Circuit.t -> 'a array -> 'a array
(** Project a per-net array onto the primary outputs. *)
