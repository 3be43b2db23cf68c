(** Reference implication sweep: the oracle for {!Pdf_sim.Implication}.

    Every pass evaluates every gate on its three components in ascending
    gate index, then the coupling rule on every net in ascending order,
    until a pass changes nothing.  The production engine skips this
    sweep's no-op evaluations and must reach the same fixpoint and the
    same first conflict (the [implication] oracle).

    Each of the three triple components is implied as an independent
    three-valued layer with the standard D-algorithm style rules
    (controlling-value forward rules, last-unjustified-input backward
    rules).  The layers are coupled by two sound rules:
    - on any net, a definite intermediate value implies the same initial
      and final values;
    - on a primary input, equal definite initial and final values imply the
      same intermediate value (a stable input cannot glitch). *)

type outcome =
  | Consistent of Pdf_values.Triple.t array
      (** fixpoint reached; per-net implied values (X = unknown) *)
  | Conflict of { net : int; component : int }
      (** some line was assigned both 0 and 1; [component] is 1, 2 or 3 *)

val infer :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> outcome
(** Seed the requirements and run implications to fixpoint. *)

val consistent :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> bool
(** [true] iff {!infer} reaches a fixpoint without conflict. *)
