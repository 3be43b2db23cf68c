(** Forward/backward implication of requirement values.

    Used to eliminate undetectable faults: the values of [A(p)] are seeded
    on circuit lines and implied through the circuit; if the implication
    process assigns conflicting values to some line, the fault is
    undetectable (paper, Section 3.1, elimination type 2).  Test
    generation also keeps the implied values of each test's accumulated
    requirements, to reject secondary candidates that contradict them
    without a search.

    Each of the three triple components is implied as an independent
    three-valued layer with the standard D-algorithm style rules
    (controlling-value forward rules, last-unjustified-input backward
    rules).  The layers are coupled by two sound rules:
    - on any net, a definite intermediate value implies the same initial
      and final values;
    - on a primary input, equal definite initial and final values imply the
      same intermediate value (a stable input cannot glitch).

    {2 Schedule}

    The rules run in passes.  A pass evaluates, in ascending gate index,
    the gates that had a net change since their last evaluation, each on
    components 1, 2, 3; a gate dirtied by a gate of higher or equal index
    waits for the next pass.  At the end of a pass the coupling rule runs,
    in ascending net order, over the nets changed in that pass (the first
    pass after seeding also covers the seeded nets).  Passes repeat until
    no gate is dirty.

    This is the plain sweep — every gate, then coupling over every net,
    until a pass changes nothing ([Pdf_check.Implication_ref]) — with its
    no-op evaluations skipped.  A gate's rules read and write only its own
    nets and are idempotent, so re-evaluating a gate none of whose nets
    changed assigns nothing and raises nothing; the same holds for the
    coupling rule on an unchanged net.  Every evaluation that does assign
    therefore happens in the sweep's order on the sweep's state, so the
    fixpoint, the first conflict and its [(net, component)] are the
    sweep's.  Dirty sets are per-gate and per-net bitsets, scanned a word
    at a time (DESIGN.md §5.1).

    {2 Persistent state}

    A {!t} holds one implication state: {!extend} seeds more requirements
    and runs to the fixpoint, {!reset} returns every net to [X] by undoing
    the assignment trail.  Implied values are the unique least fixpoint
    of the seeds, so extending part by part gives the same values as one
    {!infer} of the concatenation whenever that is consistent, and
    conflicts whenever it conflicts (possibly on another line). *)

type outcome =
  | Consistent of Pdf_values.Triple.t array
      (** fixpoint reached; per-net implied values (X = unknown) *)
  | Conflict of { net : int; component : int }
      (** some line was assigned both 0 and 1; [component] is 1, 2 or 3 *)

type conflict = { net : int; component : int }

type t
(** A mutable implication state over one circuit. *)

val create : Pdf_circuit.Circuit.t -> t
(** A state with every net [X]. *)

val reset : t -> unit
(** Return every net to [X], also after a conflicting {!extend}.  Costs
    the number of values assigned since the last reset, plus one pass
    over the dirty bitsets. *)

val extend : t -> (int * Pdf_values.Req.t) list -> conflict option
(** Seed the requirements on top of the current values and run the
    implications to fixpoint; [Some] the first conflict met.  After a
    conflict the state is only good for {!reset}: further [extend]s
    return the same conflict and change nothing. *)

val value : t -> component:int -> int -> Pdf_values.Bit.t
(** [value st ~component net] is the value implied so far on one
    component (1, 2 or 3) of [net]. *)

val infer :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> outcome
(** Seed the requirements and run implications to fixpoint: {!create}
    then {!extend}. *)

val consistent :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> bool
(** [true] iff {!infer} reaches a fixpoint without conflict. *)
