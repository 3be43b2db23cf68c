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
    at a time.  The rules call no other module and allocate nothing but
    a conflict (DESIGN.md §5.1).

    {2 Persistent state}

    A {!t} holds one implication state: {!extend} seeds more requirements
    and runs to the fixpoint, {!assume} does the same for one value.
    Implied values are the unique least fixpoint of the seeds, so
    extending part by part gives the same values as one {!infer} of the
    concatenation whenever that is consistent, and conflicts whenever it
    conflicts (possibly on another line).

    Every [X -> 0/1] assignment goes on a trail.  {!mark} names a point
    of it and {!undo} unassigns everything after that point, so a
    search can keep one state in step with its decision stack: mark,
    assume the decision, undo to the mark on backtracking.  {!reset} is
    [undo] to the empty trail.

    {2 Restriction}

    A state created with [~within] (a per-net flag array) never
    evaluates a gate whose output net is unflagged.  When the flagged
    nets are closed under fan-in — a requirement cone — and every seed
    lies on a flagged net, this loses nothing on the flagged nets: an
    unflagged net feeds only unflagged gates, so its value could only
    be a forward consequence of flagged values and never flows back.
    The restricted state then reaches the whole-circuit state's
    conflict verdict and its values on every flagged net, and leaves
    the unflagged nets [X]. *)

type outcome =
  | Consistent of Pdf_values.Triple.t array
      (** fixpoint reached; per-net implied values (X = unknown) *)
  | Conflict of { net : int; component : int }
      (** some line was assigned both 0 and 1; [component] is 1, 2 or 3 *)

type conflict = { net : int; component : int }

type t
(** A mutable implication state over one circuit. *)

val create : ?within:bool array -> Pdf_circuit.Circuit.t -> t
(** A state with every net [X].  [within], one flag per net, restricts
    the state to the flagged nets (see above).  It is aliased, not
    copied: change it only while every net is [X], after {!reset}.
    Raises [Invalid_argument] if its length is not the net count. *)

val extend : t -> (int * Pdf_values.Req.t) list -> conflict option
(** Seed the requirements on top of the current values and run the
    implications to fixpoint; [Some] the first conflict met.  After a
    conflict the state is only good for {!undo} or {!reset}: further
    [extend]s and {!assume}s return the same conflict and change
    nothing. *)

val assume :
  t -> component:int -> int -> Pdf_values.Bit.t -> conflict option
(** [assume st ~component net v] seeds one component (1, 2 or 3) of
    [net] with [v] and runs to fixpoint, like {!extend} of one value;
    [X] seeds nothing.  Allocates nothing unless it conflicts. *)

val mark : t -> int
(** The current point of the trail.  Take marks on consistent states
    only.  The trail's length, also on a failed state: the difference
    of two [mark]s counts the values assigned between them, a
    conflicting {!extend}'s included. *)

val undo : t -> int -> unit
(** [undo st m] returns every value assigned since {!mark} returned [m]
    to [X]: the state is again the one at the mark, also after a
    conflicting {!extend} or {!assume}, whose conflict it clears.  Costs
    the values assigned since the mark, plus, after a conflict, one
    pass over the dirty bitsets.  Raises [Invalid_argument] on a mark
    past the current point. *)

val reset : t -> unit
(** [undo st 0]: every net back to [X]. *)

val failed : t -> conflict option
(** The conflict that stopped the state, if any. *)

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
