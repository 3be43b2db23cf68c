(** Requirement placed on a circuit line by a set of target faults.

    The set [A(p)] of the paper is a collection of (line, requirement)
    pairs.  Each requirement constrains the three components of the line's
    value triple independently: a component is either unconstrained ([Any])
    or pinned to a Boolean ([Must]).

    The paper writes requirements in the same [a1 a2 a3] notation as
    simulated values, with [x] meaning "unconstrained":
    - stable 0 is [000] (hazard-free zero — middle component pinned);
    - a final-value constraint is [xx0] / [xx1];
    - the source transition of a slow-to-rise fault is [0x1]. *)

type component = Any | Must of bool

type t = { r1 : component; r2 : component; r3 : component }

val any : t
(** No constraint at all. *)

val stable : bool -> t
(** Hazard-free constant: [000] or [111]. *)

val final : bool -> t
(** Constrains only the second pattern: [xx0] or [xx1]. *)

val initial : bool -> t
(** Constrains only the first pattern: [0xx] or [1xx]. *)

val rising : t
(** [0x1] — slow-to-rise source transition. *)

val falling : t
(** [1x0]. *)

val equal : t -> t -> bool

val is_any : t -> bool

val merge : t -> t -> t option
(** Componentwise intersection; [None] if some component is pinned to both
    [0] and [1] — a direct conflict.  The answer is {!intern}ed, its
    [Some] shared too: merging allocates nothing. *)

val bits : t -> int
(** The pinned components as an int: two bits per component, [r1]
    lowest, [01] for [Must false] and [10] for [Must true], so component
    [k] pinned to [b] (as 0 or 1) is bit [2k + b] — the low three bits
    of its literal in [Pdf_bitsim.Wreq.literals].  The [lor] of several
    requirements' bits stands for their {!merge}, and a table of these
    ints per net merges without allocating. *)

val of_bits : int -> t
(** The requirement whose {!bits} are the argument, {!intern}ed: no
    allocation.  Raises [Invalid_argument] on an int that no
    requirement's bits equal (a {!bits_conflict}, or a bit above the
    sixth). *)

val bits_conflict : int -> bool
(** Whether some component of the merged {!bits} is pinned to both
    values: {!merge} would be [None]. *)

val satisfied_by : Triple.t -> t -> bool
(** A simulated triple satisfies a requirement iff every [Must b] component
    has the definite simulated value [b].  An [X] simulated value does not
    satisfy a pinned component (it could glitch / differ). *)

val compatible_bit : Bit.t -> component -> bool
(** [false] only when the simulated bit is definite and contradicts a
    pinned component — used for early conflict detection during search. *)

val count_pinned : t -> int
(** Number of [Must] components — the value-count used by the value-based
    secondary-target heuristic (size of [Delta]). *)

val intern : t -> t
(** The one shared value equal to the argument: there are 27
    requirements, and [intern] returns the same physical value for
    equal arguments, its components shared too.  A long-lived condition
    set whose requirements are interned holds no record of its own per
    requirement ([Fault_sim]'s condition cache does this). *)

val of_string : string -> t option
(** Parse ["0x1"]-style notation, [x] meaning [Any]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
