(** Three-valued logic bit: [Zero], [One], or unknown [X].

    This is the value domain of every simulation component in the library.
    [X] reads as "unknown / possibly either" — in the middle component of a
    two-pattern simulation it additionally reads as "may glitch". *)

type t = Zero | One | X

val of_bool : bool -> t

val to_bool : t -> bool option
(** [Some b] for a definite value, [None] for [X]. *)

val equal : t -> t -> bool

val is_definite : t -> bool

val not_ : t -> t

val and_ : t -> t -> t
(** Kleene conjunction: [Zero] dominates, [X] otherwise unless both [One]. *)

val or_ : t -> t -> t

val xor : t -> t -> t

val middle : t -> t -> t
(** The intermediate component of a line whose two patterns carry [a]
    and [b]: their common definite value, else [X] (a changing line may
    glitch). *)

(** {2 Operator tables}

    Each binary operator above, and the inverting forms of [and_],
    [or_] and [xor], evaluated once at module initialisation on every
    pair of values.  Entry [3 * i a + i b] of an operator's table holds
    its value on [(a, b)], where [i Zero = 0], [i One = 1] and [i X = 2]
    — the constructors' order, so a gate kernel computes the index from
    the immediate value without a branch and evaluates a gate by lookup
    instead of by matching.  A one-fanin gate reads its kind's table at
    [(a, a)]: BUFF [and_table], NOT [nand_table].  Read them; never
    write them. *)

val and_table : t array
val nand_table : t array
val or_table : t array
val nor_table : t array
val xor_table : t array
val xnor_table : t array

val middle_table : t array
(** {!middle} on every pair. *)

val char : t -> char
(** ['0'], ['1'] or ['x']. *)

val of_char : char -> t option
(** Inverse of {!char}; accepts ['X'] too. *)

val pp : Format.formatter -> t -> unit
