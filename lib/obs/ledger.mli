(** Run provenance ledger: append-only structured records describing the
    pipeline's decisions — one record per generated test (primary fault,
    folded secondaries with their fold step, justification effort) and
    one per fault disposition (detected-by, undetectable class, aborted
    or uncovered), plus the undetectability verdicts of the target-set
    filter.

    The ledger layer is vocabulary-agnostic: payloads are assembled by
    the layers that own the data ({!Pdf_faults.Target_sets},
    {!Pdf_core.Atpg}); the schema is documented in DESIGN.md §9.

    {b Determinism.}  Records never carry timestamps or other
    schedule-dependent data, and one generation run appends in program
    order, so {!to_jsonl} is byte-identical across [--jobs] values — the
    extension of the DESIGN.md §7.3/§8.3 contract that CI diffs on every
    push. *)

(** Structured field values (JSON-shaped, but floats are deliberately
    absent: everything the provenance schema needs is integral, and
    float formatting is where byte-determinism goes to die). *)
type value =
  | S of string
  | I of int
  | B of bool
  | L of value list
  | O of (string * value) list

type record = { kind : string; fields : (string * value) list }

type t

val create : unit -> t

val record : t -> kind:string -> (string * value) list -> unit
(** Append one record (mutex-protected; field order is preserved). *)

val size : t -> int

val records : t -> record list
(** In append order. *)

(** {2 Queries} *)

val field : record -> string -> value option

val get_string : record -> string -> string option
(** [None] when absent or not an {!S}. *)

val get_int : record -> string -> int option

val find : t -> kind:string -> (record -> bool) -> record list
(** Records of one kind satisfying a predicate, in append order. *)

(** {2 Export} *)

val to_jsonl : t -> string
(** One JSON object per record per line, [kind] first. *)

val write_jsonl : t -> string -> unit
