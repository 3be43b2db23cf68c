(** Named circuit profiles standing in for the paper's benchmark circuits.

    The paper evaluates on ISCAS-89 and ITC-99 netlists (plus three
    resynthesized variants from its reference [13]).  Those netlists are
    not redistributable data we have offline, so each table row is backed
    by a seeded synthetic look-alike of roughly the same input/gate scale
    with at least 1000 paths (see DESIGN.md, substitutions).  [s27] and
    [c17] are the genuine embedded netlists. *)

type t = {
  name : string;  (** paper row name, e.g. ["s1423"] or ["s1423*"] *)
  description : string;
  circuit : Pdf_circuit.Circuit.t Lazy.t;
}

val all : t list
(** Every profile, table rows first. *)

val table_rows : t list
(** The eight circuits of paper Tables 3-5 and 7, in paper order. *)

val star_rows : t list
(** The three resynthesized-circuit stand-ins of paper Table 6. *)

val enrichment_rows : t list
(** The eleven rows of paper Table 6 (adds the resynthesized stand-ins). *)

val find : string -> t option

val circuit : t -> Pdf_circuit.Circuit.t
