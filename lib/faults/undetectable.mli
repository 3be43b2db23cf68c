(** Elimination of undetectable path delay faults (paper, Section 3.1).

    Two sound filters are applied:
    + {b Direct conflict}: [A(p)] pins a line to two different values.
    + {b Implication conflict}: propagating the values of [A(p)] through
      the circuit (forward and backward) assigns conflicting values to
      some line.

    Both only remove provably undetectable faults; faults that survive may
    still turn out untestable during test generation. *)

type verdict =
  | Maybe_detectable
  | Direct_conflict
  | Implication_conflict of { net : int; component : int }

val classify :
  ?criterion:Robust.criterion -> Pdf_circuit.Circuit.t -> Fault.t -> verdict
(** Default criterion is {!Robust.Robust}. *)

type stats = {
  kept : int;
  direct_conflicts : int;
  implication_conflicts : int;
}

val filter :
  ?criterion:Robust.criterion ->
  ?ledger:Pdf_obs.Ledger.t ->
  Pdf_circuit.Circuit.t ->
  Fault.t list ->
  Fault.t list * stats
(** Keep only faults classified {!Maybe_detectable}, preserving order.
    When [ledger] is given, one ["undetectable"] record is appended per
    eliminated fault, in input order (its name, conflict class, and for
    implication conflicts the conflicting net and pattern component) —
    the disposition side of [pdfatpg explain] (DESIGN.md §9).

    Faults whose paths end alike share the implication work of their
    common conditions (DESIGN.md §5.2): the kept list, the stats and the
    records are those of {!per_fault}.  The implication assignments it
    makes, those locating the ledger's conflicts included, are added to
    the counter [undetectable.assignments]. *)

val per_fault :
  ?criterion:Robust.criterion ->
  ?ledger:Pdf_obs.Ledger.t ->
  Pdf_circuit.Circuit.t ->
  Fault.t list ->
  Fault.t list * stats
(** The reference {!filter} is checked against: {!classify} of each
    fault in turn, from an empty implication state.  Adds its
    assignments to [undetectable.assignments] too. *)

val assignments : unit -> int
(** The [undetectable.assignments] counter: implication assignments made
    by {!filter} and {!per_fault} in this process so far. *)
