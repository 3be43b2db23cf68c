(** The paper's qualitative claims under Tables 3-6, as predicates.

    EXPERIMENTS.md lists, under each of Tables 3-6, the claims the
    reproduction checks.  Each becomes one predicate here, evaluated per
    circuit on the {!Runner.circuit_run} records the tables are rendered
    from, with the margin EXPERIMENTS.md states beside the claim.  A
    claim that needs a run the record lacks — the four basic runs on
    the resynthesized Table 6 rows, or a non-empty [P1] — is not
    evaluated on that circuit.  [pdfatpg tables --check] runs the
    predicates under the justification backend [PDF_JUSTIFY] selects. *)

type claim = {
  id : string;  (** short name, e.g. ["fewer-tests"] *)
  table : string;  (** the table it is listed under *)
  statement : string;  (** the paper's claim *)
  margin : string;  (** the predicate, margin included *)
}

type verdict = {
  claim : claim;
  circuit : string;
  holds : bool;
  values : string;  (** the figures the predicate read *)
}

val claims : claim list
(** In table order. *)

val check : Runner.circuit_run list -> verdict list
(** Every claim on every run it applies to, claim-major, the runs in the
    list's order. *)

val render : backend:string -> verdict list -> string
(** One line per verdict, then a summary line; a violated claim's line
    names the claim, circuit, backend and values. *)
