(** Provenance-enabled enrichment runs: the engine behind
    [pdfatpg explain] and [pdfatpg report].

    {!build} runs the full enrichment pipeline (target-set selection,
    preparation, two-pool generation) with a {!Pdf_obs.Ledger} attached,
    so every enumerated fault ends with exactly one disposition —
    detected (by which test and via primary / folded / accidental),
    aborted, uncovered (with the last rejection reason), or eliminated
    as undetectable (with the conflict class).  The schema is documented
    in DESIGN.md §9. *)

type t = {
  circuit : Pdf_circuit.Circuit.t;
  target_sets : Pdf_faults.Target_sets.t;
  faults : Pdf_core.Fault_sim.prepared array;
  result : Pdf_core.Atpg.result;
  ledger : Pdf_obs.Ledger.t;
}

val build :
  ?criterion:Pdf_faults.Robust.criterion ->
  ?n_p:int ->
  ?n_p0:int ->
  ?seed:int ->
  ?justify:Pdf_core.Justify.kind ->
  Pdf_circuit.Circuit.t ->
  t
(** Defaults: robust criterion, [n_p = 2000], [n_p0 = 200],
    [Workload.default_seed], [justify] per {!Pdf_core.Justify.default_kind}.
    The attached ledger is deterministic: byte-identical across [--jobs]
    values (the portfolio backend included — its members run one after
    another on the caller's domain, in a fixed priority order). *)

val explain : t -> string -> (string, string) result
(** [explain t query] — a human-readable account of the matching
    fault(s): [query] is a fault id (integer) or a substring of a fault
    name.  [Error] when nothing matches. *)

val why : t -> string -> (string, string) result
(** [why t query] — {!explain} plus the per-fault effort breakdown
    (runs, trials, backtracks, semantic resim-gate total charged to the
    fault across every search that targeted it) and abort forensics
    (last conflicting net with its level, deepest conflict level) read
    from the ledger's extended ["fault"] records (DESIGN.md §14).
    Same query forms and [Error] behaviour as {!explain}. *)

val report : t -> string
(** Disposition summary, an abort/reject breakdown (per failure class:
    fault count, lower-median and max justification trials and
    resim-gate totals), a per-test provenance table, and a consistency
    line checking that every enumerated fault has exactly one
    disposition. *)
