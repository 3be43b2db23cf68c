(** Warm circuit sessions: the "parse + analyze once, answer many times"
    core of [pdfatpg serve] (DESIGN.md §12).

    A session owns a cache hierarchy over the read-only half of the
    pipeline:

    + {b compiled circuits} — parsing/levelizing a profile name or a
      [.bench]/[.v] netlist file, keyed by the circuit argument string;
    + {b analyses} — [Target_sets.build], then, on first use,
      {!Pdf_core.Job.of_sets} (the job's prepared [P]) or [P0] prepared
      alone (either warms the bounded {!Pdf_faults.Robust.conditions}
      cache), keyed by [(criterion, n_p, n_p0)] per circuit;
    + {b enrichment provenances} — one full ledgered enrichment run
      ({!Pdf_experiments.Provenance.build}), keyed by
      [(criterion, n_p, n_p0, seed)] per circuit, shared by the
      [explain], [report] and [ledger] queries;
    + {b answers} — the rendered answer text of every query, keyed by
      the query's canonical parameter string.

    Queries return exactly the bytes the batch CLI prints for the same
    subcommand and flags — the determinism contract (DESIGN.md §12.4)
    that makes answer caching sound and lets CI diff served output
    against the CLI.  Answer texts therefore never contain wall-clock
    readings.

    Sessions are not thread-safe by themselves; a single mutex
    serialises every public operation, matching the server's one
    request in flight at a time FIFO discipline.  Cache effectiveness
    is observable through the [serve.session.*] counters in
    {!Pdf_obs.Metrics} (compiles/analyses/enrichments/answers, each
    with a [_hits] twin). *)

type t
(** A session: the cache hierarchy above plus its mutex. *)

val create : unit -> t

(** Query parameters shared by every analysis-backed query: the
    enrichment job's ({!Pdf_core.Job.params}, whose {!Pdf_core.Job.default}
    the CLI and the protocol share).  [justify] keys the answer and
    provenance caches; the analysis cache is backend-independent. *)
type params = Pdf_core.Job.params = {
  n_p : int;
  n_p0 : int;
  seed : int;
  criterion : Pdf_faults.Robust.criterion;
  justify : Pdf_core.Justify.kind;
}

val set_default_justify : Pdf_core.Justify.kind -> unit
(** Set the server-wide default backend for requests that omit the
    protocol's ["justify"] field (the serve CLI's [--justify] flag). *)

val effective_default_justify : unit -> Pdf_core.Justify.kind
(** The default {!set_default_justify} installed, else
    {!Pdf_core.Justify.default_kind} (the [PDF_JUSTIFY] environment
    variable, else [Sim]). *)

(** Why a query could not be answered. *)
type error =
  | Unknown_circuit of string
      (** not a profile name or a parseable netlist file *)
  | No_match of string  (** an [explain] query matching no fault *)

val error_message : error -> string

(** One answered query. *)
type answer = {
  text : string;
      (** byte-identical to the batch CLI's stdout for this query *)
  tests : Pdf_core.Test_pair.t list;
      (** generated tests, for the CLI's [--dump-tests] ([[]] for
          queries that generate none) *)
  cached : bool;  (** answered from the warm answer cache *)
}

val resolve : string -> (Pdf_circuit.Circuit.t, string) result
(** Parse a circuit argument, uncached: a profile name (see
    {!Pdf_synth.Profiles}), else a [.v] file, else a [.bench] file.
    The error is the message the CLI prints.  Touches no cache and no
    counter; {!load} is its cached form. *)

val load : t -> string -> (Pdf_circuit.Circuit.t, error) result
(** Resolve and cache a circuit: a profile name (see
    {!Pdf_synth.Profiles}), else a [.v] file, else a [.bench] file.
    Each cache miss increments [serve.session.compiles]; hits increment
    [serve.session.compile_hits]. *)

val info : t -> circuit:string -> (answer, error) result
(** The [pdfatpg info] answer: name and structural statistics. *)

val atpg :
  ?ledger:Pdf_obs.Ledger.t ->
  t ->
  circuit:string ->
  params:params ->
  ordering:Pdf_core.Ordering.t ->
  relax:bool ->
  (answer, error) result
(** The [pdfatpg atpg] answer: basic generation over [P0] (plus the
    relaxation summary when [relax]).  When [ledger] is supplied the
    pipeline runs uncached with provenance recording (the CLI's
    [--ledger-out]); the cached path is only taken for ledger-free
    queries, so an audit run always witnesses the full pipeline. *)

val enrich :
  ?ledger:Pdf_obs.Ledger.t ->
  t ->
  circuit:string ->
  params:params ->
  coverage:bool ->
  (answer, error) result
(** The [pdfatpg enrich] answer (plus the per-length coverage
    comparison table when [coverage]).  [ledger] as in {!atpg}. *)

val explain :
  t -> circuit:string -> params:params -> query:string ->
  (answer, error) result
(** The [pdfatpg explain] answer for one fault query (an id or a fault
    name substring), served from the cached enrichment provenance. *)

val why :
  t -> circuit:string -> params:params -> query:string ->
  (answer, error) result
(** The [pdfatpg why] answer: {!explain} plus the per-fault effort
    breakdown and abort forensics (DESIGN.md §14).  Shares [explain]'s
    provenance cache and query forms, so served bytes equal the CLI's. *)

val report : t -> circuit:string -> params:params -> (answer, error) result
(** The [pdfatpg report] answer: disposition summary, abort/reject
    effort breakdown, per-test provenance and consistency check. *)

val ledger_jsonl :
  t -> circuit:string -> params:params -> (answer, error) result
(** The cached enrichment run's provenance ledger as JSONL —
    byte-identical to what [pdfatpg report --ledger-out] writes for the
    same circuit and parameters (the per-request audit log). *)

val provenance :
  t -> circuit:string -> params:params ->
  (Pdf_experiments.Provenance.t, error) result
(** The cached enrichment provenance itself, for callers that need the
    structured run (the CLI's [report --ledger-out] writes its
    ledger). *)
