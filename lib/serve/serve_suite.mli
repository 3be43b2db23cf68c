(** The [serve] benchmark suite (DESIGN.md §12.6): what a warm
    {!Session} saves over a cold one.  It lives here rather than in
    {!Pdf_experiments.Benchmark} because it needs {!Session}, which
    depends on [pdf_experiments].

    Per circuit, the same ATPG query (value-based ordering) is timed
    three ways, each case counting one ["requests"] unit:
    - [cold_session] — a fresh session per request, so parsing,
      levelization, target sets, fault preparation and the ATPG run are
      all paid per request (a batch CLI run, minus process start-up);
    - [warm_answer] — one shared session and the identical request,
      answered from the answer cache;
    - [warm_analysis] — the shared session with a fresh seed per
      request: the answer cache misses, the compiled circuit and the
      analysis are reused, so only the ATPG run is paid.

    The gate fails a circuit whose [warm_answer] median is less than 5x
    faster than its [cold_session] median. *)

val suite : Pdf_experiments.Benchmark.suite

val all : Pdf_experiments.Benchmark.suite list
(** Every suite [pdfatpg bench] runs and lists:
    {!Pdf_experiments.Benchmark.suites}, then {!suite}. *)
