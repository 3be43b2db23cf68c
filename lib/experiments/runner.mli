(** One-stop experiment execution for a circuit profile.

    Builds the target sets once, runs the basic procedure under every
    compaction heuristic, fault-simulates [P0 u P1] under each basic test
    set (Table 5), and runs the enrichment procedure — everything Tables
    3 through 7 need for one row. *)

type basic_run = {
  ordering : Pdf_core.Ordering.t;
  p0_detected : int;
  tests : int;
  p_detected : int;  (** of [P0 u P1], by fault simulation (Table 5) *)
  runtime_s : float;
}

type circuit_run = {
  profile : Pdf_synth.Profiles.t;
  scale : Workload.scale;
  i0 : int;
  cutoff_length : int;
  p_total : int;
  p0_total : int;
  histogram : Pdf_paths.Histogram.t;
  basics : basic_run list;  (** in {!Pdf_core.Ordering.all} order *)
  enrich_p0_detected : int;
  enrich_p_detected : int;
  enrich_tests : int;
  enrich_runtime_s : float;
  enrich_aborts : int;
}

val set_enrich_gauges :
  Pdf_core.Atpg.result -> p0:int list -> p1:int list -> unit
(** Set the gauges [enrich.p0_detected], [enrich.p1_detected],
    [enrich.p_detected] and [enrich.tests] from an enrichment run over
    the fault ids [p0] and [p1]: what {!run}, [pdfatpg trace] and the
    [enrich] answer report. *)

val run :
  ?pool:Pdf_par.Pool.t ->
  ?seed:int ->
  ?with_basics:bool ->
  Workload.scale ->
  Pdf_synth.Profiles.t ->
  circuit_run
(** [run scale profile].  [with_basics] defaults to [true]; the
    resynthesized Table 6 rows only need the enrichment run (the basic
    fields are then zero/empty except the value-based run used for the
    run-time ratio).

    The basic runs under the different orderings are independent (each
    seeds its own RNG from [seed]) and execute on [pool] (default:
    {!Pdf_par.Pool.default}) — results are identical to the sequential
    run whatever the pool's job count. *)

val ratio : circuit_run -> float option
(** Table 7: enrichment run time over basic (value-based) run time.
    [None] when the value-based basic run is absent or took no
    measurable time — renderers print "n/a" instead of a NaN. *)
