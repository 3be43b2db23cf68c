(** Unified benchmark harness (DESIGN.md §11).

    One report type, one JSON schema, one measurement discipline for
    every [BENCH_*.json] the repository emits.  Workloads are grouped
    into named {e suites} ([fault_sim], [atpg], [paths], [justify],
    [kernels], [obs_overhead]; [Pdf_serve.Serve_suite] adds [serve]);
    each suite expands a {!params} record into timed {!case}s, every
    case is measured by {!Pdf_obs.Bstat.measure} (warmup, calibrated
    inner loop, N repetitions, GC telemetry) and summarised with IQR
    outlier rejection, and the per-case medians and throughputs are
    pushed into the {!Pdf_obs.Metrics} registry as gauges so
    [--metrics-out]/[--prom-out] export them alongside the pipeline
    counters.  Each suite's {!suite.gate} holds the pass/fail rules on
    its own report, so [pdfatpg bench] applies them the same way
    locally and in CI.

    A report can be compared against a previously written baseline
    report ({!compare_with_baseline}): the comparison uses the
    noise-aware {!Pdf_obs.Bstat.compare_medians} verdict, which is what
    the CI regression gate ([pdfatpg bench --compare --max-regress])
    exits non-zero on. *)

(** Workload sizing shared by the suites.  Every figure is deterministic
    (seeded); only wall-clock and GC readings vary between runs. *)
type params = {
  circuits : Pdf_synth.Profiles.t list;
      (** circuits to expand per-circuit cases over *)
  n_tests : int;  (** random two-pattern tests for simulation workloads *)
  n_p : int;  (** enumeration budget [N_P] *)
  n_p0 : int;  (** primary-set threshold [N_P0] *)
  seed : int;
}

val default_params : params
(** [circuits = [b03; b09; s641]], [n_tests = 126], [n_p = 400],
    [n_p0 = 80], [seed = 2002] — the smoke tier: seconds, not minutes. *)

val profiles_of_spec : string -> (Pdf_synth.Profiles.t list, string) result
(** Parse a comma-separated profile-name list ([pdfatpg bench]'s
    [--circuits] syntax).  [""] selects {!default_params}' circuits. *)

(** One timed workload.  [units] names the work one execution performs
    (e.g. [("faults", 377.)]); each entry becomes a
    [<unit>_per_s] throughput figure. *)
type case = {
  case_name : string;  (** e.g. ["b09/detect_matrix"] *)
  units : (string * float) list;
  thunk : unit -> unit;
}

(** One measured case. *)
type result = {
  r_case : string;
  r_units : (string * float) list;
  r_meas : Pdf_obs.Bstat.measurement;
  r_stats : Pdf_obs.Bstat.summary;
}

type suite = {
  suite_name : string;
  suite_doc : string;
  cases : params -> case list;
      (** the set-up: runs once, before any case is measured; may raise
          [Failure] — the [fault_sim] suite hard-fails when
          [detect_matrix] disagrees with per-test scalar rows *)
  gate : result list -> string list;
      (** run once on the measured cases; each string is one failed
          rule, naming the rule, the measured figure and its threshold
          ([[]]: the report passes).  [fault_sim] requires each
          [*/detect_matrix] case's [mask_words] unit — the words one
          [Wreq.satisfied_mask] pass over every fault allocates,
          measured at set-up — to be 0; [justify] requires the three
          [deep/*] cases, [deep/portfolio] aborts at most [deep/sim]'s,
          [words_per_trial] below 16 and [words_per_decision] below 40;
          [obs_overhead] holds each overhead model at most 2%; [paths]
          requires each [*/undetectable] case's [kept] unit to equal,
          and its [assignments] unit to be at most, those of the
          [*/undetectable_per_fault] case beside it (both measured at
          set-up); the other suites here have no rule. *)
}

val suites : suite list
(** [fault_sim], [atpg], [paths], [justify], [kernels] and
    [obs_overhead], in that order. *)

val find_result : result list -> string -> result option
(** The result of the named case. *)

val require : result list -> string list -> string list
(** One gate failure per named case missing from the results. *)

val circuit_cases : result list -> kernel:string -> (string * result) list
(** The cases named [<circuit>/<kernel>], with their circuit. *)

val throughput : result -> (string * float) list
(** [("faults_per_s", units/median), ...]; empty when the median is 0. *)

type report = {
  suite : string;
  fingerprint : Pdf_obs.Fingerprint.t;
  warmup : int;
  repeat : int;
  min_sample_s : float;
  params : params;
  results : result list;
}

val run_suite :
  ?warmup:int ->
  ?repeat:int ->
  ?min_sample_s:float ->
  ?params:params ->
  ?progress:(string -> unit) ->
  suite ->
  report
(** Measure every case of the suite (defaults: [warmup = 1],
    [repeat = 5], [min_sample_s = 0.01], {!default_params}).  After each
    case the gauges [bench.<suite>.<case>.median_s],
    [....<unit>_per_s], [....minor_collections],
    [....major_collections] and [....promoted_words] are set in the
    default metrics registry.  [progress] receives one line per
    completed case. *)

val to_json : report -> string
(** The unified benchmark schema, [pdf-bench-report/1]:
    top-level [schema], [suite], [fingerprint] (see
    {!Pdf_obs.Fingerprint}), [config] (warmup/repeat/min_sample_s and
    the {!params}) and [cases]; each case carries its deterministic
    [units], the raw [samples]/[iters], the summary statistics, [gc]
    telemetry and derived [throughput]. *)

val write_report : report -> string -> unit

val to_table : report -> Pdf_util.Table.t
(** Human-readable per-case summary (median, noise, GC, throughput). *)

val comparable_projection : Pdf_obs.Json_text.v -> Pdf_obs.Json_text.v
(** Strip every timing-derived field ([samples], [iters], summary
    statistics, [gc], [throughput], [outliers]) from a parsed report,
    keeping the deterministic skeleton — two runs of the same suite on
    the same tree project to identical values (the determinism guard in
    [test/test_bench.ml]). *)

(** {2 Baseline comparison} *)

type delta = {
  d_case : string;
  base_median_s : float;
  cur_median_s : float;
  base_noise_pct : float;
  cur_noise_pct : float;
  verdict : Pdf_obs.Bstat.verdict;
}

type comparison = {
  deltas : delta list;  (** cases present on both sides, report order *)
  only_in_baseline : string list;
  only_in_current : string list;
  regressions : delta list;  (** deltas with a [Slower] verdict *)
}

val compare_with_baseline :
  max_regress_pct:float ->
  baseline:Pdf_obs.Json_text.v ->
  report ->
  (comparison, string) Stdlib.result
(** Compare a freshly measured report against a parsed baseline report
    (any file following the unified schema).  [max_regress_pct] is the
    comparator's minimum effect size: a case regresses only when its
    median slowdown exceeds both this threshold and the noise band of
    the two sample sets ({!Pdf_obs.Bstat.compare_medians}), {e and} the
    best-case sample ([min_s]) regresses beyond the threshold as well —
    transient machine load inflates medians but almost never every
    sample of a run, so a median-only slowdown is treated as
    between-run noise.  [Error] when the baseline does not carry the
    expected schema fields. *)

val comparison_table : comparison -> Pdf_util.Table.t
