(* Statistical benchmarking core (Pdf_obs.Bstat), the unified benchmark
   report (Pdf_experiments.Benchmark), the suites' gates and the
   per-domain allocation accounting contract of Pdf_obs.Span. *)

module Bstat = Pdf_obs.Bstat
module Json_text = Pdf_obs.Json_text
module Fingerprint = Pdf_obs.Fingerprint
module Span = Pdf_obs.Span
module Benchmark = Pdf_experiments.Benchmark
module Profiles = Pdf_synth.Profiles

let qcheck = QCheck_alcotest.to_alcotest
let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected got =
  if not (feq ?eps expected got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected got

(* ---------------- Bstat: quantiles and summaries ---------------- *)

let test_quantile () =
  let v = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Bstat.quantile v 0.5);
  check_float "q1" 2. (Bstat.quantile v 0.25);
  check_float "q3" 4. (Bstat.quantile v 0.75);
  check_float "min" 1. (Bstat.quantile v 0.);
  check_float "max" 5. (Bstat.quantile v 1.);
  (* Linear interpolation between order statistics. *)
  check_float "interpolated" 1.5 (Bstat.quantile [| 1.; 2. |] 0.5);
  check_float "singleton" 7. (Bstat.quantile [| 7. |] 0.9)

let test_summarize_known () =
  let s = Bstat.summarize [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check int) "n_raw" 5 s.Bstat.n_raw;
  Alcotest.(check int) "outliers" 0 s.Bstat.outliers;
  check_float "median" 3. s.Bstat.median_s;
  check_float "mean" 3. s.Bstat.mean_s;
  check_float "min" 1. s.Bstat.min_s;
  check_float "max" 5. s.Bstat.max_s;
  check_float "q1" 2. s.Bstat.q1_s;
  check_float "q3" 4. s.Bstat.q3_s;
  check_float "iqr" 2. s.Bstat.iqr_s;
  check_float "stddev" (sqrt 2.) s.Bstat.stddev_s

let test_summarize_rejects_outlier () =
  (* Fences on the raw vector: q1 = 2, q3 = 4, so the upper Tukey fence
     is 4 + 1.5*2 = 7 and the 100 sample is rejected; the remaining
     statistics are computed on [1;2;3;4]. *)
  let s = Bstat.summarize [| 1.; 2.; 3.; 4.; 100. |] in
  Alcotest.(check int) "outliers" 1 s.Bstat.outliers;
  check_float "median after rejection" 2.5 s.Bstat.median_s;
  check_float "max after rejection" 4. s.Bstat.max_s

let test_summarize_constant () =
  let s = Bstat.summarize (Array.make 6 0.25) in
  Alcotest.(check int) "outliers" 0 s.Bstat.outliers;
  check_float "median" 0.25 s.Bstat.median_s;
  check_float "iqr" 0. s.Bstat.iqr_s;
  check_float "noise" 0. (Bstat.noise_pct s)

let test_summarize_does_not_mutate () =
  let v = [| 3.; 1.; 2. |] in
  ignore (Bstat.summarize v : Bstat.summary);
  Alcotest.(check bool) "input untouched" true (v = [| 3.; 1.; 2. |])

let test_summarize_empty () =
  Alcotest.check_raises "empty vector"
    (Invalid_argument "Bstat.summarize: empty sample vector") (fun () ->
      ignore (Bstat.summarize [||] : Bstat.summary))

(* ---------------- Bstat: measurement ---------------- *)

let test_measure_shape () =
  let runs = ref 0 in
  let m = Bstat.measure ~warmup:2 ~repeat:4 ~min_sample_s:0. (fun () -> incr runs) in
  Alcotest.(check int) "samples" 4 (Array.length m.Bstat.samples);
  Alcotest.(check int) "iters (no calibration)" 1 m.Bstat.iters;
  (* warmup + repeat * iters executions *)
  Alcotest.(check int) "executions" 6 !runs;
  Array.iter
    (fun s -> Alcotest.(check bool) "sample >= 0" true (s >= 0.))
    m.Bstat.samples;
  Alcotest.(check bool) "gc counters >= 0" true
    (m.Bstat.gc.Bstat.minor_collections >= 0
    && m.Bstat.gc.Bstat.major_collections >= 0
    && m.Bstat.gc.Bstat.promoted_words >= 0.
    && m.Bstat.gc.Bstat.top_heap_words > 0)

let test_measure_calibrates () =
  (* A near-instant thunk must get a calibrated inner loop well above
     one iteration when a minimum sample duration is requested. *)
  let m = Bstat.measure ~warmup:0 ~repeat:2 ~min_sample_s:0.001 (fun () -> ()) in
  Alcotest.(check bool) "iters > 1" true (m.Bstat.iters > 1)

let test_measure_validates () =
  Alcotest.check_raises "repeat < 1"
    (Invalid_argument "Bstat.measure: repeat < 1") (fun () ->
      ignore (Bstat.measure ~repeat:0 (fun () -> ()) : Bstat.measurement))

(* ---------------- Bstat: comparator ---------------- *)

let summary_of samples = Bstat.summarize samples

let test_compare_identical_is_same () =
  let s = summary_of [| 1.0; 1.1; 0.9; 1.05; 0.95 |] in
  (match Bstat.compare_medians ~baseline:s ~current:s () with
  | Bstat.Same -> ()
  | v -> Alcotest.failf "expected same, got %s" (Bstat.verdict_to_string v));
  match
    Bstat.compare_medians ~min_effect_pct:0. ~baseline:s ~current:s ()
  with
  | Bstat.Same -> ()
  | v ->
    Alcotest.failf "expected same at zero effect floor, got %s"
      (Bstat.verdict_to_string v)

let test_compare_shift_is_directional () =
  let base = summary_of [| 1.0; 1.01; 0.99; 1.0; 1.0 |] in
  let slower = summary_of [| 2.0; 2.02; 1.98; 2.0; 2.0 |] in
  (match Bstat.compare_medians ~baseline:base ~current:slower () with
  | Bstat.Slower pct -> check_float ~eps:1e-6 "slowdown pct" 100. pct
  | v -> Alcotest.failf "expected slower, got %s" (Bstat.verdict_to_string v));
  match Bstat.compare_medians ~baseline:slower ~current:base () with
  | Bstat.Faster pct -> check_float ~eps:1e-6 "speedup pct" 50. pct
  | v -> Alcotest.failf "expected faster, got %s" (Bstat.verdict_to_string v)

let test_compare_noise_band_suppresses () =
  (* A 20% shift inside a 50% noise band is not a verdict; the same
     shift on quiet samples is. *)
  let noisy = summary_of [| 1.0; 0.75; 1.25; 0.8; 1.2 |] in
  Alcotest.(check bool) "setup: really noisy" true
    (Bstat.noise_pct noisy > 20.);
  let shifted =
    summary_of (Array.map (fun s -> s *. 1.2) [| 1.0; 0.75; 1.25; 0.8; 1.2 |])
  in
  (match Bstat.compare_medians ~baseline:noisy ~current:shifted () with
  | Bstat.Same -> ()
  | v ->
    Alcotest.failf "noise should suppress the verdict, got %s"
      (Bstat.verdict_to_string v));
  let quiet = summary_of [| 1.0; 1.001; 0.999; 1.0; 1.0 |] in
  let quiet_shifted =
    summary_of (Array.map (fun s -> s *. 1.2) [| 1.0; 1.001; 0.999; 1.0; 1.0 |])
  in
  match Bstat.compare_medians ~baseline:quiet ~current:quiet_shifted () with
  | Bstat.Slower _ -> ()
  | v ->
    Alcotest.failf "quiet shift must be a verdict, got %s"
      (Bstat.verdict_to_string v)

let test_compare_zero_baseline () =
  let zero = summary_of [| 0.; 0.; 0. |] in
  let nonzero = summary_of [| 1.; 1.; 1. |] in
  match Bstat.compare_medians ~baseline:zero ~current:nonzero () with
  | Bstat.Same -> ()
  | v -> Alcotest.failf "zero baseline, got %s" (Bstat.verdict_to_string v)

let positive_samples =
  QCheck.(
    map
      (fun (hd, tl) -> Array.of_list (List.map abs_float (hd :: tl)))
      (pair (float_bound_exclusive 1.0) (small_list (float_bound_exclusive 1.0))))

let prop_same_sample_no_change =
  QCheck.Test.make ~name:"same sample set compares as same" ~count:200
    positive_samples (fun samples ->
      let s = Bstat.summarize samples in
      Bstat.compare_medians ~baseline:s ~current:s () = Bstat.Same)

let prop_large_shift_is_regression =
  QCheck.Test.make ~name:"10x shift on any sample set is a regression"
    ~count:200 positive_samples (fun samples ->
      let base = Bstat.summarize samples in
      QCheck.assume (base.Bstat.median_s > 0.);
      (* Scaling every sample by 10 scales median and IQR together, so
         noise_pct is unchanged and an 900% shift clears any band the
         generator can produce only when noise < 900%. *)
      QCheck.assume (Bstat.noise_pct base < 900.);
      let cur = Bstat.summarize (Array.map (fun s -> s *. 10.) samples) in
      match Bstat.compare_medians ~baseline:base ~current:cur () with
      | Bstat.Slower _ -> true
      | _ -> false)

(* ---------------- Benchmark: schema and determinism ---------------- *)

(* The suites [pdfatpg bench] runs and lists. *)
let suite_named name =
  List.find (fun s -> s.Benchmark.suite_name = name) Pdf_serve.Serve_suite.all

let tiny_params =
  {
    Benchmark.circuits = [ Option.get (Profiles.find "s27") ];
    n_tests = 8;
    n_p = 20;
    n_p0 = 5;
    seed = 7;
  }

let run_tiny () =
  let suite = suite_named "paths" in
  Benchmark.run_suite ~warmup:0 ~repeat:2 ~min_sample_s:0. ~params:tiny_params
    suite

let parse_exn text =
  match Json_text.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "report does not parse: %s" msg

let member_exn name v =
  match Json_text.member name v with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

let test_report_schema () =
  let report = run_tiny () in
  let json = parse_exn (Benchmark.to_json report) in
  (match member_exn "schema" json with
  | Json_text.Str "pdf-bench-report/1" -> ()
  | _ -> Alcotest.fail "schema id");
  let fp = member_exn "fingerprint" json in
  List.iter
    (fun field -> ignore (member_exn field fp : Json_text.v))
    [
      "version"; "git_rev"; "git_dirty"; "ocaml_version"; "hostname";
      "os_type"; "word_size"; "jobs";
    ];
  let cases =
    match member_exn "cases" json with
    | Json_text.Arr cases -> cases
    | _ -> Alcotest.fail "cases must be an array"
  in
  Alcotest.(check bool) "has cases" true (cases <> []);
  List.iter
    (fun case ->
      let gc = member_exn "gc" case in
      List.iter
        (fun field -> ignore (member_exn field gc : Json_text.v))
        [
          "minor_collections"; "major_collections"; "promoted_words";
          "top_heap_words";
        ];
      ignore (member_exn "throughput" case : Json_text.v);
      ignore (member_exn "median_s" case : Json_text.v);
      ignore (member_exn "samples" case : Json_text.v))
    cases

let test_report_determinism () =
  (* Two runs of the same suite on the same tree must agree on
     everything but timing: stripping the timing-derived fields leaves
     identical documents. *)
  let a = parse_exn (Benchmark.to_json (run_tiny ())) in
  let b = parse_exn (Benchmark.to_json (run_tiny ())) in
  Alcotest.(check bool) "timing fields differ between runs" true (a <> b);
  Alcotest.(check bool) "comparable projections identical" true
    (Benchmark.comparable_projection a = Benchmark.comparable_projection b)

let test_compare_with_baseline_self () =
  let report = run_tiny () in
  let baseline = parse_exn (Benchmark.to_json report) in
  match Benchmark.compare_with_baseline ~max_regress_pct:5. ~baseline report with
  | Error msg -> Alcotest.fail msg
  | Ok cmp ->
    Alcotest.(check int) "all cases matched"
      (List.length report.Benchmark.results)
      (List.length cmp.Benchmark.deltas);
    Alcotest.(check (list string)) "baseline-only" [] cmp.Benchmark.only_in_baseline;
    Alcotest.(check (list string)) "current-only" [] cmp.Benchmark.only_in_current;
    Alcotest.(check int) "no regressions" 0 (List.length cmp.Benchmark.regressions)

let test_compare_with_baseline_regression () =
  let report = run_tiny () in
  (* A baseline that claims every case used to run 10x faster, with no
     noise: the fresh run must regress on every case. *)
  let fast =
    {
      report with
      Benchmark.results =
        List.map
          (fun r ->
            {
              r with
              Benchmark.r_stats =
                {
                  r.Benchmark.r_stats with
                  Bstat.median_s = r.Benchmark.r_stats.Bstat.median_s /. 10.;
                  min_s = r.Benchmark.r_stats.Bstat.min_s /. 10.;
                  iqr_s = 0.;
                };
            })
          report.Benchmark.results;
    }
  in
  let baseline = parse_exn (Benchmark.to_json fast) in
  match Benchmark.compare_with_baseline ~max_regress_pct:5. ~baseline report with
  | Error msg -> Alcotest.fail msg
  | Ok cmp ->
    Alcotest.(check int) "every case regresses"
      (List.length report.Benchmark.results)
      (List.length cmp.Benchmark.regressions)

let test_compare_rejects_garbage () =
  let report = run_tiny () in
  match
    Benchmark.compare_with_baseline ~max_regress_pct:5.
      ~baseline:(parse_exn "{\"schema\": \"something-else\"}")
      report
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a schema-less baseline must be rejected"

let test_fingerprint () =
  let fp = Fingerprint.capture ~jobs:3 () in
  Alcotest.(check int) "jobs" 3 fp.Fingerprint.jobs;
  Alcotest.(check bool) "word size" true
    (fp.Fingerprint.word_size = Sys.word_size);
  Alcotest.(check string) "ocaml version" Sys.ocaml_version
    fp.Fingerprint.ocaml_version;
  let line = Fingerprint.summary_line fp in
  Alcotest.(check bool) "summary mentions the version" true
    (String.length line >= String.length Fingerprint.version);
  let json = parse_exn (Fingerprint.to_json fp) in
  match Json_text.member "jobs" json with
  | Some (Json_text.Num 3.) -> ()
  | _ -> Alcotest.fail "fingerprint json jobs"

(* ---------------- Suite gates ---------------- *)

(* A synthetic measured case whose one sample is [seconds]: its median
   and its best sample both read [seconds]. *)
let result ?(units = []) name seconds =
  let samples = [| seconds |] in
  {
    Benchmark.r_case = name;
    r_units = units;
    r_meas =
      {
        Bstat.samples;
        iters = 1;
        gc =
          {
            Bstat.minor_collections = 0;
            major_collections = 0;
            promoted_words = 0.;
            top_heap_words = 0;
          };
      };
    r_stats = Bstat.summarize samples;
  }

(* The gate's failures must name exactly the rules in [expect] (each a
   substring of one failure line), in order. *)
let check_gate suite what ~expect results =
  let failures = (suite_named suite).Benchmark.gate results in
  let matches =
    List.length failures = List.length expect
    && List.for_all2
         (fun want got ->
           let n = String.length want in
           let rec at i =
             i + n <= String.length got
             && (String.sub got i n = want || at (i + 1))
           in
           at 0)
         expect failures
  in
  if not matches then
    Alcotest.failf "%s gate, %s: expected [%s], got [%s]" suite what
      (String.concat "; " expect) (String.concat "; " failures)

let test_obs_overhead_gate () =
  (* Best Null-sink run 1 s; a Null-sink span costs 2e-8 s and a bump
     1e-9 s, so 1e6 spans or 2e7 bumps are 2% each. *)
  let results ~spans ~bumps =
    [
      result "b09/atpg_null_sink" 1.0 ~units:[ ("spans", spans) ];
      result "b09/atpg_trace_sink" 1.5 ~units:[ ("spans", spans) ];
      result "span_site/plain" 1e-8;
      result "span_site/null_wrapped" 3e-8;
      result "b09/atpg_attrib_on" 1.2 ~units:[ ("events", bumps) ];
      result "attrib_site/plain" 1e-9;
      result "attrib_site/bump" 2e-9;
    ]
  in
  check_gate "obs_overhead" "both below 2%" ~expect:[]
    (results ~spans:0.75e6 ~bumps:1.5e7);
  check_gate "obs_overhead" "span model at 2.5%"
    ~expect:[ "span model (b09): modelled overhead 2.5000%" ]
    (results ~spans:1.25e6 ~bumps:1.5e7);
  check_gate "obs_overhead" "attribution model at 2.5%"
    ~expect:[ "attribution model (b09): modelled overhead 2.5000%" ]
    (results ~spans:0.75e6 ~bumps:2.5e7)

let test_serve_gate () =
  let results ~cold =
    [
      result "b09/cold_session" cold ~units:[ ("requests", 1.) ];
      result "b09/warm_answer" 1.0 ~units:[ ("requests", 1.) ];
      result "b09/warm_analysis" 2.0 ~units:[ ("requests", 1.) ];
    ]
  in
  check_gate "serve" "5x" ~expect:[] (results ~cold:5.0);
  check_gate "serve" "4.9x"
    ~expect:[ "warm-vs-cold speedup (b09): 4.90x < 5x" ]
    (results ~cold:4.9)

let test_justify_gate () =
  let results ?(drop = "") ~portfolio ~per_trial ~per_decision () =
    List.filter
      (fun r -> r.Benchmark.r_case <> drop)
      [
        result "b09/simulation" 0.1
          ~units:
            [ ("runs", 20.); ("aborts", 0.); ("words_per_trial", per_trial) ];
        result "b09/complete" 0.1 ~units:[ ("runs", 10.) ];
        result "b09/podem" 0.1
          ~units:
            [
              ("runs", 10.); ("aborts", 0.);
              ("words_per_decision", per_decision);
            ];
        result "b09/portfolio" 0.1 ~units:[ ("runs", 10.); ("aborts", 0.) ];
        result "deep/sim" 0.1 ~units:[ ("faults", 80.); ("aborts", 2.) ];
        result "deep/podem" 0.1 ~units:[ ("faults", 80.); ("aborts", 0.) ];
        result "deep/portfolio" 0.1
          ~units:[ ("faults", 80.); ("aborts", portfolio) ];
      ]
  in
  check_gate "justify" "every rule held" ~expect:[]
    (results ~portfolio:2. ~per_trial:15.9 ~per_decision:39.9 ());
  check_gate "justify" "portfolio aborts above sim's"
    ~expect:[ "escalation: deep/portfolio aborts 3 > deep/sim aborts 2" ]
    (results ~portfolio:3. ~per_trial:15.9 ~per_decision:39.9 ());
  check_gate "justify" "words_per_trial 16"
    ~expect:[ "allocation: b09/simulation words_per_trial 16.00 >= 16" ]
    (results ~portfolio:2. ~per_trial:16. ~per_decision:39.9 ());
  check_gate "justify" "words_per_decision 40"
    ~expect:[ "allocation: b09/podem words_per_decision 40.00 >= 40" ]
    (results ~portfolio:2. ~per_trial:15.9 ~per_decision:40. ());
  check_gate "justify" "deep/podem missing"
    ~expect:[ "presence: case deep/podem missing" ]
    (results ~drop:"deep/podem" ~portfolio:2. ~per_trial:15.9
       ~per_decision:39.9 ())

let test_fault_sim_gate () =
  let results ~mask_words =
    [
      result "b09/detect_matrix" 1e-4
        ~units:[ ("faults", 12.); ("tests", 126.); ("mask_words", 0.) ];
      result "s641/detect_matrix" 1e-4
        ~units:[ ("faults", 240.); ("tests", 126.); ("mask_words", mask_words) ];
      result "s641/detect_matrix_scalar" 1e-2 ~units:[ ("faults", 240.) ];
    ]
  in
  check_gate "fault_sim" "mask pass allocates nothing" ~expect:[]
    (results ~mask_words:0.);
  check_gate "fault_sim" "mask pass allocates a word"
    ~expect:[ "allocation: s641/detect_matrix mask_words 1 > 0" ]
    (results ~mask_words:1.)

let test_paths_gate () =
  let results ?(drop = "") ~kept ~assignments () =
    List.filter
      (fun r -> r.Benchmark.r_case <> drop)
      [
        result "b09/enumerate" 1e-3 ~units:[ ("paths", 399.) ];
        result "b09/undetectable" 1e-3
          ~units:
            [ ("faults", 798.); ("kept", kept); ("assignments", assignments) ];
        result "b09/undetectable_per_fault" 2e-3
          ~units:[ ("faults", 798.); ("kept", 49.); ("assignments", 64544.) ];
      ]
  in
  check_gate "paths" "same faults, fewer assignments" ~expect:[]
    (results ~kept:49. ~assignments:13658. ());
  check_gate "paths" "as many assignments" ~expect:[]
    (results ~kept:49. ~assignments:64544. ());
  check_gate "paths" "another kept count"
    ~expect:[ "kept: b09/undetectable kept 50, b09/undetectable_per_fault 49" ]
    (results ~kept:50. ~assignments:13658. ());
  check_gate "paths" "more assignments"
    ~expect:
      [
        "sharing: b09/undetectable assignments 64545, \
         b09/undetectable_per_fault 64544";
      ]
    (results ~kept:49. ~assignments:64545. ());
  check_gate "paths" "reference missing"
    ~expect:[ "presence: case b09/undetectable_per_fault missing" ]
    (results ~drop:"b09/undetectable_per_fault" ~kept:49.
       ~assignments:13658. ())

let test_suite_names () =
  let names s = List.map (fun s -> s.Benchmark.suite_name) s in
  let all = names Pdf_serve.Serve_suite.all in
  Alcotest.(check (list string))
    "bench --list's suites"
    [ "fault_sim"; "atpg"; "paths"; "justify"; "kernels"; "obs_overhead";
      "serve" ]
    all;
  Alcotest.(check (list string))
    "the library's suites, then serve"
    (names (Benchmark.suites @ [ Pdf_serve.Serve_suite.suite ]))
    all;
  Alcotest.(check int) "names unique" (List.length all)
    (List.length (List.sort_uniq String.compare all))

(* ---------------- Span: per-domain allocation accounting ---------------- *)

let test_span_alloc_is_self_domain () =
  (* A jobs:4 pool (submitter + 3 spawned workers) fans out three tasks
     that rendezvous on a start barrier — so they run on three distinct
     domains — and then allocate ~10M words each, but only when running
     on a spawned worker (rank > 0; the submitter drains the queue too,
     and its own allocation legitimately belongs to the span).  At least
     two tasks therefore allocate ~10M words each on foreign domains.
     The enclosing span must account the submitting domain's own
     allocation only: with the old Gc.quick_stat accounting it would be
     charged the workers' >= 20M words. *)
  let worker_words = 10_000_000 in
  let captured = ref None in
  let old_sink = Span.sink () in
  Span.set_sink (Span.Emit (fun r -> captured := Some r));
  Fun.protect
    ~finally:(fun () -> Span.set_sink old_sink)
    (fun () ->
      let started = Atomic.make 0 in
      let foreign =
        Pdf_par.Pool.with_pool ~jobs:4 (fun pool ->
            Span.with_ "fanout" (fun () ->
                Pdf_par.Pool.map pool
                  (fun _ ->
                    Atomic.incr started;
                    while Atomic.get started < 3 do
                      Domain.cpu_relax ()
                    done;
                    if Pdf_par.Pool.worker_rank () = 0 then 0
                    else begin
                      let words = ref 0. in
                      let sink = ref [] in
                      while !words < float_of_int worker_words do
                        sink := (1, 2) :: !sink;
                        words := !words +. 3.;
                        if !words >= 3e6 then sink := []
                      done;
                      ignore (Sys.opaque_identity (List.length !sink));
                      1
                    end)
                  [ 1; 2; 3 ]))
      in
      Alcotest.(check bool) "at least two tasks ran on spawned workers" true
        (List.fold_left ( + ) 0 foreign >= 2));
  match !captured with
  | None -> Alcotest.fail "span record not emitted"
  | Some r ->
    Alcotest.(check bool) "alloc clamped at zero" true (r.Span.alloc_words >= 0.);
    (* Self-domain only: far below the >= 20M words the workers
       allocated.  The submitting domain still allocates a little
       (closures, the result list), so allow a million-word slack. *)
    Alcotest.(check bool)
      (Printf.sprintf "self-domain accounting (got %.0f words)"
         r.Span.alloc_words)
      true
      (r.Span.alloc_words < 1_000_000.)

let () =
  Alcotest.run "pdf_bench"
    [
      ( "bstat-summary",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "known distribution" `Quick test_summarize_known;
          Alcotest.test_case "outlier rejection" `Quick
            test_summarize_rejects_outlier;
          Alcotest.test_case "constant samples" `Quick test_summarize_constant;
          Alcotest.test_case "input not mutated" `Quick
            test_summarize_does_not_mutate;
          Alcotest.test_case "empty vector" `Quick test_summarize_empty;
        ] );
      ( "bstat-measure",
        [
          Alcotest.test_case "shape" `Quick test_measure_shape;
          Alcotest.test_case "calibration" `Quick test_measure_calibrates;
          Alcotest.test_case "validation" `Quick test_measure_validates;
        ] );
      ( "bstat-compare",
        [
          Alcotest.test_case "identical is same" `Quick
            test_compare_identical_is_same;
          Alcotest.test_case "directional shift" `Quick
            test_compare_shift_is_directional;
          Alcotest.test_case "noise band suppresses" `Quick
            test_compare_noise_band_suppresses;
          Alcotest.test_case "zero baseline" `Quick test_compare_zero_baseline;
          qcheck prop_same_sample_no_change;
          qcheck prop_large_shift_is_regression;
        ] );
      ( "report",
        [
          Alcotest.test_case "unified schema fields" `Quick test_report_schema;
          Alcotest.test_case "determinism modulo timing" `Quick
            test_report_determinism;
          Alcotest.test_case "self-compare is clean" `Quick
            test_compare_with_baseline_self;
          Alcotest.test_case "regression detected" `Quick
            test_compare_with_baseline_regression;
          Alcotest.test_case "garbage baseline rejected" `Quick
            test_compare_rejects_garbage;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
        ] );
      ( "gates",
        [
          Alcotest.test_case "obs_overhead" `Quick test_obs_overhead_gate;
          Alcotest.test_case "serve" `Quick test_serve_gate;
          Alcotest.test_case "justify" `Quick test_justify_gate;
          Alcotest.test_case "fault_sim" `Quick test_fault_sim_gate;
          Alcotest.test_case "paths" `Quick test_paths_gate;
          Alcotest.test_case "suite names" `Quick test_suite_names;
        ] );
      ( "span-alloc",
        [
          Alcotest.test_case "3-domain pool, self-domain accounting" `Quick
            test_span_alloc_is_self_domain;
        ] );
    ]
