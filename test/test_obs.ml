(* Tests for Pdf_obs: metrics registry semantics (counters, gauges,
   histograms, snapshot/reset, export), nested span tracing, and the
   determinism guard — instrumentation must not change ATPG results. *)

module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Metrics: counters                                                   *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  check Alcotest.int "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "incr + add" 5 (Metrics.value c)

let test_counter_get_or_create () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r "c" in
  Metrics.incr a;
  let b = Metrics.counter ~registry:r "c" in
  (* Same name resolves to the same counter instance. *)
  Metrics.incr b;
  check Alcotest.int "shared instance" 2 (Metrics.value a)

let test_counter_monotonic () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: counters are monotonic") (fun () ->
      Metrics.add c (-1))

let test_kind_clash () =
  let r = Metrics.create () in
  let _ = Metrics.counter ~registry:r "m" in
  (try
     ignore (Metrics.gauge ~registry:r "m");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Metrics: gauges and histograms                                      *)
(* ------------------------------------------------------------------ *)

let test_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "g" in
  check (Alcotest.float 0.) "zero" 0. (Metrics.gauge_value g);
  Metrics.set g 2.5;
  check (Alcotest.float 0.) "set" 2.5 (Metrics.gauge_value g);
  Metrics.set_int g 7;
  check (Alcotest.float 0.) "set_int" 7. (Metrics.gauge_value g)

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.; 2. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 5.0 ];
  match Metrics.snapshot ~registry:r () with
  | [ ("h", Metrics.Histogram_v d) ] ->
    check Alcotest.(array int) "bucket counts" [| 2; 1; 1 |] d.Metrics.counts;
    check Alcotest.int "total" 4 d.Metrics.total;
    check (Alcotest.float 1e-9) "sum" 8.0 d.Metrics.sum
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_histogram_validation () =
  let r = Metrics.create () in
  (try
     ignore (Metrics.histogram ~registry:r ~buckets:[| 2.; 1. |] "h");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let _ = Metrics.histogram ~registry:r ~buckets:[| 1.; 2. |] "h2" in
  (* Re-registration with different buckets is refused. *)
  (try
     ignore (Metrics.histogram ~registry:r ~buckets:[| 3. |] "h2");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Metrics: snapshot, reset, export                                    *)
(* ------------------------------------------------------------------ *)

let test_snapshot_sorted_and_reset () =
  let r = Metrics.create () in
  let b = Metrics.counter ~registry:r "b" in
  let a = Metrics.counter ~registry:r "a" in
  let g = Metrics.gauge ~registry:r "z" in
  Metrics.incr b;
  Metrics.incr a;
  Metrics.set g 3.;
  (match Metrics.snapshot ~registry:r () with
  | [ ("a", Metrics.Counter_v 1); ("b", Metrics.Counter_v 1);
      ("z", Metrics.Gauge_v 3.) ] ->
    ()
  | _ -> Alcotest.fail "snapshot not sorted or wrong values");
  Metrics.reset ~registry:r ();
  check Alcotest.int "counter reset" 0 (Metrics.value a);
  check (Alcotest.float 0.) "gauge reset" 0. (Metrics.gauge_value g);
  (* Registrations survive a reset. *)
  check Alcotest.int "still registered" 3
    (List.length (Metrics.snapshot ~registry:r ()))

let test_csv_export () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "runs" in
  Metrics.add c 42;
  let csv = Pdf_util.Csv.render (Metrics.to_csv ~registry:r ()) in
  check Alcotest.bool "header" true
    (String.length csv >= 25 && String.sub csv 0 25 = "metric,kind,value,detail\n");
  let contains_line l =
    List.mem l (String.split_on_char '\n' csv)
  in
  check Alcotest.bool "counter row" true (contains_line "runs,counter,42,")

let test_jsonl_export () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter ~registry:r "x") 7;
  Metrics.set (Metrics.gauge ~registry:r "y") 1.5;
  let path = Filename.temp_file "pdf_obs" ".jsonl" in
  Metrics.write_jsonl ~registry:r path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  check Alcotest.int "one line per metric" 2 (List.length lines);
  check Alcotest.string "counter json"
    "{\"metric\":\"x\",\"kind\":\"counter\",\"value\":7}" (List.nth lines 0);
  check Alcotest.string "gauge json"
    "{\"metric\":\"y\",\"kind\":\"gauge\",\"value\":1.5}" (List.nth lines 1)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_recording_sink f =
  let records = ref [] in
  Span.set_sink (Span.Emit (fun r -> records := r :: !records));
  Fun.protect ~finally:(fun () -> Span.set_sink Span.Null) f;
  List.rev !records

let test_span_nesting () =
  let records =
    with_recording_sink (fun () ->
        Span.with_ "outer" (fun () ->
            Span.with_ "inner" (fun () -> Sys.opaque_identity (ignore 0));
            Span.with_ "inner" (fun () -> Sys.opaque_identity (ignore 1))))
  in
  (* Children complete (and are emitted) before their parent. *)
  check Alcotest.(list string) "emit order"
    [ "inner"; "inner"; "outer" ]
    (List.map (fun r -> r.Span.name) records);
  check Alcotest.(list int) "depths" [ 1; 1; 0 ]
    (List.map (fun r -> r.Span.depth) records);
  let outer = List.nth records 2 in
  let inner_total =
    List.fold_left
      (fun acc (r : Span.record) ->
        if r.Span.name = "inner" then acc +. r.Span.wall_s else acc)
      0. records
  in
  (* Self time excludes child spans. *)
  check Alcotest.bool "self <= wall" true
    (outer.Span.self_s <= outer.Span.wall_s +. 1e-9);
  check Alcotest.bool "self excludes children" true
    (outer.Span.self_s <= outer.Span.wall_s -. inner_total +. 1e-6)

let test_span_exception () =
  let records =
    with_recording_sink (fun () ->
        (try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
        Span.with_ "after" (fun () -> ()))
  in
  check Alcotest.(list string) "emitted despite exception"
    [ "boom"; "after" ]
    (List.map (fun r -> r.Span.name) records);
  (* The stack recovered: the follow-up span is top-level again. *)
  check Alcotest.int "depth recovered" 0 (List.nth records 1).Span.depth

let test_span_null_sink_passthrough () =
  Span.set_sink Span.Null;
  check Alcotest.int "result passes through" 7 (Span.with_ "x" (fun () -> 7))

let test_agg () =
  let agg = Span.agg () in
  Span.set_sink (Span.agg_sink agg);
  Fun.protect
    ~finally:(fun () -> Span.set_sink Span.Null)
    (fun () ->
      Span.with_ "a" (fun () -> Span.with_ "b" (fun () -> ()));
      Span.with_ "b" (fun () -> ()));
  let rows = Span.agg_rows agg in
  check Alcotest.int "two names" 2 (List.length rows);
  let b = List.find (fun r -> r.Span.row_name = "b") rows in
  check Alcotest.int "b count" 2 b.Span.count;
  (* Self-time totals never double count nested spans. *)
  let total = Span.agg_self_total agg in
  let sum_wall_top =
    List.fold_left
      (fun acc (r : Span.agg_row) ->
        if r.Span.row_name = "a" then acc +. r.Span.total_s else acc)
      0. rows
  in
  check Alcotest.bool "self total sane" true (total >= sum_wall_top -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_levels () =
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () -> Log.set_level saved)
    (fun () ->
      Log.set_level Log.Warn;
      check Alcotest.bool "debug off" false (Log.enabled Log.Debug);
      check Alcotest.bool "error on" true (Log.enabled Log.Error);
      Log.set_level Log.Quiet;
      check Alcotest.bool "quiet mutes errors" false (Log.enabled Log.Error);
      check Alcotest.bool "quiet never logs" false (Log.enabled Log.Quiet))

let test_log_of_string () =
  check Alcotest.bool "debug parses" true
    (Log.of_string "debug" = Some Log.Debug);
  check Alcotest.bool "unknown rejected" true (Log.of_string "chatty" = None)

(* ------------------------------------------------------------------ *)
(* Chrome trace exporter                                               *)
(* ------------------------------------------------------------------ *)

module Trace = Pdf_obs.Trace

let with_trace_collector f =
  let coll = Trace.collector () in
  Span.set_sink (Trace.sink coll);
  Fun.protect ~finally:(fun () -> Span.set_sink Span.Null) f;
  coll

let count_sub hay sub =
  let lh = String.length hay and ls = String.length sub in
  let n = ref 0 and i = ref 0 in
  while !i + ls <= lh do
    if String.sub hay !i ls = sub then begin
      incr n;
      i := !i + ls
    end
    else incr i
  done;
  !n

let test_trace_multi_track () =
  (* A 3-way barrier inside each task forces all three pool domains
     (submitter + 2 workers) to each run exactly one of the three tasks,
     so the trace deterministically carries one track per domain. *)
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 in
  let barrier () =
    Mutex.lock m;
    incr arrived;
    if !arrived >= 3 then Condition.broadcast cv
    else
      while !arrived < 3 do
        Condition.wait cv m
      done;
    Mutex.unlock m
  in
  let coll =
    with_trace_collector (fun () ->
        Pdf_par.Pool.with_pool ~jobs:3 (fun pool ->
            ignore
              (Pdf_par.Pool.map pool
                 (fun i ->
                   Span.with_ "pool-task" (fun () ->
                       Span.with_ "task-inner" barrier;
                       i * 2))
                 [ 0; 1; 2 ])))
  in
  check Alcotest.int "two spans per task" 6 (Trace.size coll);
  let events = Trace.sorted_events coll in
  let tracks =
    List.sort_uniq compare (List.map (fun e -> e.Trace.track) events)
  in
  check Alcotest.(list int) "one track per pool domain" [ 0; 1; 2 ] tracks;
  List.iter
    (fun tr ->
      let evs = List.filter (fun e -> e.Trace.track = tr) events in
      (* B/E streams are balanced and well nested per track... *)
      let depth =
        List.fold_left
          (fun d e ->
            match e.Trace.ph with
            | Trace.B -> d + 1
            | Trace.E ->
              check Alcotest.bool "E has a matching B" true (d > 0);
              d - 1)
          0 evs
      in
      check Alcotest.int "balanced B/E" 0 depth;
      (* ...and timestamps never go backwards within a track. *)
      ignore
        (List.fold_left
           (fun last e ->
             check Alcotest.bool "monotonic timestamps" true
               (e.Trace.ts_us >= last);
             e.Trace.ts_us)
           neg_infinity evs))
    tracks

let test_trace_json_shape () =
  let coll =
    with_trace_collector (fun () ->
        Span.with_ "alpha" (fun () ->
            Span.with_ "beta\"quoted" (fun () -> ())))
  in
  let json = Trace.to_json ~process_name:"unit" coll in
  (* Structural validity: braces/brackets balance outside string
     literals and every string closes. *)
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let ok = ref true in
  String.iter
    (fun ch ->
      if !in_str then
        if !esc then esc := false
        else if ch = '\\' then esc := true
        else if ch = '"' then in_str := false
        else ()
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    json;
  check Alcotest.bool "brackets balance" true
    (!ok && !depth = 0 && not !in_str);
  check Alcotest.int "one traceEvents array" 1 (count_sub json "\"traceEvents\"");
  check Alcotest.int "two B events" 2 (count_sub json "\"ph\":\"B\"");
  check Alcotest.int "balanced E events" 2 (count_sub json "\"ph\":\"E\"");
  check Alcotest.bool "process metadata" true
    (count_sub json "process_name" >= 1);
  check Alcotest.bool "track metadata" true
    (count_sub json "thread_name" >= 1);
  check Alcotest.int "span names JSON-escaped" 2
    (count_sub json "beta\\\"quoted")

(* ------------------------------------------------------------------ *)
(* Histogram cumulative encoding + Prometheus exporter                 *)
(* ------------------------------------------------------------------ *)

module Prom = Pdf_obs.Prom

let test_histogram_cumulative () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.; 2. |] "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 5.0 ];
  match Metrics.snapshot ~registry:r () with
  | [ ("h", Metrics.Histogram_v d) ] ->
    check
      Alcotest.(list (pair (option (float 0.)) int))
      "cumulative counts closed by +Inf"
      [ (Some 1., 2); (Some 2., 3); (None, 4) ]
      (Metrics.cumulative d);
    check Alcotest.string "+Inf label" "+Inf" (Metrics.bound_label None)
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_prom_render () =
  check Alcotest.string "sanitize" "pdf_justify_runs"
    (Prom.sanitize "justify.runs");
  let r = Metrics.create () in
  Metrics.add (Metrics.counter ~registry:r "justify.runs") 3;
  Metrics.set (Metrics.gauge ~registry:r "atpg.progress") 1.5;
  let h = Metrics.histogram ~registry:r ~buckets:[| 1.; 2. |] "depth" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 5.0 ];
  let lines = String.split_on_char '\n' (Prom.render ~registry:r ()) in
  let has l = check Alcotest.bool l true (List.mem l lines) in
  has "# TYPE pdf_justify_runs_total counter";
  has "pdf_justify_runs_total 3";
  has "# TYPE pdf_atpg_progress gauge";
  has "pdf_atpg_progress 1.5";
  has "# TYPE pdf_depth histogram";
  has "pdf_depth_bucket{le=\"1\"} 2";
  has "pdf_depth_bucket{le=\"2\"} 3";
  has "pdf_depth_bucket{le=\"+Inf\"} 4";
  has "pdf_depth_sum 8";
  has "pdf_depth_count 4"

let test_prom_periodic_flush () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "flips" in
  Metrics.add c 1;
  let path = Filename.temp_file "pdf_prom" ".prom" in
  (try
     ignore
       (Prom.start_periodic_flush ~registry:r ~period_s:0. path
         : unit -> unit);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let stop = Prom.start_periodic_flush ~registry:r ~period_s:0.01 path in
  Metrics.add c 41;
  stop ();
  stop ();
  (* stopping twice is harmless *)
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  (* The stop thunk performs a final write, so the file reflects the
     end state regardless of how many periods elapsed. *)
  check Alcotest.bool "final flush" true
    (List.mem "pdf_flips_total 42" (String.split_on_char '\n' text))

(* ------------------------------------------------------------------ *)
(* Provenance ledger                                                   *)
(* ------------------------------------------------------------------ *)

module Ledger = Pdf_obs.Ledger

let test_ledger_append_order_and_queries () =
  let l = Ledger.create () in
  Ledger.record l ~kind:"fault" [ ("id", Ledger.I 0); ("name", Ledger.S "a") ];
  Ledger.record l ~kind:"test" [ ("id", Ledger.I 1) ];
  Ledger.record l ~kind:"fault" [ ("id", Ledger.I 1); ("name", Ledger.S "b") ];
  check Alcotest.int "size" 3 (Ledger.size l);
  check
    Alcotest.(list string)
    "append order preserved" [ "fault"; "test"; "fault" ]
    (List.map (fun r -> r.Ledger.kind) (Ledger.records l));
  let hits =
    Ledger.find l ~kind:"fault" (fun r -> Ledger.get_int r "id" = Some 1)
  in
  check Alcotest.int "find filters by kind and predicate" 1 (List.length hits);
  let r = List.hd hits in
  check (Alcotest.option Alcotest.string) "get_string" (Some "b")
    (Ledger.get_string r "name");
  check (Alcotest.option Alcotest.int) "get_int refuses wrong type" None
    (Ledger.get_int r "name");
  check (Alcotest.option Alcotest.string) "absent field" None
    (Ledger.get_string r "missing")

let test_ledger_jsonl () =
  let l = Ledger.create () in
  Ledger.record l ~kind:"note"
    [
      ("msg", Ledger.S "say \"hi\"\n");
      ("n", Ledger.I (-3));
      ("ok", Ledger.B true);
      ("xs", Ledger.L [ Ledger.I 1; Ledger.O [ ("k", Ledger.S "v") ] ]);
    ];
  check Alcotest.string "kind first, strings escaped"
    "{\"kind\":\"note\",\"msg\":\"say \\\"hi\\\"\\n\",\"n\":-3,\"ok\":true,\"xs\":[1,{\"k\":\"v\"}]}\n"
    (Ledger.to_jsonl l)

(* ------------------------------------------------------------------ *)
(* Determinism guard: instrumentation must not change results          *)
(* ------------------------------------------------------------------ *)

let s27 = Pdf_synth.Iscas.s27 ()

let enrich_result () =
  let module Atpg = Pdf_core.Atpg in
  let { Pdf_core.Job.faults; p0; p1; _ } =
    Pdf_core.Job.analyse s27 ~n_p:40 ~n_p0:10
  in
  let res = Atpg.enrich s27 ~seed:2002 ~faults ~p0 ~p1 in
  ( List.map Pdf_core.Test_pair.to_string res.Atpg.tests,
    Array.to_list res.Atpg.detected )

let test_null_sink_determinism () =
  (* The same seeded run must be bit-identical whether tracing is off
     (null sink), recording, or aggregating — spans and counters must not
     touch the algorithm. *)
  Span.set_sink Span.Null;
  let base = enrich_result () in
  let under_recording_sink =
    let result = ref None in
    let records =
      with_recording_sink (fun () -> result := Some (enrich_result ()))
    in
    check Alcotest.bool "spans fired" true (List.length records > 0);
    Option.get !result
  in
  let agg = Span.agg () in
  Span.set_sink (Span.agg_sink agg);
  let under_agg_sink =
    Fun.protect ~finally:(fun () -> Span.set_sink Span.Null) enrich_result
  in
  check Alcotest.(pair (list string) (list bool)) "recording sink identical"
    base under_recording_sink;
  check Alcotest.(pair (list string) (list bool)) "aggregating sink identical"
    base under_agg_sink

let test_counters_deterministic () =
  (* Two identical seeded runs advance the candidate-evaluation counter by
     exactly the same amount (guards the delta accumulator rewrite). *)
  Span.set_sink Span.Null;
  let evals = Metrics.counter "atpg.delta_evals" in
  let v0 = Metrics.value evals in
  let r1 = enrich_result () in
  let v1 = Metrics.value evals in
  let r2 = enrich_result () in
  let v2 = Metrics.value evals in
  check Alcotest.(pair (list string) (list bool)) "same results" r1 r2;
  check Alcotest.int "same delta evaluations" (v1 - v0) (v2 - v1);
  check Alcotest.bool "counter advanced" true (v1 > v0)

(* ------------------------------------------------------------------ *)
(* Provenance: ledger determinism, explain and report                  *)
(* ------------------------------------------------------------------ *)

module Provenance = Pdf_experiments.Provenance

(* The s27 job the provenance and profile fixtures run.  The explain/why
   goldens below pin simulation-engine effort numbers, so their fixture
   keeps the default job's backend, sim; the profile tests follow
   PDF_JUSTIFY, which CI sweeps. *)
let s27_job = { Pdf_core.Job.default with n_p = 40; n_p0 = 10 }

let s27_provenance = lazy (Provenance.build s27_job s27)

let test_ledger_packed_scalar_identical () =
  (* DESIGN.md §9: the ledger is part of the §7.3/§8.3 determinism
     contract.  The digest pins the bytes that the scalar and the
     word-packed detection checks both produced when either could still
     be forced.  (CI additionally diffs --jobs 1 vs 4.) *)
  let p = Provenance.build s27_job s27 in
  let jsonl = Pdf_obs.Ledger.to_jsonl p.Provenance.ledger in
  check Alcotest.int "ledger records" 46
    (List.length (String.split_on_char '\n' jsonl) - 1);
  check Alcotest.string "ledger digest" "3301a6c48fffa439e8dedf0e8d5f754d"
    (Digest.to_hex (Digest.string jsonl))

let test_explain_golden () =
  let p = Lazy.force s27_provenance in
  match Provenance.explain p "3" with
  | Error e -> Alcotest.fail e
  | Ok text ->
    check Alcotest.string "explain fault 3 on s27"
      "fault #3: slow-to-rise (G0,G14,G8,G15,G9,G11,G10)\n\
      \  detected by test 1, via folded\n\
      \  test 1: primary slow-to-rise (G0,G14,G8,G15,G9,G11,G17), pattern \
       0001010/1101010\n\
      \  6 secondary fold(s) into this test\n\
      \  this fault folded at step 3 (free)\n\
      \  justification effort: 2 runs, 80 trials, 0 backtracks\n"
      text

let test_explain_unknown () =
  let p = Lazy.force s27_provenance in
  match Provenance.explain p "no-such-net" with
  | Error _ -> ()
  | Ok text -> Alcotest.fail ("expected Error, got: " ^ text)

let test_report_consistent () =
  let p = Lazy.force s27_provenance in
  let rep = Provenance.report p in
  let contains sub =
    let lh = String.length rep and ls = String.length sub in
    let rec at i = i + ls <= lh && (String.sub rep i ls = sub || at (i + 1)) in
    at 0
  in
  (* Every enumerated fault ends with exactly one disposition. *)
  check Alcotest.bool "consistency line" true
    (contains "consistent (each fault has exactly one disposition)");
  check Alcotest.bool "not flagged inconsistent" false
    (contains "INCONSISTENT");
  check Alcotest.bool "disposition summary present" true
    (contains "detected via folding")

(* ------------------------------------------------------------------ *)
(* Attribution: sheet algebra, profile determinism, why forensics      *)
(* ------------------------------------------------------------------ *)

module Attrib = Pdf_obs.Attrib
module Hotspots = Pdf_experiments.Hotspots

let profile_s27 () =
  Hotspots.profile
    { s27_job with Pdf_core.Job.justify = Pdf_core.Justify.default_kind () }
    s27

let contains s sub =
  let ls = String.length s and lu = String.length sub in
  let rec at i = i + lu <= ls && (String.sub s i lu = sub || at (i + 1)) in
  at 0

let test_attrib_sheet_ops () =
  let store = Attrib.create ~nets:4 in
  let s1 = Attrib.fresh store in
  s1.Attrib.trials.(1) <- 3;
  s1.Attrib.t_trials <- 3;
  s1.Attrib.inc_resims.(2) <- 5;
  s1.Attrib.t_inc_resims <- 5;
  let s2 = Attrib.fresh store in
  s2.Attrib.trials.(1) <- 2;
  s2.Attrib.t_trials <- 2;
  s2.Attrib.conflicts.(0) <- 1;
  s2.Attrib.t_conflicts <- 1;
  Attrib.merge store s1;
  Attrib.merge store s2;
  let m = Attrib.snapshot store in
  check Alcotest.int "merged per-net trials" 5 m.Attrib.trials.(1);
  check Alcotest.int "merged trial total" 5 m.Attrib.t_trials;
  check Alcotest.int "merged conflicts" 1 m.Attrib.conflicts.(0);
  check Alcotest.int "merged inc total" 5 m.Attrib.t_inc_resims;
  (* Semantic totals exclude the engine-variant incremental counter. *)
  check Alcotest.int "inc_resims not semantic" 0 (Attrib.semantic_total m 2);
  check Alcotest.int "semantic per-net" 5 (Attrib.semantic_total m 1);
  check Alcotest.int "semantic grand total" 6 (Attrib.grand_total m);
  (* Snapshots are copies: later merges don't mutate them. *)
  let s3 = Attrib.fresh store in
  s3.Attrib.trials.(1) <- 10;
  s3.Attrib.t_trials <- 10;
  Attrib.merge store s3;
  check Alcotest.int "snapshot unaffected by later merge" 5
    m.Attrib.trials.(1)

(* DESIGN.md §14: the exported profile carries only semantic effort, so
   its bytes must survive any jobs count. *)
let test_profile_grid_identical () =
  let saved_jobs = Pdf_par.Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Pdf_par.Pool.set_default_jobs saved_jobs)
  @@ fun () ->
  let outputs =
    List.map
      (fun jobs ->
        Pdf_par.Pool.set_default_jobs jobs;
        let p = profile_s27 () in
        (Hotspots.render p, Hotspots.to_json p))
      [ 1; 4 ]
  in
  match outputs with
  | [] -> assert false
  | (r0, j0) :: rest ->
    check Alcotest.bool "render non-empty" true (String.length r0 > 0);
    check Alcotest.bool "json carries the schema id" true
      (contains j0 "\"schema\": \"pdf-profile-report/1\"");
    List.iteri
      (fun i (r, j) ->
        check Alcotest.string
          (Printf.sprintf "render %d byte-identical" (i + 1))
          r0 r;
        check Alcotest.string
          (Printf.sprintf "json %d byte-identical" (i + 1))
          j0 j)
      rest

let test_profile_conservation () =
  let p = profile_s27 () in
  let levels = Hotspots.per_level p in
  check Alcotest.int "per-level histogram sums to the grand total"
    (Attrib.grand_total p.Hotspots.sheet)
    (Array.fold_left ( + ) 0 levels);
  check Alcotest.bool "some effort was charged" true
    (Attrib.grand_total p.Hotspots.sheet > 0);
  let hot = Hotspots.top ~k:3 p in
  check Alcotest.bool "top-3 is at most 3" true (List.length hot <= 3);
  List.iter
    (fun (h : Hotspots.hot) ->
      check Alcotest.int "row total matches the sheet" h.Hotspots.total
        (Attrib.semantic_total p.Hotspots.sheet h.Hotspots.net))
    hot

let test_profile_counter_track () =
  let p = profile_s27 () in
  let coll = Trace.collector () in
  Hotspots.counter_track p coll;
  let json = Trace.to_json ~process_name:"unit" coll in
  check Alcotest.bool "trace has counter events" true
    (contains json "\"ph\":\"C\"");
  check Alcotest.bool "counter track is named" true
    (contains json "s27 effort/level")

(* The ledger's per-fault effort records partition the run's global
   justification counters: every search targeted exactly one fault. *)
let test_effort_conservation () =
  let p = Lazy.force s27_provenance in
  let faults =
    Pdf_obs.Ledger.find p.Provenance.ledger ~kind:"fault" (fun _ -> true)
  in
  let sum k =
    List.fold_left
      (fun acc r ->
        acc
        +
        match Pdf_obs.Ledger.field r "effort" with
        | Some (Pdf_obs.Ledger.O kvs) -> (
          match List.assoc_opt k kvs with
          | Some (Pdf_obs.Ledger.I i) -> i
          | _ -> 0)
        | _ -> 0)
      0 faults
  in
  check Alcotest.int "per-fault runs sum to the run total"
    p.Provenance.result.Pdf_core.Atpg.justification_runs (sum "runs");
  check Alcotest.int "per-fault trials sum to the run total"
    p.Provenance.result.Pdf_core.Atpg.justification_trials (sum "trials")

let test_why_golden () =
  let p = Lazy.force s27_provenance in
  (match Provenance.why p "0" with
  | Error e -> Alcotest.fail e
  | Ok text ->
    check Alcotest.string "why fault 0 on s27 (forensics present)"
      "fault #0: slow-to-rise (G0,G14,G8,G16,G9,G11,G17)\n\
      \  detected by test 0, via primary\n\
      \  test 0: primary slow-to-rise (G0,G14,G8,G16,G9,G11,G17), pattern \
       0001010/1000010\n\
      \  4 secondary fold(s) into this test\n\
      \  this fault folded at step 1 (free)\n\
      \  justification effort: 2 runs, 66 trials, 0 backtracks\n\
      \  justification effort charged to this fault: 1 run(s), 36 trials, \
       0 backtracks, 52 resim gate evals\n\
      \  last requirement conflict: net G15 (id 11, level 3); deepest \
       conflict at level 3\n"
      text);
  match Provenance.why p "3" with
  | Error e -> Alcotest.fail e
  | Ok text ->
    check Alcotest.string "why fault 3 on s27 (never targeted)"
      "fault #3: slow-to-rise (G0,G14,G8,G15,G9,G11,G10)\n\
      \  detected by test 1, via folded\n\
      \  test 1: primary slow-to-rise (G0,G14,G8,G15,G9,G11,G17), pattern \
       0001010/1101010\n\
      \  6 secondary fold(s) into this test\n\
      \  this fault folded at step 3 (free)\n\
      \  justification effort: 2 runs, 80 trials, 0 backtracks\n\
      \  no justification search ever targeted this fault\n"
      text

let test_why_unknown () =
  let p = Lazy.force s27_provenance in
  match Provenance.why p "no-such-net" with
  | Error _ -> ()
  | Ok text -> Alcotest.fail ("expected Error, got: " ^ text)

let test_report_breakdown () =
  let p = Lazy.force s27_provenance in
  let rep = Provenance.report p in
  check Alcotest.bool "abort/reject breakdown present" true
    (contains rep "abort/reject breakdown");
  check Alcotest.bool "median column present" true
    (contains rep "med j.trials")

let () =
  Alcotest.run "pdf_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "get or create" `Quick test_counter_get_or_create;
          Alcotest.test_case "monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram validation" `Quick
            test_histogram_validation;
          Alcotest.test_case "snapshot + reset" `Quick
            test_snapshot_sorted_and_reset;
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "null sink passthrough" `Quick
            test_span_null_sink_passthrough;
          Alcotest.test_case "aggregation" `Quick test_agg;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels" `Quick test_log_levels;
          Alcotest.test_case "of_string" `Quick test_log_of_string;
        ] );
      ( "trace",
        [
          Alcotest.test_case "one track per pool domain" `Quick
            test_trace_multi_track;
          Alcotest.test_case "json shape" `Quick test_trace_json_shape;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "histogram cumulative" `Quick
            test_histogram_cumulative;
          Alcotest.test_case "render" `Quick test_prom_render;
          Alcotest.test_case "periodic flush" `Quick test_prom_periodic_flush;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append order + queries" `Quick
            test_ledger_append_order_and_queries;
          Alcotest.test_case "jsonl encoding" `Quick test_ledger_jsonl;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "null sink identical results" `Quick
            test_null_sink_determinism;
          Alcotest.test_case "counters deterministic" `Quick
            test_counters_deterministic;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "ledger packed = scalar" `Quick
            test_ledger_packed_scalar_identical;
          Alcotest.test_case "explain golden" `Quick test_explain_golden;
          Alcotest.test_case "explain unknown query" `Quick
            test_explain_unknown;
          Alcotest.test_case "report consistency" `Quick
            test_report_consistent;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "sheet algebra" `Quick test_attrib_sheet_ops;
          Alcotest.test_case "profile identical across jobs" `Quick
            test_profile_grid_identical;
          Alcotest.test_case "profile conservation" `Quick
            test_profile_conservation;
          Alcotest.test_case "profile counter track" `Quick
            test_profile_counter_track;
          Alcotest.test_case "ledger effort conservation" `Quick
            test_effort_conservation;
          Alcotest.test_case "why golden" `Quick test_why_golden;
          Alcotest.test_case "why unknown query" `Quick test_why_unknown;
          Alcotest.test_case "report abort breakdown" `Quick
            test_report_breakdown;
        ] );
    ]
