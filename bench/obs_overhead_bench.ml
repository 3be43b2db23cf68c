(* Observability overhead guard (DESIGN.md §9.4).

   The tracing layer's contract is that an uninstrumented run pays only
   the Null-sink check per span site.  Timing two full ATPG runs against
   each other is too noisy to gate CI on a small percentage, so the
   guard uses an overhead model instead:

     overhead% = spans_fired x per_span_null_cost / wall_null x 100

   where per_span_null_cost is measured by a microbenchmark of
   Span.with_ under the Null sink, spans_fired is counted by an Emit
   sink during one instrumented run, and wall_null is the best
   wall-clock of the run with the Null sink.  The tracing-on wall time
   is also recorded (informational: it includes collector allocation,
   which only traced runs pay).

   All timing goes through Pdf_obs.Bstat (the shared statistical
   harness) and the JSON result is a unified pdf-bench-report/1 file
   (suite "obs_overhead"), so the report carries the same fingerprint,
   GC and throughput fields as every other BENCH_*.json.

   The effort-attribution layer (DESIGN.md §14) is gated the same way:

     attrib overhead% = events x per_bump_cost / wall_null x 100

   where events is the total number of counter bumps one attributed run
   performs (the merged sheet's grand semantic total plus the
   engine-variant incremental count) and per_bump_cost is a
   microbenchmark of the hot-path pattern — an option match plus an
   int-array increment.  The attribution-on wall time is also recorded
   (informational, like the trace-on time).

   Exits non-zero when either modelled overhead (Null-sink spans, or
   attribution bumps) exceeds --max-overhead percent (default 2%). *)

module Span = Pdf_obs.Span
module Bstat = Pdf_obs.Bstat
module Attrib = Pdf_obs.Attrib
module Benchmark = Pdf_experiments.Benchmark
module Profiles = Pdf_synth.Profiles
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg

let usage = "obs_overhead_bench [--circuit NAME] [--n-p N] [--n-p0 N] \
             [--repeat N] [--out FILE] [--max-overhead PCT]"

let circuit_name = ref "b09"
let n_p = ref 400
let n_p0 = ref 80
let repeat = ref 3
let out_path = ref "BENCH_obs_overhead.json"
let max_overhead = ref 2.0
let seed = ref 2002

let () =
  Arg.parse
    [
      ("--circuit", Arg.Set_string circuit_name, "Profile to run (default b09)");
      ("--n-p", Arg.Set_int n_p, "Fault budget N_P (default 400)");
      ("--n-p0", Arg.Set_int n_p0, "Threshold N_P0 (default 80)");
      ("--repeat", Arg.Set_int repeat, "Timed repetitions (default 3)");
      ("--seed", Arg.Set_int seed, "ATPG seed (default 2002)");
      ("--out", Arg.Set_string out_path, "JSON result file");
      ( "--max-overhead",
        Arg.Set_float max_overhead,
        "Fail above this Null-sink overhead percentage (default 2.0)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let () =
  let profile =
    match Benchmark.profiles_of_spec !circuit_name with
    | Ok [ p ] -> p
    | Ok _ ->
      Printf.eprintf "exactly one --circuit expected\n";
      exit 2
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let c = Profiles.circuit profile in
  let model = Pdf_paths.Delay_model.lines c in
  let ts = Target_sets.build c model ~n_p:!n_p ~n_p0:!n_p0 in
  let faults = Fault_sim.prepare c ts.Target_sets.p in
  let n0 = List.length ts.Target_sets.p0 in
  let p0 = List.init n0 Fun.id in
  let p1 = List.init (Array.length faults - n0) (fun i -> n0 + i) in
  let workload () =
    ignore (Atpg.enrich c ~seed:!seed ~faults ~p0 ~p1 : Atpg.result)
  in
  (* 1. Wall time with the Null sink (the uninstrumented configuration);
     the best sample stands in for the old best-of loop. *)
  Span.set_sink Span.Null;
  let null_meas =
    Bstat.measure ~warmup:1 ~repeat:!repeat ~min_sample_s:0. workload
  in
  let null_stats = Bstat.summarize null_meas.Bstat.samples in
  let wall_null = null_stats.Bstat.min_s in
  (* 2. Span count of one instrumented run. *)
  let spans = ref 0 in
  Span.set_sink (Span.Emit (fun _ -> incr spans));
  workload ();
  let spans = !spans in
  (* 3. Wall time with a real trace collector attached (informational). *)
  Span.set_sink Span.Null;
  let trace_meas =
    Bstat.measure ~warmup:0 ~repeat:!repeat ~min_sample_s:0. (fun () ->
        let coll = Pdf_obs.Trace.collector () in
        Span.set_sink (Pdf_obs.Trace.sink coll);
        workload ();
        Span.set_sink Span.Null)
  in
  let trace_stats = Bstat.summarize trace_meas.Bstat.samples in
  let wall_trace = trace_stats.Bstat.min_s in
  (* 4. Per-span cost of a Null-sink span site: a calibrated sample of
     wrapped calls against the same payload unwrapped.  [sink ()] keeps
     the payload from being optimised away. *)
  let tick = ref 0 in
  let payload () = if Span.sink () = Span.Null then incr tick in
  let site_cfg f = Bstat.measure ~warmup:1 ~repeat:5 ~min_sample_s:0.02 f in
  let plain_meas = site_cfg payload in
  let wrapped_meas = site_cfg (fun () -> Span.with_ "overhead-probe" payload) in
  let plain_stats = Bstat.summarize plain_meas.Bstat.samples in
  let wrapped_stats = Bstat.summarize wrapped_meas.Bstat.samples in
  let per_span =
    Float.max 0.
      (wrapped_stats.Bstat.median_s -. plain_stats.Bstat.median_s)
  in
  let modelled_pct =
    if wall_null > 0. then
      100. *. float_of_int spans *. per_span /. wall_null
    else 0.
  in
  let measured_pct =
    if wall_null > 0. then 100. *. (wall_trace -. wall_null) /. wall_null
    else 0.
  in
  (* 5. Attribution: count one attributed run's counter bumps, measure
     the attributed wall time (informational), and microbench the
     hot-path bump pattern (option match + int-array increment). *)
  let attrib_events =
    let store = Attrib.create ~nets:(Pdf_circuit.Circuit.num_nets c) in
    ignore
      (Atpg.enrich ~attrib:store c ~seed:!seed ~faults ~p0 ~p1 : Atpg.result);
    let s = Attrib.snapshot store in
    Attrib.grand_total s + s.Attrib.t_inc_resims
  in
  let attrib_meas =
    Bstat.measure ~warmup:1 ~repeat:!repeat ~min_sample_s:0. (fun () ->
        let store = Attrib.create ~nets:(Pdf_circuit.Circuit.num_nets c) in
        ignore
          (Atpg.enrich ~attrib:store c ~seed:!seed ~faults ~p0 ~p1
            : Atpg.result))
  in
  let attrib_stats = Bstat.summarize attrib_meas.Bstat.samples in
  let wall_attrib = attrib_stats.Bstat.min_s in
  let bump_sheet = Attrib.make_sheet ~nets:16 in
  let bump_att = Some bump_sheet in
  let bump_payload () =
    (match bump_att with
    | Some (a : Attrib.sheet) ->
      a.Attrib.trials.(!tick land 15) <- a.Attrib.trials.(!tick land 15) + 1
    | None -> ());
    incr tick
  in
  let bump_plain_meas = site_cfg (fun () -> incr tick) in
  let bump_meas = site_cfg bump_payload in
  let bump_plain_stats = Bstat.summarize bump_plain_meas.Bstat.samples in
  let bump_stats = Bstat.summarize bump_meas.Bstat.samples in
  let per_bump =
    Float.max 0. (bump_stats.Bstat.median_s -. bump_plain_stats.Bstat.median_s)
  in
  let modelled_attrib_pct =
    if wall_null > 0. then
      100. *. float_of_int attrib_events *. per_bump /. wall_null
    else 0.
  in
  let measured_attrib_pct =
    if wall_null > 0. then 100. *. (wall_attrib -. wall_null) /. wall_null
    else 0.
  in
  let case name units meas stats =
    { Benchmark.r_case = name; r_units = units; r_meas = meas; r_stats = stats }
  in
  let report =
    {
      Benchmark.suite = "obs_overhead";
      fingerprint = Pdf_obs.Fingerprint.capture ();
      warmup = 1;
      repeat = !repeat;
      min_sample_s = 0.;
      params =
        {
          Benchmark.circuits = [ profile ];
          n_tests = 0;
          n_p = !n_p;
          n_p0 = !n_p0;
          seed = !seed;
        };
      results =
        [
          case
            (profile.Profiles.name ^ "/atpg_null_sink")
            [ ("spans", float_of_int spans) ]
            null_meas null_stats;
          case
            (profile.Profiles.name ^ "/atpg_trace_sink")
            [ ("spans", float_of_int spans) ]
            trace_meas trace_stats;
          case "span_site/plain" [] plain_meas plain_stats;
          case "span_site/null_wrapped" [] wrapped_meas wrapped_stats;
          case
            (profile.Profiles.name ^ "/atpg_attrib_on")
            [ ("events", float_of_int attrib_events) ]
            attrib_meas attrib_stats;
          case "attrib_site/plain" [] bump_plain_meas bump_plain_stats;
          case "attrib_site/bump" [] bump_meas bump_stats;
        ];
    }
  in
  Benchmark.write_report report !out_path;
  Printf.printf
    "wall_null %.6fs  wall_trace %.6fs  spans %d\n\
     per_span_null_cost %.3es  modelled null overhead %.4f%%  \
     trace-on overhead %.2f%%\n"
    wall_null wall_trace spans per_span modelled_pct measured_pct;
  Printf.printf
    "wall_attrib %.6fs  attrib events %d\n\
     per_bump_cost %.3es  modelled attrib overhead %.4f%%  \
     attrib-on overhead %.2f%%\n"
    wall_attrib attrib_events per_bump modelled_attrib_pct
    measured_attrib_pct;
  let failed = ref false in
  if modelled_pct > !max_overhead then begin
    Printf.eprintf
      "FAIL: modelled Null-sink overhead %.4f%% exceeds the %.2f%% budget\n"
      modelled_pct !max_overhead;
    failed := true
  end
  else
    Printf.printf "OK: modelled Null-sink overhead %.4f%% <= %.2f%% budget\n"
      modelled_pct !max_overhead;
  if modelled_attrib_pct > !max_overhead then begin
    Printf.eprintf
      "FAIL: modelled attribution overhead %.4f%% exceeds the %.2f%% budget\n"
      modelled_attrib_pct !max_overhead;
    failed := true
  end
  else
    Printf.printf
      "OK: modelled attribution overhead %.4f%% <= %.2f%% budget\n"
      modelled_attrib_pct !max_overhead;
  if !failed then exit 1
