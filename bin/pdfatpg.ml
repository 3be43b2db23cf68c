(* pdfatpg: command-line driver for the path-delay-fault test enrichment
   library.  Circuits are named either by a built-in profile (see
   `pdfatpg profiles`) or by a path to an ISCAS .bench file. *)

open Cmdliner

module Circuit = Pdf_circuit.Circuit
module Bench_io = Pdf_circuit.Bench_io
module Stats = Pdf_circuit.Stats
module Delay_model = Pdf_paths.Delay_model
module Enumerate = Pdf_paths.Enumerate
module Path = Pdf_paths.Path
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Ordering = Pdf_core.Ordering
module Justify = Pdf_core.Justify
module Job = Pdf_core.Job
module Test_pair = Pdf_core.Test_pair
module Test_io = Pdf_core.Test_io
module Profiles = Pdf_synth.Profiles
module Workload = Pdf_experiments.Workload
module Hotspots = Pdf_experiments.Hotspots
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log
module Session = Pdf_serve.Session
module Server = Pdf_serve.Server

(* The query subcommands (info/atpg/enrich/explain/report) answer
   through the same warm-session layer `pdfatpg serve` uses, so served
   output is byte-identical to batch output by construction (DESIGN.md
   §12.4).  A CLI invocation holds exactly one session. *)
let session = lazy (Session.create ())

(* The span collector obs_setup installs for --trace-out, when one is
   active: subcommands with extra trace content (profile's per-level
   counter track) add their events here so everything lands in the one
   exported file. *)
let trace_collector : Pdf_obs.Trace.t option ref = ref None

let answer_or_die = function
  | Ok (a : Session.answer) -> a
  | Error (Session.Unknown_circuit msg) ->
    prerr_endline msg;
    exit 1
  | Error (Session.No_match msg) ->
    prerr_endline ("pdfatpg: " ^ msg);
    exit 1

let circuit_arg =
  let doc = "Circuit: a profile name (see $(b,pdfatpg profiles)) or a .bench file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let seed_arg =
  let doc = "Random seed (all randomness in the tool is seeded)." in
  Arg.(value & opt int Job.default.Job.seed & info [ "seed" ] ~doc)

(* An integer flag bounded below by the library: a smaller value is a
   usage error (exit 124), not an [Invalid_argument] escaping the run. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let n_p_conv = int_at_least Target_sets.min_n_p
let n_p0_conv = int_at_least Target_sets.min_n_p0

let n_p_arg =
  let doc = "Fault budget N_P for the enumerated set P." in
  Arg.(value & opt n_p_conv Job.default.Job.n_p & info [ "n-p" ] ~doc)

let n_p0_arg =
  let doc = "Size threshold N_P0 for the first target set P0." in
  Arg.(value & opt n_p0_conv Job.default.Job.n_p0 & info [ "n-p0" ] ~doc)

(* Write an output file through [write], or say why not and exit 1. *)
let write_or_die path write =
  try write path
  with Sys_error msg ->
    Printf.eprintf "pdfatpg: cannot write %s: %s\n" path msg;
    exit 1

(* Write an exporter's file when the command exits, through [write];
   when it cannot, say why and exit 1, as for every other output file.
   The [exit] runs the handlers not yet run, so the other exports are
   still written. *)
let export_at_exit what write =
  at_exit (fun () ->
      try write ()
      with Sys_error msg ->
        Printf.eprintf "pdfatpg: cannot write %s: %s\n" what msg;
        exit 1)

let with_circuit name f =
  match Session.resolve name with
  | Ok c -> f c
  | Error msg ->
    prerr_endline msg;
    exit 1

(* Observability and execution options shared by every subcommand:
   --verbose lowers the event-log threshold (also settable via PDF_LOG),
   --metrics-out dumps the metrics registry when the command finishes
   (CSV, or JSON lines when the file name ends in .jsonl), --trace-out
   collects every span into a Chrome trace-event file (load in Perfetto
   or chrome://tracing, one track per pool domain), --prom-out writes
   the registry in Prometheus text exposition format (--prom-flush
   rewrites it periodically for watching long runs), --jobs sets the
   degree of parallelism of the process default pool (also settable via
   PDF_JOBS; 1 = fully sequential, the default). *)
let obs_setup =
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write all pipeline metrics to $(docv) on exit (CSV; \
                   JSON lines when $(docv) ends in .jsonl).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file of every span to \
                   $(docv) on exit (Perfetto-loadable; one track per \
                   pool domain).")
  in
  let prom_out =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"Write the metrics registry in Prometheus text \
                   exposition format to $(docv) on exit.")
  in
  let prom_flush =
    Arg.(value & opt (some float) None
         & info [ "prom-flush" ] ~docv:"SECONDS"
             ~doc:"Rewrite the --prom-out file every $(docv) seconds \
                   while the command runs (for scraping long runs).")
  in
  let verbose =
    Arg.(value & flag_all
         & info [ "v"; "verbose" ]
             ~doc:"Log progress events to stderr (repeat for debug).")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Run independent work (orderings, circuit runs, \
                   fault-simulation chunks) on $(docv) domains.  Results \
                   are deterministic: any $(docv) produces the same \
                   output as 1.  Defaults to $(b,PDF_JOBS) or 1.")
  in
  let setup metrics_out trace_out prom_out prom_flush verbose jobs =
    (match verbose with
    | [] -> ()
    | [ _ ] -> Log.set_level Log.Info
    | _ -> Log.set_level Log.Debug);
    (match jobs with
    | None -> ()
    | Some n when n >= 1 -> Pdf_par.Pool.set_default_jobs n
    | Some n ->
      Printf.eprintf "pdfatpg: --jobs %d is invalid (want >= 1)\n" n;
      exit 2);
    (match metrics_out with
    | None -> ()
    | Some path ->
      export_at_exit "metrics" (fun () ->
          if Filename.check_suffix path ".jsonl" then Metrics.write_jsonl path
          else Metrics.write_csv path));
    (match trace_out with
    | None -> ()
    | Some path ->
      let coll = Pdf_obs.Trace.collector () in
      trace_collector := Some coll;
      (* Tee with whatever sink is already installed (the trace
         subcommand's aggregator) so both keep receiving spans. *)
      Span.set_sink (Span.tee (Span.sink ()) (Pdf_obs.Trace.sink coll));
      export_at_exit "trace" (fun () -> Pdf_obs.Trace.write coll path));
    match (prom_out, prom_flush) with
    | None, None -> ()
    | None, Some _ ->
      Printf.eprintf "pdfatpg: --prom-flush needs --prom-out\n";
      exit 2
    | Some path, flush ->
      (match flush with
      | Some period when period > 0. ->
        let stop =
          Pdf_obs.Prom.start_periodic_flush ~period_s:period path
        in
        (* stop performs the final write, and re-raises a failed one *)
        export_at_exit "prometheus file" stop
      | Some period ->
        Printf.eprintf "pdfatpg: --prom-flush %g is invalid (want > 0)\n"
          period;
        exit 2
      | None ->
        export_at_exit "prometheus file" (fun () -> Pdf_obs.Prom.write path))
  in
  Term.(const setup $ metrics_out $ trace_out $ prom_out $ prom_flush
        $ verbose $ jobs)

(* ------------------------------------------------------------------ *)

let profiles_cmd =
  let run () =
    let t =
      Pdf_util.Table.create
        [ ("name", Pdf_util.Table.Left); ("description", Pdf_util.Table.Left) ]
    in
    List.iter
      (fun p ->
        Pdf_util.Table.add_row t [ p.Profiles.name; p.Profiles.description ])
      Profiles.all;
    Pdf_util.Table.print t
  in
  Cmd.v (Cmd.info "profiles" ~doc:"List built-in circuit profiles.")
    Term.(const run $ obs_setup)

let info_cmd =
  let run () name =
    let ans = answer_or_die (Session.info (Lazy.force session) ~circuit:name) in
    print_string ans.Session.text
  in
  Cmd.v (Cmd.info "info" ~doc:"Print structural statistics of a circuit.")
    Term.(const run $ obs_setup $ circuit_arg)

let paths_cmd =
  let max_paths =
    Arg.(value & opt (int_at_least Enumerate.min_max_paths) 20
         & info [ "max-paths" ] ~doc:"Bound on |P|.")
  in
  let simple =
    Arg.(value & flag & info [ "simple" ]
         ~doc:"Use the simple (moderate-circuit) enumeration mode.")
  in
  let run () name max_paths simple =
    with_circuit name (fun c ->
        let model = Delay_model.lines c in
        let mode =
          if simple then Enumerate.Simple else Enumerate.Distance_pruned
        in
        let r = Enumerate.enumerate ~mode c model ~max_paths in
        Printf.printf
          "%d complete paths (steps=%d evicted=%d truncated=%b)\n"
          (List.length r.Enumerate.paths) r.Enumerate.steps r.Enumerate.evicted
          r.Enumerate.truncated;
        List.iter
          (fun (p, len) ->
            Printf.printf "length %3d  %s\n" len (Path.to_string c p))
          r.Enumerate.paths)
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Enumerate the longest paths of a circuit.")
    Term.(const run $ obs_setup $ circuit_arg $ max_paths $ simple)

let histogram_cmd =
  let run () name n_p n_p0 =
    with_circuit name (fun c ->
        let model = Delay_model.lines c in
        let ts = Target_sets.build c model ~n_p ~n_p0 in
        Printf.printf
          "P=%d faults (undetectable removed: %d direct, %d implication)\n\
           i0=%d, L_i0=%d, |P0|=%d, |P1|=%d\n\n"
          (List.length ts.Target_sets.p)
          ts.Target_sets.undetectable.Pdf_faults.Undetectable.direct_conflicts
          ts.Target_sets.undetectable
            .Pdf_faults.Undetectable.implication_conflicts
          ts.Target_sets.i0 ts.Target_sets.cutoff_length
          (List.length ts.Target_sets.p0)
          (List.length ts.Target_sets.p1);
        Pdf_util.Table.print
          (Pdf_paths.Histogram.to_table ~max_rows:20 ts.Target_sets.histogram))
  in
  Cmd.v
    (Cmd.info "histogram"
       ~doc:"Path-length histogram and P0/P1 selection (paper Table 2).")
    Term.(const run $ obs_setup $ circuit_arg $ n_p_arg $ n_p0_arg)

let criterion_conv =
  Arg.conv
    ( (fun s ->
        match Pdf_faults.Robust.criterion_of_name s with
        | Some c -> Ok c
        | None -> Error (`Msg ("unknown criterion " ^ s))),
      fun ppf c ->
        Format.pp_print_string ppf (Pdf_faults.Robust.criterion_name c) )

let criterion_arg =
  let doc = "Sensitization criterion: robust (paper) or nonrobust." in
  Arg.(value & opt criterion_conv Pdf_faults.Robust.Robust
       & info [ "criterion" ] ~doc)

let justify_conv =
  Arg.conv
    ( (fun s ->
        match Justify.kind_of_name s with
        | Some k -> Ok k
        | None -> Error (`Msg ("unknown justify backend " ^ s))),
      fun ppf k -> Format.pp_print_string ppf (Justify.kind_name k) )

let justify_arg =
  let doc =
    "Justification backend: sim (paper), podem (structural) or portfolio \
     (podem, then sim, then two random-restart sim members, stopping at \
     the first test or at podem's proof that none exists).  Defaults to \
     $(b,PDF_JUSTIFY), else sim."
  in
  Arg.(value & opt (some justify_conv) None & info [ "justify" ] ~doc)

(* The enrichment job's parameters, one flag each.  The --justify flag
   wins over PDF_JUSTIFY; neither set means the paper's simulation
   engine. *)
let job_term =
  let make n_p n_p0 seed criterion justify =
    let justify =
      match justify with Some k -> k | None -> Justify.default_kind ()
    in
    { Job.n_p; n_p0; seed; criterion; justify }
  in
  Term.(const make $ n_p_arg $ n_p0_arg $ seed_arg $ criterion_arg
        $ justify_arg)

let ordering_conv =
  Arg.conv
    ( (fun s ->
        match Ordering.of_name s with
        | Some o -> Ok o
        | None -> Error (`Msg ("unknown ordering " ^ s))),
      fun ppf o -> Format.pp_print_string ppf (Ordering.name o) )

let ordering_arg =
  let doc = "Compaction heuristic: uncomp, arbit, length or values." in
  Arg.(value & opt ordering_conv Ordering.Value_based
       & info [ "ordering" ] ~doc)

let dump_arg =
  let doc = "Write the generated tests to $(docv) (one v1/v3 line each)." in
  Arg.(value & opt (some string) None & info [ "dump-tests" ] ~docv:"FILE" ~doc)

let ledger_out_arg =
  let doc =
    "Write the run provenance ledger to $(docv) (JSON lines; one record \
     per generated test and per fault disposition).  Byte-identical \
     across --jobs values and simulation engines."
  in
  Arg.(value & opt (some string) None
       & info [ "ledger-out" ] ~docv:"FILE" ~doc)

let write_ledger path ledger =
  match (path, ledger) with
  | Some path, Some l ->
    write_or_die path (Pdf_obs.Ledger.write_jsonl l);
    Printf.printf "wrote %d ledger records to %s\n" (Pdf_obs.Ledger.size l)
      path
  | _ -> ()

let dump_tests path tests =
  match path with
  | None -> ()
  | Some file ->
    write_or_die file (Test_io.write_file tests);
    Printf.printf "wrote %d tests to %s\n" (List.length tests) file

let atpg_cmd =
  let relax_flag =
    Arg.(value & flag
         & info [ "relax" ]
             ~doc:"Report how many input bits the tests actually need \
                   (don't-care extraction).")
  in
  let run () name params ordering relax dump ledger_out =
    let ledger = Option.map (fun _ -> Pdf_obs.Ledger.create ()) ledger_out in
    let ans =
      answer_or_die
        (Session.atpg ?ledger (Lazy.force session) ~circuit:name ~params
           ~ordering ~relax)
    in
    print_string ans.Session.text;
    dump_tests dump ans.Session.tests;
    write_ledger ledger_out ledger
  in
  Cmd.v
    (Cmd.info "atpg"
       ~doc:"Basic test generation for the P0 target faults (paper Sec. 2).")
    Term.(const run $ obs_setup $ circuit_arg $ job_term $ ordering_arg
          $ relax_flag $ dump_arg $ ledger_out_arg)

let enrich_cmd =
  let coverage_flag =
    Arg.(value & flag
         & info [ "coverage" ]
             ~doc:"Print a per-path-length coverage comparison of the basic \
                   and enriched test sets.")
  in
  let run () name params coverage dump ledger_out =
    let ledger = Option.map (fun _ -> Pdf_obs.Ledger.create ()) ledger_out in
    let ans =
      answer_or_die
        (Session.enrich ?ledger (Lazy.force session) ~circuit:name ~params
           ~coverage)
    in
    print_string ans.Session.text;
    dump_tests dump ans.Session.tests;
    write_ledger ledger_out ledger
  in
  Cmd.v
    (Cmd.info "enrich"
       ~doc:"Test enrichment with target sets P0 and P1 (paper Sec. 3).")
    Term.(const run $ obs_setup $ circuit_arg $ job_term $ coverage_flag
          $ dump_arg $ ledger_out_arg)

let faultsim_cmd =
  let tests_file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TESTS"
             ~doc:"Test file: one v1/v3 line per test over {0,1}; blank \
                   lines and $(b,#) comments are ignored.")
  in
  let run () name n_p n_p0 file =
    with_circuit name (fun c ->
        let tests =
          match Test_io.read_file ~num_pis:c.Circuit.num_pis file with
          | Ok tests -> tests
          | Error e ->
            Printf.eprintf "%s: %s\n" file (Test_io.error_to_string e);
            exit 1
          | exception Sys_error msg ->
            prerr_endline msg;
            exit 1
        in
        let { Job.faults; p0; p1; _ } = Job.analyse c ~n_p ~n_p0 in
        let detected = Fault_sim.detected_by_tests c tests faults in
        let count_in ids = List.length (List.filter (Array.get detected) ids) in
        Printf.printf
          "%d tests: detect %d/%d of P0, %d/%d of P1, %d/%d of P0 u P1\n"
          (List.length tests) (count_in p0) (List.length p0) (count_in p1)
          (List.length p1) (Fault_sim.count detected) (Array.length faults))
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:"Robust path-delay fault simulation of a test file over P0 u P1.")
    Term.(const run $ obs_setup $ circuit_arg $ n_p_arg $ n_p0_arg $ tests_file)

let gen_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output netlist file.")
  in
  let verilog =
    Arg.(value & flag
         & info [ "verilog" ] ~doc:"Emit structural Verilog instead of .bench.")
  in
  let run () name verilog out =
    with_circuit name (fun c ->
        let text =
          if verilog then Pdf_circuit.Verilog_io.to_string c
          else Bench_io.to_string c
        in
        match out with
        | None -> print_string text
        | Some file ->
          write_or_die file (fun file ->
              Out_channel.with_open_text file (fun oc ->
                  output_string oc text));
          Printf.printf "wrote %s\n" file)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Emit a circuit (profile or file) as .bench or Verilog text.")
    Term.(const run $ obs_setup $ circuit_arg $ verilog $ out)

let count_cmd =
  let run () name =
    with_circuit name (fun c ->
        let model = Delay_model.lines c in
        let total = Pdf_paths.Count.total c in
        let len, at_longest = Pdf_paths.Count.longest c model in
        Printf.printf
          "%s: %.6g complete paths (%.6g path delay faults)\n\
           longest length %d (lines), %.6g paths at that length\n"
          c.Circuit.name total (2. *. total) len at_longest;
        let through = Pdf_paths.Count.through c in
        let busiest = ref 0 in
        Array.iteri
          (fun net v -> if v > through.(!busiest) then busiest := net)
          through;
        Printf.printf "busiest line: %s with %.6g paths through it\n"
          (Circuit.net_name c !busiest)
          through.(!busiest))
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:"Count paths without enumeration (exact dynamic program).")
    Term.(const run $ obs_setup $ circuit_arg)

let sta_cmd =
  let period_arg =
    Arg.(value & opt (some int) None
         & info [ "period" ] ~docv:"T"
             ~doc:"Clock period (defaults to the critical delay).")
  in
  let run () name period =
    with_circuit name (fun c ->
        let model = Delay_model.lines c in
        let sta =
          match period with
          | Some period -> Pdf_paths.Sta.compute ~period c model
          | None -> Pdf_paths.Sta.compute c model
        in
        let critical = Pdf_paths.Sta.critical_nets sta in
        Printf.printf
          "%s: period %d, %d critical net(s) of %d\n" c.Circuit.name
          sta.Pdf_paths.Sta.period (List.length critical)
          (Circuit.num_nets c);
        (* Slack histogram. *)
        let buckets = Hashtbl.create 32 in
        Array.iter
          (fun s ->
            if s <> max_int then
              Hashtbl.replace buckets s
                (1 + Option.value ~default:0 (Hashtbl.find_opt buckets s)))
          sta.Pdf_paths.Sta.slack;
        let t =
          Pdf_util.Table.create
            [ ("slack", Pdf_util.Table.Right); ("nets", Pdf_util.Table.Right) ]
        in
        Hashtbl.fold (fun s n acc -> (s, n) :: acc) buckets []
        |> List.sort compare
        |> List.iteri (fun i (s, n) ->
               if i < 15 then
                 Pdf_util.Table.add_row t
                   [ string_of_int s; string_of_int n ]);
        Pdf_util.Table.print t)
  in
  Cmd.v
    (Cmd.info "sta"
       ~doc:"Static timing analysis: arrival/required/slack per net.")
    Term.(const run $ obs_setup $ circuit_arg $ period_arg)

let timing_cmd =
  let rank_arg =
    Arg.(value & opt int 0
         & info [ "fault" ] ~docv:"K"
             ~doc:"Rank of the target fault in P (0 = longest path).")
  in
  let extra_arg =
    Arg.(value & opt (some int) None
         & info [ "extra" ] ~docv:"D"
             ~doc:"Injected delay per path segment (default: slack + 1).")
  in
  let run () name n_p n_p0 seed rank extra =
    with_circuit name (fun c ->
        let model = Delay_model.lines c in
        let { Job.faults; _ } = Job.analyse c ~n_p ~n_p0 in
        if rank < 0 || rank >= Array.length faults then begin
          Printf.eprintf "fault rank out of range (P has %d faults)\n"
            (Array.length faults);
          exit 1
        end;
        let p = faults.(rank) in
        let period = Pdf_core.Timing.nominal_period c model in
        let slack = period - p.Fault_sim.length in
        let extra = match extra with Some e -> e | None -> slack + 1 in
        Printf.printf
          "fault #%d: %s (length %d, slack %d), clock period %d\n" rank
          (Pdf_faults.Fault.to_string c p.Fault_sim.fault)
          p.Fault_sim.length slack period;
        let engine = Pdf_core.Justify.create c in
        let rng = Pdf_util.Rng.create seed in
        match Pdf_core.Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
        | None -> print_endline "no robust test found"
        | Some t ->
          Printf.printf "robust test: %s\n" (Test_pair.to_string t);
          let inject =
            { Pdf_core.Timing.path = p.Fault_sim.fault.Pdf_faults.Fault.path;
              extra }
          in
          let faulty = Pdf_core.Timing.simulate ~inject c model t in
          Printf.printf
            "with +%d per segment the faulty circuit settles at t=%d: %s\n"
            extra faulty.Pdf_core.Timing.settle_time
            (if
               Pdf_core.Timing.detects c model ~t_sample:period ~inject t
             then "DETECTED"
             else "not detected (fault within slack)"))
  in
  Cmd.v
    (Cmd.info "timing"
       ~doc:"Timing-simulate a robust test against an injected path fault.")
    Term.(const run $ obs_setup $ circuit_arg $ n_p_arg $ n_p0_arg $ seed_arg
          $ rank_arg $ extra_arg)

let diagnose_cmd =
  let rank_arg =
    Arg.(value & opt int 0
         & info [ "fault" ] ~docv:"K"
             ~doc:"Rank in P of the fault to inject as ground truth.")
  in
  let top_arg =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"N" ~doc:"Candidates to print.")
  in
  let run () name n_p n_p0 seed rank top =
    with_circuit name (fun c ->
        let model = Delay_model.lines c in
        let { Job.faults; p0; p1; _ } = Job.analyse c ~n_p ~n_p0 in
        if rank < 0 || rank >= Array.length faults then begin
          Printf.eprintf "fault rank out of range (P has %d faults)\n"
            (Array.length faults);
          exit 1
        end;
        let true_fault = faults.(rank) in
        let res = Atpg.enrich c ~seed ~faults ~p0 ~p1 in
        let tests = res.Atpg.tests in
        let period = Pdf_core.Timing.nominal_period c model in
        let slack = period - true_fault.Fault_sim.length in
        let inject =
          { Pdf_core.Timing.path =
              true_fault.Fault_sim.fault.Pdf_faults.Fault.path;
            extra = slack + 1 }
        in
        let observed =
          List.map
            (fun t -> Pdf_core.Timing.detects c model ~t_sample:period ~inject t)
            tests
        in
        Printf.printf
          "injected: %s (length %d)\nsignature: %d/%d tests fail\n\n"
          (Pdf_faults.Fault.to_string c true_fault.Fault_sim.fault)
          true_fault.Fault_sim.length
          (List.length (List.filter Fun.id observed))
          (List.length tests);
        let verdicts = Pdf_core.Diagnose.diagnose c tests faults ~observed in
        Printf.printf "%d candidate fault(s); top %d:\n"
          (List.length verdicts) top;
        List.iteri
          (fun i (v : Pdf_core.Diagnose.verdict) ->
            if i < top then
              Printf.printf
                "  %s%s (robustly explains %d, weakly %d, unexplained %d)\n"
                (Pdf_faults.Fault.to_string c
                   faults.(v.Pdf_core.Diagnose.fault_id).Fault_sim.fault)
                (if v.Pdf_core.Diagnose.fault_id = rank then "   <- injected"
                 else "")
                v.Pdf_core.Diagnose.explained
                v.Pdf_core.Diagnose.maybe_explained
                v.Pdf_core.Diagnose.unexplained)
          verdicts)
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Inject a fault, capture its pass/fail signature, diagnose it.")
    Term.(const run $ obs_setup $ circuit_arg $ n_p_arg $ n_p0_arg $ seed_arg
          $ rank_arg $ top_arg)

let scale_arg =
  let scale_conv =
    Arg.conv
      ( (fun s ->
          match Workload.of_label s with
          | Some sc -> Ok sc
          | None -> Error (`Msg ("unknown scale " ^ s))),
        fun ppf (s : Workload.scale) ->
          Format.pp_print_string ppf s.Workload.label )
  in
  Arg.(value & opt scale_conv Workload.small
       & info [ "scale" ] ~doc:"Experiment scale: small or paper.")

let ablations_cmd =
  let module Ablations = Pdf_experiments.Ablations in
  let which =
    let ids =
      List.map
        (fun (a : Ablations.ablation) -> (a.Ablations.id, a.Ablations.id))
        Ablations.all
    in
    Arg.(value & opt (some (enum ids)) None
         & info [ "only" ] ~docv:"EN"
             ~doc:"Run a single ablation: e1..e6.")
  in
  let profiles_arg =
    Arg.(value & opt_all string []
         & info [ "profile" ] ~docv:"NAME"
             ~doc:"Profile(s) to run every ablation on (default: each \
                   ablation's own circuits — E1 s641 and b09, E2 s641, E3 \
                   b03 and b09, E4 and E5 b09 and s1196, E6 b09).")
  in
  let run () scale which names seed =
    let find n =
      match Profiles.find n with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown profile %s\n" n;
        exit 1
    in
    let profiles = List.map find names in
    let want label = match which with None -> true | Some w -> w = label in
    List.iter
      (fun (a : Ablations.ablation) ->
        if want a.Ablations.id then
          let profiles =
            if names = [] then List.map find a.Ablations.circuits else profiles
          in
          print_string (a.Ablations.run ~seed scale profiles))
      Ablations.all
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Run the beyond-the-paper ablations (E1-E6).")
    Term.(const run $ obs_setup $ scale_arg $ which $ profiles_arg $ seed_arg)

let tables_cmd =
  let which =
    let tables = List.init 7 (fun i -> (string_of_int (i + 1), i + 1)) in
    Arg.(value & opt (some (enum tables)) None
         & info [ "table" ] ~docv:"N" ~doc:"Only regenerate table N (1-7).")
  in
  let csv_dir =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR"
             ~doc:"Also write Tables 3-7 as CSV files into $(docv).")
  in
  let run () scale which csv seed =
    let module Tables = Pdf_experiments.Tables in
    let module Runner = Pdf_experiments.Runner in
    let need n =
      match which with None -> true | Some w -> w = n
    in
    if need 1 then print_string (Tables.table1 ());
    if need 2 then print_string (Tables.table2 scale);
    if need 3 || need 4 || need 5 || need 6 || need 7 then begin
      (* Each circuit run is independent (own seed-derived RNGs, own
         justification engine); fan them out across the default pool.
         Pool.map keeps the Profiles.table_rows order, so the rendered
         tables are identical whatever --jobs is. *)
      let pool = Pdf_par.Pool.default () in
      let table_runs =
        Pdf_par.Pool.map pool
          (fun p ->
            Log.raw_line (Printf.sprintf "running %s..." p.Profiles.name);
            Runner.run ~pool ~seed scale p)
          Profiles.table_rows
      in
      let star_runs =
        if need 6 then
          Pdf_par.Pool.map pool
            (fun p ->
              Log.raw_line (Printf.sprintf "running %s..." p.Profiles.name);
              Runner.run ~pool ~seed ~with_basics:false scale p)
            Profiles.star_rows
        else []
      in
      if need 3 then print_string (Tables.table3 table_runs);
      if need 4 then print_string (Tables.table4 table_runs);
      if need 5 then print_string (Tables.table5 table_runs);
      if need 6 then print_string (Tables.table6 (table_runs @ star_runs));
      if need 7 then print_string (Tables.table7 table_runs);
      match csv with
      | None -> ()
      | Some dir ->
        write_or_die dir (fun dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
        List.iter
          (fun (stem, data) ->
            let path = Filename.concat dir (stem ^ ".csv") in
            write_or_die path (Pdf_util.Csv.write_file data);
            Printf.eprintf "wrote %s\n" path)
          (Tables.csv_exports ~table_runs
             ~enrich_runs:(table_runs @ star_runs))
    end;
    if which = None then print_string (Tables.paper_reference ())
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's tables; without $(b,--table), end with \
             the published values for comparison.")
    Term.(const run $ obs_setup $ scale_arg $ which $ csv_dir $ seed_arg)

let explain_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FAULT"
             ~doc:"Fault id (integer) or a substring of the fault name \
                   (e.g. a net on the path).")
  in
  let run () name query params =
    let ans =
      answer_or_die
        (Session.explain (Lazy.force session) ~circuit:name ~params ~query)
    in
    print_string ans.Session.text
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run enrichment with a provenance ledger and explain one \
             fault's disposition: which test detects it (and how it was \
             folded in), or why it was aborted, left uncovered, or \
             eliminated as undetectable.")
    Term.(const run $ obs_setup $ circuit_arg $ query_arg $ job_term)

let why_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FAULT"
             ~doc:"Fault id (integer) or a substring of the fault name \
                   (e.g. a net on the path).")
  in
  let run () name query params =
    let ans =
      answer_or_die
        (Session.why (Lazy.force session) ~circuit:name ~params ~query)
    in
    print_string ans.Session.text
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Explain one fault's disposition plus the justification \
             effort charged to it (runs, trials, backtracks, resim gate \
             evals) and its abort forensics: the last requirement \
             conflict hit while targeting it and the deepest conflict \
             level reached.")
    Term.(const run $ obs_setup $ circuit_arg $ query_arg $ job_term)

let profile_cmd =
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K"
             ~doc:"Number of hot nets in the ranking table.")
  in
  let json_out_arg =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:"Also write the profile as a pdf-profile-report/1 JSON \
                   document to $(docv).")
  in
  let run () name job top json_out =
    with_circuit name (fun c ->
        let p = Hotspots.profile job c in
        print_string (Hotspots.render ~k:top p);
        (match json_out with
        | None -> ()
        | Some path -> write_or_die path (Hotspots.write_json ~k:top p));
        (* With --trace-out active, add the per-level effort histogram
           as a Perfetto counter track next to the span timeline. *)
        match !trace_collector with
        | Some coll -> Hotspots.counter_track p coll
        | None -> ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run enrichment with per-net effort attribution and print \
             where the justification work went: semantic effort totals, \
             a per-level histogram, and the hottest nets.  Output is \
             byte-identical across --jobs values.")
    Term.(const run $ obs_setup $ circuit_arg $ job_term $ top_arg
          $ json_out_arg)

let report_cmd =
  let run () name params ledger_out =
    let s = Lazy.force session in
    let ans = answer_or_die (Session.report s ~circuit:name ~params) in
    print_string ans.Session.text;
    match ledger_out with
    | None -> ()
    | Some _ -> (
      (* The provenance cache hands back the same run [report] just
         rendered, so the written ledger matches the printed tables. *)
      match Session.provenance s ~circuit:name ~params with
      | Ok p -> write_ledger ledger_out (Some p.Pdf_experiments.Provenance.ledger)
      | Error e ->
        prerr_endline (Session.error_message e);
        exit 1)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run enrichment with a provenance ledger and print the \
             disposition summary and per-test provenance tables.")
    Term.(const run $ obs_setup $ circuit_arg $ job_term $ ledger_out_arg)

let trace_cmd =
  let run () name n_p n_p0 seed criterion =
    with_circuit name (fun c ->
        (* Aggregate every span fired by the pipeline into one row per
           phase, then compare the instrumented self-time total against
           the independently measured wall clock. *)
        let agg = Span.agg () in
        (* Tee onto any sink obs_setup already installed (--trace-out)
           and restore it afterwards, so this subcommand composes with
           the shared trace exporter. *)
        let prev_sink = Span.sink () in
        Span.set_sink (Span.tee prev_sink (Span.agg_sink agg));
        let t0 = Unix.gettimeofday () in
        let { Job.sets = ts; faults; p0; p1 }, res =
          Span.with_ "total" (fun () ->
              let job = Job.analyse ~criterion c ~n_p ~n_p0 in
              let { Job.faults; p0; p1; _ } = job in
              (job, Atpg.enrich c ~seed ~faults ~p0 ~p1))
        in
        let wall = Unix.gettimeofday () -. t0 in
        Span.set_sink prev_sink;
        Pdf_experiments.Runner.set_enrich_gauges res ~p0 ~p1;
        Printf.printf
          "%s: enrichment run, |P0|=%d |P1|=%d, %d/%d detected, %d tests\n\n"
          c.Circuit.name
          (List.length ts.Target_sets.p0)
          (List.length ts.Target_sets.p1)
          (Fault_sim.count res.Atpg.detected)
          (Array.length faults)
          (List.length res.Atpg.tests);
        Pdf_util.Table.print (Span.agg_table ~wall_s:wall agg);
        let covered = Span.agg_self_total agg in
        Printf.printf
          "span self-time total %.3fs of %.3fs wall-clock (%.1f%% covered)\n"
          covered wall
          (if wall > 0. then 100. *. covered /. wall else 0.))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an enrichment experiment with span tracing enabled and \
             print the per-phase profile (combine with --metrics-out for \
             the full counter dump).")
    Term.(const run $ obs_setup $ circuit_arg $ n_p_arg $ n_p0_arg $ seed_arg
          $ criterion_arg)

let fuzz_cmd =
  let rounds_arg =
    Arg.(value & opt int Pdf_check.Fuzz.default_config.Pdf_check.Fuzz.rounds
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Number of fuzzing rounds (one random circuit each).")
  in
  let profile_arg =
    let doc =
      Printf.sprintf
        "Generator profile: %s.  Each profile is a grid of circuit shapes \
         cycled through round by round."
        (String.concat ", "
           (List.map
              (fun p -> p.Pdf_check.Fuzz.profile_name)
              Pdf_check.Fuzz.profiles))
    in
    Arg.(value & opt string "default" & info [ "profile" ] ~doc)
  in
  let time_budget_arg =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECONDS"
             ~doc:"Stop starting new rounds once $(docv) seconds of \
                   wall-clock have elapsed (for CI budgets).")
  in
  let out_arg =
    Arg.(value & opt string "_fuzz"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk reproducers (.bench + .repro \
                   pairs), created on the first violation.")
  in
  let no_emit_flag =
    Arg.(value & flag
         & info [ "no-emit" ]
             ~doc:"Do not write reproducer files for violations.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Instead of fuzzing, re-run the oracle recorded in a \
                   .repro reproducer file and exit 1 if it still fails.")
  in
  let oracle_arg =
    Arg.(value & opt_all string []
         & info [ "oracle" ] ~docv:"NAME"
             ~doc:"Restrict the campaign to this oracle (repeatable); \
                   default is the full registry.")
  in
  let run () seed rounds profile time_budget out no_emit replay oracles
      ledger_out =
    match replay with
    | Some path -> (
      match Pdf_check.Fuzz.replay path with
      | Error msg ->
        prerr_endline msg;
        exit 2
      | Ok (oracle, Pdf_check.Oracle.Pass) ->
        Printf.printf "replay %s: oracle %s passes (violation fixed)\n" path
          oracle
      | Ok (oracle, Pdf_check.Oracle.Skip msg) ->
        Printf.printf "replay %s: oracle %s skipped (%s)\n" path oracle msg
      | Ok (oracle, Pdf_check.Oracle.Fail msg) ->
        Printf.printf "replay %s: oracle %s STILL FAILS\n  %s\n" path oracle
          msg;
        exit 1)
    | None ->
      let profile =
        match Pdf_check.Fuzz.profile_of_name profile with
        | Some p -> p
        | None ->
          prerr_endline
            (Printf.sprintf "unknown profile %S (try %s)" profile
               (String.concat ", "
                  (List.map
                     (fun p -> p.Pdf_check.Fuzz.profile_name)
                     Pdf_check.Fuzz.profiles)));
          exit 2
      in
      let ledger =
        match ledger_out with
        | Some _ -> Some (Pdf_obs.Ledger.create ())
        | None -> None
      in
      List.iter
        (fun n ->
          if Pdf_check.Oracle.find n = None then begin
            prerr_endline
              (Printf.sprintf "unknown oracle %S (try %s)" n
                 (String.concat ", " (Pdf_check.Oracle.names ())));
            exit 2
          end)
        oracles;
      let cfg =
        {
          Pdf_check.Fuzz.default_config with
          Pdf_check.Fuzz.seed;
          rounds;
          profile;
          time_budget_s = time_budget;
          out_dir = out;
          emit = not no_emit;
          oracles;
        }
      in
      let s = Pdf_check.Fuzz.run ?ledger cfg in
      let passed, skipped = Pdf_check.Fuzz.totals s in
      Printf.printf
        "fuzz: %d rounds, %d oracle checks (%d passed, %d skipped), %d \
         violation(s) in %.1fs\n"
        s.Pdf_check.Fuzz.rounds_run s.Pdf_check.Fuzz.checks
        passed skipped
        (List.length s.Pdf_check.Fuzz.violations)
        s.Pdf_check.Fuzz.elapsed_s;
      List.iter
        (fun (v : Pdf_check.Fuzz.violation) ->
          Printf.printf
            "  round %d oracle %s: %s\n    shrunk %d -> %d gates%s\n"
            v.Pdf_check.Fuzz.round v.Pdf_check.Fuzz.oracle
            v.Pdf_check.Fuzz.message
            (Circuit.num_gates v.Pdf_check.Fuzz.circuit)
            (Circuit.num_gates v.Pdf_check.Fuzz.shrunk)
            (match v.Pdf_check.Fuzz.files with
            | Some (_, repro) -> Printf.sprintf ", reproducer %s" repro
            | None -> ""))
        s.Pdf_check.Fuzz.violations;
      List.iter
        (fun (t : Pdf_check.Fuzz.oracle_tally) ->
          Printf.printf "  %-14s %d passed, %d skipped\n"
            t.Pdf_check.Fuzz.oracle_name t.Pdf_check.Fuzz.passed
            t.Pdf_check.Fuzz.skipped)
        s.Pdf_check.Fuzz.per_oracle;
      write_ledger ledger_out ledger;
      if s.Pdf_check.Fuzz.violations <> [] then exit 1;
      match Pdf_check.Fuzz.idle_oracles s with
      | [] -> ()
      | idle ->
        flush stdout;
        prerr_endline
          (Printf.sprintf "fuzz: no check passed for oracle(s) %s"
             (String.concat ", " idle));
        exit 3
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: run every oracle (packed vs scalar \
             simulation, jobs determinism, justification vs brute force, \
             robust vs timing detection, enrichment invariants) on random \
             circuits and shrink any failure to a minimal reproducer.  \
             Exits 1 on a violation, and 3 when some oracle of the \
             campaign passed no check (every check it ran was skipped).")
    Term.(const run $ obs_setup $ seed_arg $ rounds_arg $ profile_arg
          $ time_budget_arg $ out_arg $ no_emit_flag $ replay_arg
          $ oracle_arg $ ledger_out_arg)

let bench_cmd =
  let suite_arg =
    Arg.(value & opt (some string) None
         & info [ "suite" ] ~docv:"NAME"
             ~doc:"Benchmark suite to run (see $(b,--list)).")
  in
  let list_flag =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List the available suites and exit.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the report as JSON (unified pdf-bench-report/1 \
                   schema: fingerprint, GC telemetry, throughput).")
  in
  let compare_arg =
    Arg.(value & opt (some string) None
         & info [ "compare" ] ~docv:"BASELINE"
             ~doc:"Compare against a baseline report written by a previous \
                   $(b,--out); exit 1 on a statistically significant \
                   regression.")
  in
  let max_regress_arg =
    Arg.(value & opt float 10.
         & info [ "max-regress" ] ~docv:"PCT"
             ~doc:"Minimum median slowdown (percent) that counts as a \
                   regression; the slowdown must also clear the noise band \
                   of the two runs.")
  in
  let warmup_arg =
    Arg.(value & opt (int_at_least 0) 1
         & info [ "warmup" ] ~docv:"N" ~doc:"Untimed warmup executions.")
  in
  let repeat_arg =
    Arg.(value & opt (int_at_least 1) 10
         & info [ "repeat" ] ~docv:"N" ~doc:"Timed repetitions per case.")
  in
  let min_sample_arg =
    Arg.(value & opt float 0.05
         & info [ "min-sample" ] ~docv:"SECONDS"
             ~doc:"Auto-calibrate the inner loop so each sample lasts at \
                   least this long (0 disables calibration).")
  in
  let circuits_arg =
    Arg.(value & opt string ""
         & info [ "circuits" ] ~docv:"NAMES"
             ~doc:"Comma-separated profile names (default: the suite's \
                   smoke set b03,b09,s641).")
  in
  let tests_arg =
    Arg.(value & opt (int_at_least 0) Pdf_experiments.Benchmark.default_params
                   .Pdf_experiments.Benchmark.n_tests
         & info [ "tests" ] ~docv:"N"
             ~doc:"Random two-pattern tests for simulation workloads.")
  in
  let bench_n_p_arg =
    Arg.(value & opt n_p_conv Pdf_experiments.Benchmark.default_params
                   .Pdf_experiments.Benchmark.n_p
         & info [ "n-p" ] ~docv:"N" ~doc:"Fault budget N_P.")
  in
  let bench_n_p0_arg =
    Arg.(value & opt n_p0_conv Pdf_experiments.Benchmark.default_params
                   .Pdf_experiments.Benchmark.n_p0
         & info [ "n-p0" ] ~docv:"N" ~doc:"Primary-set threshold N_P0.")
  in
  let run () suite list out compare max_regress warmup repeat min_sample
      circuits tests n_p n_p0 seed =
    let module Benchmark = Pdf_experiments.Benchmark in
    if list then begin
      let t =
        Pdf_util.Table.create
          [ ("suite", Pdf_util.Table.Left);
            ("description", Pdf_util.Table.Left) ]
      in
      List.iter
        (fun s ->
          Pdf_util.Table.add_row t
            [ s.Benchmark.suite_name; s.Benchmark.suite_doc ])
        Pdf_serve.Serve_suite.all;
      Pdf_util.Table.print t
    end
    else begin
      let suite =
        match suite with
        | None ->
          Printf.eprintf
            "pdfatpg: bench needs --suite NAME (try --list)\n";
          exit 2
        | Some name -> (
          match
            List.find_opt
              (fun s -> s.Benchmark.suite_name = name)
              Pdf_serve.Serve_suite.all
          with
          | Some s -> s
          | None ->
            Printf.eprintf
              "pdfatpg: unknown suite %S (try --list)\n" name;
            exit 2)
      in
      let circuits =
        match Benchmark.profiles_of_spec circuits with
        | Ok l -> l
        | Error msg ->
          Printf.eprintf "pdfatpg: %s\n" msg;
          exit 2
      in
      let params =
        {
          Benchmark.circuits;
          n_tests = tests;
          n_p;
          n_p0;
          seed;
        }
      in
      let report =
        try
          Benchmark.run_suite ~warmup ~repeat ~min_sample_s:min_sample
            ~params ~progress:Log.raw_line suite
        with Failure msg ->
          Printf.eprintf "pdfatpg: bench: %s\n" msg;
          exit 1
      in
      Printf.printf "suite %s on %s\n\n" report.Benchmark.suite
        (Pdf_obs.Fingerprint.summary_line report.Benchmark.fingerprint);
      Pdf_util.Table.print (Benchmark.to_table report);
      (match out with
      | None -> ()
      | Some path ->
        write_or_die path (Benchmark.write_report report);
        Printf.printf "wrote %s\n" path);
      let gate_failures = suite.Benchmark.gate report.Benchmark.results in
      List.iter
        (fun failure ->
          Printf.eprintf "FAIL: suite %s, gate %s\n" report.Benchmark.suite
            failure)
        gate_failures;
      if gate_failures <> [] then exit 1;
      match compare with
      | None -> ()
      | Some path -> (
        match Pdf_obs.Json_text.parse_file path with
        | Error msg ->
          Printf.eprintf "pdfatpg: cannot read baseline %s: %s\n" path msg;
          exit 2
        | Ok baseline -> (
          (* Surface environment drift: a slower median on a different
             machine / engine / job count is drift, not a code
             regression — the gate still fires, but the output says
             what changed. *)
          (match
             Pdf_obs.Json_text.member "fingerprint" baseline
           with
          | Some fp ->
            let field name to_s =
              Option.map to_s (Pdf_obs.Json_text.member name fp)
            in
            let cur = report.Benchmark.fingerprint in
            let note name base cur =
              if base <> cur then
                Printf.printf
                  "note: fingerprint mismatch on %s (baseline %s, \
                   current %s)\n"
                  name base cur
            in
            let str v =
              Option.value ~default:"?" (Pdf_obs.Json_text.to_str v)
            in
            let any v =
              match v with
              | Pdf_obs.Json_text.Bool b -> string_of_bool b
              | Pdf_obs.Json_text.Num f -> Pdf_obs.Json_text.float f
              | v -> str v
            in
            (match field "hostname" str with
            | Some h -> note "hostname" h cur.Pdf_obs.Fingerprint.hostname
            | None -> ());
            (match field "jobs" any with
            | Some j ->
              note "jobs" j (string_of_int cur.Pdf_obs.Fingerprint.jobs)
            | None -> ())
          | None -> ());
          match
            Benchmark.compare_with_baseline ~max_regress_pct:max_regress
              ~baseline report
          with
          | Error msg ->
            Printf.eprintf "pdfatpg: %s\n" msg;
            exit 2
          | Ok cmp ->
            Printf.printf "\ncompared against %s (max regress %.0f%%):\n\n"
              path max_regress;
            Pdf_util.Table.print (Benchmark.comparison_table cmp);
            List.iter
              (fun name ->
                Printf.printf "note: baseline-only case skipped: %s\n" name)
              cmp.Benchmark.only_in_baseline;
            List.iter
              (fun name ->
                Printf.printf "note: no baseline for new case: %s\n" name)
              cmp.Benchmark.only_in_current;
            if cmp.Benchmark.regressions <> [] then begin
              List.iter
                (fun (d : Benchmark.delta) ->
                  match d.Benchmark.verdict with
                  | Pdf_obs.Bstat.Slower pct ->
                    Printf.printf
                      "REGRESSION: %s is %.1f%% slower than baseline \
                       (%.3e s -> %.3e s, noise %.1f%%/%.1f%%)\n"
                      d.Benchmark.d_case pct d.Benchmark.base_median_s
                      d.Benchmark.cur_median_s d.Benchmark.base_noise_pct
                      d.Benchmark.cur_noise_pct
                  | _ -> ())
                cmp.Benchmark.regressions;
              exit 1
            end
            else Printf.printf "no significant regression\n"))
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run a statistical benchmark suite (warmup, calibrated \
             repetitions, IQR outlier rejection, GC and throughput \
             telemetry); write the unified BENCH JSON report, apply the \
             suite's own gate and/or gate against a baseline (exit 1 when \
             a gate fails or on a significant regression).")
    Term.(const run $ obs_setup $ suite_arg $ list_flag $ out_arg
          $ compare_arg $ max_regress_arg $ warmup_arg $ repeat_arg
          $ min_sample_arg $ circuits_arg $ tests_arg $ bench_n_p_arg
          $ bench_n_p0_arg $ seed_arg)

let serve_cmd =
  (* The flags' defaults are the server's own; the bind is not read. *)
  let defaults = Server.default_config (Server.Unix_path "") in
  let unix_arg =
    Arg.(value & opt (some string) None
         & info [ "unix" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) (unlinked on \
                   startup and shutdown).")
  in
  let tcp_arg =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Listen on a TCP socket, e.g. 127.0.0.1:7333.")
  in
  let max_clients_arg =
    Arg.(value & opt (int_at_least 1) defaults.Server.max_clients
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Concurrent connections; excess connections get a \
                   $(b,busy) error frame.")
  in
  let max_line_arg =
    Arg.(value & opt (int_at_least 1) defaults.Server.max_line_bytes
         & info [ "max-line-bytes" ] ~docv:"BYTES"
             ~doc:"Longest accepted request line ($(b,line_too_long)).")
  in
  let max_n_p_serve_arg =
    Arg.(value & opt int defaults.Server.max_n_p
         & info [ "max-n-p" ] ~docv:"N"
             ~doc:"Per-request cap on n_p ($(b,budget_exceeded)).")
  in
  let max_n_p0_serve_arg =
    Arg.(value & opt int defaults.Server.max_n_p0
         & info [ "max-n-p0" ] ~docv:"N"
             ~doc:"Per-request cap on n_p0 ($(b,budget_exceeded)).")
  in
  let chunk_arg =
    Arg.(value & opt (int_at_least 1) defaults.Server.chunk_bytes
         & info [ "chunk" ] ~docv:"BYTES"
             ~doc:"Answer-streaming slice size per chunk frame.")
  in
  let run () unix tcp max_clients max_line_bytes max_n_p max_n_p0 chunk
      justify =
    (match justify with
    | Some k -> Session.set_default_justify k
    | None -> ());
    let usage () =
      Printf.eprintf "pdfatpg: serve needs --unix PATH or --tcp HOST:PORT\n";
      exit 2
    in
    let bind =
      match (unix, tcp) with
      | Some path, None -> Server.Unix_path path
      | None, Some spec -> (
        match String.rindex_opt spec ':' with
        | None ->
          Printf.eprintf "pdfatpg: invalid --tcp %S (want HOST:PORT)\n" spec;
          exit 2
        | Some i -> (
          let host = String.sub spec 0 i in
          let host = if host = "" then "127.0.0.1" else host in
          match
            int_of_string_opt
              (String.sub spec (i + 1) (String.length spec - i - 1))
          with
          | Some port -> Server.Tcp (host, port)
          | None ->
            Printf.eprintf "pdfatpg: invalid --tcp port in %S\n" spec;
            exit 2))
      | Some _, Some _ ->
        Printf.eprintf "pdfatpg: choose one of --unix and --tcp\n";
        exit 2
      | None, None -> usage ()
    in
    let cfg =
      {
        (Server.default_config bind) with
        Server.max_clients;
        max_line_bytes;
        max_n_p;
        max_n_p0;
        chunk_bytes = chunk;
      }
    in
    Server.run
      ~ready:(fun () ->
        Printf.printf "pdfatpg: serving protocol %d on %s\n%!"
          Pdf_serve.Protocol.protocol_version
          (Server.bind_to_string bind))
      cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve ATPG queries over a Unix or TCP socket with warm \
             circuit sessions: parse, levelize and analyze each circuit \
             once, then answer atpg/enrich/explain/report/ledger requests \
             from the session caches.  Line-delimited JSON protocol (see \
             PROTOCOL.md); a $(b,GET /metrics) line gets the live \
             Prometheus registry; a $(b,shutdown) request stops the \
             server.")
    Term.(const run $ obs_setup $ unix_arg $ tcp_arg $ max_clients_arg
          $ max_line_arg $ max_n_p_serve_arg $ max_n_p0_serve_arg
          $ chunk_arg $ justify_arg)

let version_cmd =
  let run () =
    let fp =
      Pdf_obs.Fingerprint.capture ~jobs:(Pdf_par.Pool.default_jobs ()) ()
    in
    let t =
      Pdf_util.Table.create
        [ ("field", Pdf_util.Table.Left); ("value", Pdf_util.Table.Left) ]
    in
    List.iter
      (fun (k, v) -> Pdf_util.Table.add_row t [ k; v ])
      (Pdf_obs.Fingerprint.to_table_lines fp);
    Pdf_util.Table.print t
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:"Print the full environment fingerprint (library version, git \
             revision, OCaml version, hostname, OS type, word size, jobs) \
             — the same record every benchmark report embeds.")
    Term.(const run $ obs_setup)

let () =
  let doc = "Path delay fault test generation with multiple sets of target faults." in
  let version =
    Pdf_obs.Fingerprint.summary_line (Pdf_obs.Fingerprint.capture ())
  in
  let info = Cmd.info "pdfatpg" ~version ~doc in
  let group =
    Cmd.group info
      [
        profiles_cmd; info_cmd; paths_cmd; histogram_cmd; count_cmd;
        sta_cmd; atpg_cmd; enrich_cmd; faultsim_cmd; gen_cmd; timing_cmd;
        diagnose_cmd; tables_cmd; ablations_cmd; trace_cmd; explain_cmd;
        why_cmd; profile_cmd; report_cmd; fuzz_cmd; bench_cmd; serve_cmd;
        version_cmd;
      ]
  in
  exit (Cmd.eval group)
