module Bstat = Pdf_obs.Bstat
module Fingerprint = Pdf_obs.Fingerprint
module Json = Pdf_obs.Json_text
module Metrics = Pdf_obs.Metrics
module Circuit = Pdf_circuit.Circuit
module Profiles = Pdf_synth.Profiles
module Delay_model = Pdf_paths.Delay_model
module Enumerate = Pdf_paths.Enumerate
module Target_sets = Pdf_faults.Target_sets
module Undetectable = Pdf_faults.Undetectable
module Fault_sim = Pdf_core.Fault_sim
module Word = Pdf_values.Word
module Wsim = Pdf_bitsim.Wsim
module Wreq = Pdf_bitsim.Wreq
module Test_pair = Pdf_core.Test_pair
module Justify = Pdf_core.Justify
module Podem = Pdf_core.Podem
module Effort = Pdf_core.Effort
module Generators = Pdf_synth.Generators
module Atpg = Pdf_core.Atpg
module Job = Pdf_core.Job
module Ordering = Pdf_core.Ordering
module Pool = Pdf_par.Pool
module Span = Pdf_obs.Span
module Attrib = Pdf_obs.Attrib

type params = {
  circuits : Profiles.t list;
  n_tests : int;
  n_p : int;
  n_p0 : int;
  seed : int;
}

let profile_exn name =
  match Profiles.find name with
  | Some p -> p
  | None -> failwith (Printf.sprintf "unknown circuit profile %S" name)

let default_params =
  {
    circuits = List.map profile_exn [ "b03"; "b09"; "s641" ];
    n_tests = 126;
    n_p = 400;
    n_p0 = 80;
    seed = Job.default.Job.seed;
  }

let profiles_of_spec spec =
  if String.trim spec = "" then Ok default_params.circuits
  else
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match Profiles.find (String.trim name) with
        | Some p -> collect (p :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown circuit profile %S (see `pdfatpg profiles`)"
               (String.trim name)))
    in
    collect [] (String.split_on_char ',' spec)

type case = {
  case_name : string;
  units : (string * float) list;
  thunk : unit -> unit;
}

type result = {
  r_case : string;
  r_units : (string * float) list;
  r_meas : Bstat.measurement;
  r_stats : Bstat.summary;
}

type suite = {
  suite_name : string;
  suite_doc : string;
  cases : params -> case list;
  gate : result list -> string list;
}

let no_gate (_ : result list) = []

let find_result results name =
  List.find_opt (fun r -> String.equal r.r_case name) results

let require results names =
  List.filter_map
    (fun name ->
      match find_result results name with
      | Some _ -> None
      | None -> Some (Printf.sprintf "presence: case %s missing" name))
    names

let circuit_cases results ~kernel =
  let suffix = "/" ^ kernel in
  List.filter_map
    (fun r ->
      if String.ends_with ~suffix r.r_case then
        Some
          ( String.sub r.r_case 0
              (String.length r.r_case - String.length suffix),
            r )
      else None)
    results

(* ------------------------------------------------------------------ *)
(* Shared workload builders                                            *)
(* ------------------------------------------------------------------ *)

let random_tests c ~n ~seed =
  let rng = Pdf_util.Rng.create seed in
  List.init n (fun _ ->
      let pat () =
        Array.init c.Circuit.num_pis (fun _ -> Pdf_util.Rng.bool rng)
      in
      Test_pair.create (pat ()) (pat ()))

type circuit_setup = {
  cs_profile : Profiles.t;
  cs_circuit : Circuit.t;
  cs_job : Job.analysis;
  cs_tests : Test_pair.t list;
}

let circuit_setup params profile =
  let c = Profiles.circuit profile in
  let job = Job.analyse c ~n_p:params.n_p ~n_p0:params.n_p0 in
  {
    cs_profile = profile;
    cs_circuit = c;
    cs_job = job;
    cs_tests =
      random_tests c ~n:params.n_tests
        ~seed:(params.seed + Hashtbl.hash profile.Profiles.name);
  }

(* One P0 u P1 enrichment run over the set-up's faults. *)
let enrich_run s ~seed ?attrib () =
  let { Job.faults; p0; p1; _ } = s.cs_job in
  Atpg.enrich ?attrib s.cs_circuit ~seed ~faults ~p0 ~p1

let word_batches n_tests = (n_tests + 62) / 63

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)
(* ------------------------------------------------------------------ *)

(* The words one [Wreq.satisfied_mask] pass over every fault allocates,
   on one simulated batch of the first (at most 63) tests — an all-X
   lane without tests: the pass each word batch of the grading entry
   points runs. *)
let mask_words c tests (faults : Fault_sim.prepared array) =
  let tests = Array.of_list tests in
  let n = min Word.lanes (Array.length tests) in
  let word pat pi =
    Word.init (max 1 n) (fun l ->
        if l < n then Pdf_values.Bit.of_bool (pat tests.(l)).(pi)
        else Pdf_values.Bit.X)
  in
  let pis f = Array.init c.Circuit.num_pis f in
  let planes =
    Wsim.simulate c
      ~w1:(pis (word (fun t -> t.Test_pair.v1)))
      ~w3:(pis (word (fun t -> t.Test_pair.v3)))
      ~lanes:(max 1 n)
  in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length faults - 1 do
    if Wreq.satisfied_mask planes faults.(i).Fault_sim.lits <> 0 then
      incr hits
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !hits);
  words

(* "mask_words" is measured at set-up and deterministic: the mask pass
   reads each fault's literal array and allocates nothing, so any word
   it allocates — a closure, a boxed mask, a list walked per fault —
   fails the gate on any machine. *)
let fault_sim_gate results =
  List.filter_map
    (fun (_, r) ->
      match List.assoc_opt "mask_words" r.r_units with
      | Some 0. -> None
      | Some w ->
        Some (Printf.sprintf "allocation: %s mask_words %.0f > 0" r.r_case w)
      | None ->
        Some (Printf.sprintf "allocation: %s has no mask_words" r.r_case))
    (circuit_cases results ~kernel:"detect_matrix")

let fault_sim_suite =
  let cases params =
    List.concat_map
      (fun profile ->
        let s = circuit_setup params profile in
        let faults = s.cs_job.Job.faults in
        let pool = Pool.default () in
        let tests = Array.of_list s.cs_tests in
        (* The scalar reference: one [detected_by_test] row per test,
           on the same pool. *)
        let scalar_rows () =
          Pool.map_array pool
            (fun t -> Fault_sim.detected_by_test s.cs_circuit t faults)
            tests
        in
        (* Equivalence smoke: the batch entry point must reproduce the
           scalar reference cell for cell.  This keeps the hard-fail
           contract of the retired standalone fault_sim_bench
           executable. *)
        if
          Fault_sim.detect_matrix ~pool s.cs_circuit s.cs_tests faults
          <> scalar_rows ()
        then
          failwith
            (Printf.sprintf
               "fault_sim suite: packed detection differs from scalar on %s"
               profile.Profiles.name);
        let n_faults = Array.length faults in
        let name kernel = profile.Profiles.name ^ "/" ^ kernel in
        [
          {
            case_name = name "detect_matrix";
            units =
              [
                ("faults", float_of_int n_faults);
                ("tests", float_of_int params.n_tests);
                ( "words",
                  float_of_int
                    (word_batches params.n_tests
                    * Circuit.num_gates s.cs_circuit) );
                ("mask_words", mask_words s.cs_circuit s.cs_tests faults);
              ];
            (* The batch entry point, packed at every set size — the
               case the regression gate watches. *)
            thunk =
              (fun () ->
                ignore
                  (Fault_sim.detect_matrix ~pool s.cs_circuit s.cs_tests
                     faults
                    : bool array array));
          };
          {
            case_name = name "detect_matrix_scalar";
            units =
              [
                ("faults", float_of_int n_faults);
                ("tests", float_of_int params.n_tests);
              ];
            thunk = (fun () -> ignore (scalar_rows () : bool array array));
          };
          {
            case_name = name "detected_by_tests";
            units =
              [
                ("faults", float_of_int n_faults);
                ("tests", float_of_int params.n_tests);
              ];
            thunk =
              (fun () ->
                ignore
                  (Fault_sim.detected_by_tests ~pool s.cs_circuit s.cs_tests
                     faults
                    : bool array));
          };
        ])
      params.circuits
  in
  {
    suite_name = "fault_sim";
    suite_doc =
      "Fault-simulation kernels: detection matrix and test-set union \
       through the batch entry points, plus the per-test scalar \
       reference (hard-fails when the engines disagree; the mask pass \
       must allocate nothing)";
    cases;
    gate = fault_sim_gate;
  }

let atpg_suite =
  let cases params =
    List.concat_map
      (fun profile ->
        let s = circuit_setup params profile in
        let name kernel = profile.Profiles.name ^ "/" ^ kernel in
        let faults0 = Job.p0_faults s.cs_job in
        (* One untimed run of each generator learns the test count, so
           the throughput units are exact (the run is deterministic). *)
        let basic () =
          Atpg.basic s.cs_circuit
            { Atpg.ordering = Ordering.Value_based; seed = params.seed }
            ~faults:faults0
        in
        let enrich = enrich_run s ~seed:params.seed in
        let basic_tests = List.length (basic ()).Atpg.tests in
        let enrich_tests = List.length (enrich ()).Atpg.tests in
        [
          {
            case_name = name "basic_values";
            units =
              [
                ("tests", float_of_int basic_tests);
                ("faults", float_of_int (Array.length faults0));
              ];
            thunk = (fun () -> ignore (basic () : Atpg.result));
          };
          {
            case_name = name "enrich";
            units =
              [
                ("tests", float_of_int enrich_tests);
                ("faults", float_of_int (Array.length s.cs_job.Job.faults));
              ];
            thunk = (fun () -> ignore (enrich () : Atpg.result));
          };
        ])
      params.circuits
  in
  {
    suite_name = "atpg";
    suite_doc =
      "Test generation: the basic value-ordered procedure over P0 and \
       the full P0 u P1 enrichment run";
    cases;
    gate = no_gate;
  }

(* Both figures are deterministic units measured at set-up: the shared
   undetectability filter must keep exactly the faults of the per-fault
   pass it replaced and make no more implication assignments. *)
let paths_gate results =
  List.concat_map
    (fun (circuit, r) ->
      let reference = circuit ^ "/undetectable_per_fault" in
      match find_result results reference with
      | None -> [ Printf.sprintf "presence: case %s missing" reference ]
      | Some p ->
        let unit r u =
          Option.value ~default:Float.nan (List.assoc_opt u r.r_units)
        in
        let fails rule u ok =
          if ok (unit r u) (unit p u) then []
          else
            [
              Printf.sprintf "%s: %s %s %.0f, %s %.0f" rule r.r_case u
                (unit r u) reference (unit p u);
            ]
        in
        fails "kept" "kept" Float.equal
        @ fails "sharing" "assignments" (fun a b -> a <= b))
    (circuit_cases results ~kernel:"undetectable")

let paths_suite =
  let cases params =
    List.concat_map
      (fun profile ->
        let c = Profiles.circuit profile in
        let model = Delay_model.lines c in
        let probe =
          Enumerate.enumerate ~mode:Enumerate.Distance_pruned c model
            ~max_paths:params.n_p
        in
        let faults =
          List.concat_map
            (fun (path, _) -> Pdf_faults.Fault.both path)
            probe.Enumerate.paths
        in
        (* One run of each filter at set-up counts its assignments. *)
        let case kernel filter =
          let a0 = Undetectable.assignments () in
          let kept, _ = filter c faults in
          {
            case_name = profile.Profiles.name ^ "/" ^ kernel;
            units =
              [
                ("faults", float_of_int (List.length faults));
                ("kept", float_of_int (List.length kept));
                ( "assignments",
                  float_of_int (Undetectable.assignments () - a0) );
              ];
            thunk =
              (fun () ->
                ignore
                  (filter c faults
                    : Pdf_faults.Fault.t list * Undetectable.stats));
          }
        in
        [
          {
            case_name = profile.Profiles.name ^ "/enumerate";
            units =
              [
                ("paths", float_of_int (List.length probe.Enumerate.paths));
                ("steps", float_of_int probe.Enumerate.steps);
              ];
            thunk =
              (fun () ->
                ignore
                  (Enumerate.enumerate ~mode:Enumerate.Distance_pruned c model
                     ~max_paths:params.n_p
                    : Enumerate.result));
          };
          case "undetectable" (fun c f -> Undetectable.filter c f);
          case "undetectable_per_fault" (fun c f -> Undetectable.per_fault c f);
        ])
      params.circuits
  in
  {
    suite_name = "paths";
    suite_doc =
      "Distance-pruned longest-path enumeration at budget N_P, and the \
       undetectable-fault filter over the paths' faults beside the \
       per-fault pass it replaced (gated: the same kept faults, no more \
       implication assignments)";
    cases;
    gate = paths_gate;
  }

(* Every figure this gate reads is a deterministic unit measured at
   set-up, so it passes or fails the same way on any machine. *)
let justify_gate results =
  let deep kind = "deep/" ^ Justify.kind_name kind in
  let aborts kind =
    Option.bind (find_result results (deep kind)) (fun r ->
        List.assoc_opt "aborts" r.r_units)
  in
  (* On the deep circuit (DESIGN.md §15) the portfolio must never abort
     more than the simulation engine alone: it escalates to that engine
     whenever PODEM gives up. *)
  let escalation =
    match (aborts Justify.Portfolio, aborts Justify.Sim) with
    | Some p, Some s when p > s ->
      [
        Printf.sprintf "escalation: deep/portfolio aborts %.0f > deep/sim \
                        aborts %.0f" p s;
      ]
    | _ -> []
  in
  (* "words_per_trial": trials allocate nothing and the engine builds
     its search state — cone, values, trial memo — once, so what remains
     is each call's requirement merge and test, and the engine's state,
     amortised over the trials (~1 word; DESIGN.md §13.2).  A search
     state built per call reads ~6, a closure or overlay copy per gate
     or per trial in the thousands.
     "words_per_decision": PODEM's search step allocates next to
     nothing, and the search state, its implication state included, is
     built once per engine, so each call's requirement merge, closures
     and test remain, amortised over its decisions (19-22 words;
     DESIGN.md §15.5).  A search state built per call reads ~80-95; a
     list or closure per step, or an array per backtrace, in the
     hundreds. *)
  let allocation =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (unit, limit) ->
            match List.assoc_opt unit r.r_units with
            | Some v when v >= limit ->
              Some
                (Printf.sprintf "allocation: %s %s %.2f >= %g" r.r_case
                   unit v limit)
            | _ -> None)
          [ ("words_per_trial", 16.); ("words_per_decision", 40.) ])
      results
  in
  require results
    (List.map deep [ Justify.Sim; Justify.Podem; Justify.Portfolio ])
  @ escalation @ allocation

let justify_suite =
  let cases params =
    let profile_cases =
      List.concat_map
        (fun profile ->
          let s = circuit_setup params profile in
          let faults = s.cs_job.Job.faults in
          let name kernel = profile.Profiles.name ^ "/" ^ kernel in
          let engine = Justify.create s.cs_circuit in
          let podem_engine = Podem.create s.cs_circuit in
          let portfolio_engine =
            Justify.Engine.create ~kind:Justify.Portfolio s.cs_circuit
          in
          let k_sim = min 20 (Array.length faults) in
          let k_complete = min 10 (Array.length faults) in
          (* The "aborts" telemetry unit: failed justifications among the
             timed faults, measured once at setup on fresh engines so the
             number is deterministic in (circuit, seed).  It rides in the
             report's "units" object, which the determinism projection
             keeps.  The simulation engine's set-up run also yields
             "words_per_trial": the words its domain allocated over the
             timed faults, per trial simulation — equally deterministic,
             and gated by [justify_gate]; PODEM's yields
             "words_per_decision" the same way, per decision. *)
          let sim_aborts, words_per_trial =
            let e = Justify.create s.cs_circuit in
            let rng = Pdf_util.Rng.create params.seed in
            let n = ref 0 in
            let w0 = Gc.minor_words () in
            for i = 0 to k_sim - 1 do
              if Justify.run e ~rng ~reqs:faults.(i).Fault_sim.reqs = None
              then incr n
            done;
            let words = Gc.minor_words () -. w0 in
            (!n, words /. float_of_int (max 1 (Justify.effort e).Effort.steps))
          in
          let podem_aborts, words_per_decision =
            let e = Podem.create s.cs_circuit in
            let n = ref 0 in
            let w0 = Gc.minor_words () in
            for i = 0 to k_complete - 1 do
              match Podem.run e ~reqs:faults.(i).Fault_sim.reqs with
              | Podem.Gave_up -> incr n
              | Podem.Found _ | Podem.Proved_unsatisfiable -> ()
            done;
            let words = Gc.minor_words () -. w0 in
            (!n, words /. float_of_int (max 1 (Podem.effort e).Effort.steps))
          in
          let portfolio_aborts =
            let e =
              Justify.Engine.create ~kind:Justify.Portfolio s.cs_circuit
            in
            let rng = Pdf_util.Rng.create params.seed in
            let n = ref 0 in
            for i = 0 to k_complete - 1 do
              if
                Justify.Engine.run e ~rng ~reqs:faults.(i).Fault_sim.reqs
                = None
              then incr n
            done;
            !n
          in
          [
            {
              case_name = name "simulation";
              units =
                [
                  ("runs", float_of_int k_sim);
                  ("aborts", float_of_int sim_aborts);
                  ("words_per_trial", words_per_trial);
                ];
              thunk =
                (fun () ->
                  (* A fresh seeded RNG per execution keeps every sample on
                     the same decision sequence. *)
                  let rng = Pdf_util.Rng.create params.seed in
                  for i = 0 to k_sim - 1 do
                    ignore
                      (Justify.run engine ~rng
                         ~reqs:faults.(i).Fault_sim.reqs
                        : Test_pair.t option)
                  done);
            };
            {
              case_name = name "complete";
              units = [ ("runs", float_of_int k_complete) ];
              thunk =
                (fun () ->
                  for i = 0 to k_complete - 1 do
                    ignore
                      (Justify.run_complete ~max_backtracks:2000 engine
                         ~reqs:faults.(i).Fault_sim.reqs
                        : Justify.complete_outcome)
                  done);
            };
            {
              case_name = name "podem";
              units =
                [
                  ("runs", float_of_int k_complete);
                  ("aborts", float_of_int podem_aborts);
                  ("words_per_decision", words_per_decision);
                ];
              thunk =
                (fun () ->
                  for i = 0 to k_complete - 1 do
                    ignore
                      (Podem.run podem_engine
                         ~reqs:faults.(i).Fault_sim.reqs
                        : Podem.outcome)
                  done);
            };
            {
              case_name = name "portfolio";
              units =
                [
                  ("runs", float_of_int k_complete);
                  ("aborts", float_of_int portfolio_aborts);
                ];
              thunk =
                (fun () ->
                  let rng = Pdf_util.Rng.create params.seed in
                  for i = 0 to k_complete - 1 do
                    ignore
                      (Justify.Engine.run portfolio_engine ~rng
                         ~reqs:faults.(i).Fault_sim.reqs
                        : Test_pair.t option)
                  done);
            };
          ])
        params.circuits
    in
    (* A fixed circuit from the fuzz harness's deep grid (the same one
       test_core's engine goldens pin): deep logic is where the
       simulation-based search aborts, so these three cases carry the
       abort-rate comparison [justify_gate] checks — "aborts" counts
       aborted primary faults of a full enrichment run per backend. *)
    let deep_cases =
      let dp =
        { Generators.num_pis = 6; num_gates = 30; window = 5; max_fanout = 3;
          reuse_pct = 10; restart_pct = 5; fanin3_pct = 20; inverter_pct = 25;
          po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"deep7" ~seed:7 dp in
      let { Job.faults; p0; p1; _ } = Job.analyse c ~n_p:240 ~n_p0:40 in
      let enrich kind =
        Atpg.enrich c ~seed:9 ~justify:kind ~faults ~p0 ~p1
      in
      List.map
        (fun kind ->
          let aborted = (enrich kind).Atpg.primary_aborts in
          {
            case_name = "deep/" ^ Justify.kind_name kind;
            units =
              [
                ("faults", float_of_int (Array.length faults));
                ("aborts", float_of_int aborted);
              ];
            thunk = (fun () -> ignore (enrich kind : Atpg.result));
          })
        [ Justify.Sim; Justify.Podem; Justify.Portfolio ]
    in
    profile_cases @ deep_cases
  in
  {
    suite_name = "justify";
    suite_doc =
      "Justification engines: the simulation-based search, the \
       branch-and-bound complete search, the structural PODEM engine \
       and the escalating portfolio over the longest faults, with aborted \
       justifications as a telemetry unit";
    cases;
    gate = justify_gate;
  }

(* Seven micro-kernels, one per paper table. *)
let kernels_suite =
  let cases params =
    let s27 = Pdf_synth.Iscas.s27 () in
    let big = Profiles.circuit (profile_exn "s953") in
    let { Job.sets = target_sets; faults; _ } =
      Job.analyse big ~n_p:params.n_p ~n_p0:50
    in
    let engine = Justify.create big in
    let rng = Pdf_util.Rng.create 99 in
    let test =
      match Justify.run engine ~rng ~reqs:faults.(0).Fault_sim.reqs with
      | Some t -> t
      | None ->
        Test_pair.create
          (Array.make big.Circuit.num_pis false)
          (Array.make big.Circuit.num_pis false)
    in
    (* Table 4 kernel: one value-based secondary scan step — every
       candidate's [n_Delta] against an accumulated requirement set, over
       its literals and the set's per-net bits, as [Atpg] counts it; the
       count is of the candidates that do not conflict. *)
    let delta_scan =
      let nn = Circuit.num_nets big in
      let acc = Array.make nn 0 in
      List.iter
        (fun (net, req) -> acc.(net) <- acc.(net) lor Pdf_values.Req.bits req)
        faults.(0).Fault_sim.reqs;
      let seen = Array.make nn 0 and pinned = Array.make nn 0 in
      let stamp = ref 0 in
      fun () ->
        Array.fold_left
          (fun count (p : Fault_sim.prepared) ->
            incr stamp;
            if
              Wreq.count_new ~seen ~pinned ~stamp:!stamp acc p.Fault_sim.lits
              >= 0
            then count + 1
            else count)
          0 faults
    in
    [
      (* Table 1: bounded enumeration on s27. *)
      {
        case_name = "t1_enumerate_s27";
        units = [];
        thunk =
          (fun () ->
            let model = Delay_model.lines s27 in
            ignore
              (Enumerate.enumerate ~mode:Enumerate.Simple s27 model
                 ~max_paths:20
                : Enumerate.result));
      };
      (* Table 2: histogram construction over P. *)
      {
        case_name = "t2_histogram";
        units = [];
        thunk =
          (fun () ->
            ignore
              (Pdf_paths.Histogram.of_lengths
                 (List.map
                    (fun (e : Target_sets.entry) -> e.Target_sets.length)
                    target_sets.Target_sets.p)
                : Pdf_paths.Histogram.t));
      };
      (* Table 3: a single-fault justification (the basic ATPG kernel). *)
      {
        case_name = "t3_justify_one_fault";
        units = [];
        thunk =
          (fun () ->
            ignore
              (Justify.run engine ~rng ~reqs:faults.(0).Fault_sim.reqs
                : Test_pair.t option));
      };
      (* Table 4: value-based Delta scan over all candidates. *)
      {
        case_name = "t4_value_based_delta";
        units = [ ("faults", float_of_int (Array.length faults)) ];
        thunk = (fun () -> ignore (delta_scan () : int));
      };
      (* Table 5: robust fault simulation of one test over P. *)
      {
        case_name = "t5_fault_sim_one_test";
        units = [ ("faults", float_of_int (Array.length faults)) ];
        thunk =
          (fun () ->
            ignore (Fault_sim.detected_by_test big test faults : bool array));
      };
      (* Table 6: two-pattern simulation (the enrichment inner loop). *)
      {
        case_name = "t6_two_pattern_sim";
        units = [];
        thunk =
          (fun () ->
            ignore
              (Test_pair.simulate big test : Pdf_values.Triple.t array));
      };
      (* Table 7: the implication engine (undetectability + candidate
         filtering, the run-time-ratio driver). *)
      {
        case_name = "t7_implication";
        units = [];
        thunk =
          (fun () ->
            ignore (Pdf_sim.Implication.infer big faults.(0).Fault_sim.reqs));
      };
    ]
  in
  {
    suite_name = "kernels";
    suite_doc = "One micro-kernel per paper table";
    cases;
    gate = no_gate;
  }

(* Observability overhead (DESIGN.md §9.4, §14.4).  An uninstrumented
   run must pay only the Null-sink check per span site, and timing two
   full ATPG runs against each other is too noisy to gate on a small
   percentage, so the gate checks two overhead models instead:

     span%   = spans x per-span Null cost / wall_null x 100
     attrib% = bumps x per-bump cost / wall_null x 100

   spans is the span count of one instrumented run (an Emit sink at
   set-up); bumps is one attributed run's counter bumps (the merged
   sheet's grand semantic total plus the engine-variant incremental
   count); each per-site cost is a wrapped site's median less the bare
   payload's; wall_null is the best sample of the Null-sink run.  The
   trace-sink and attribution-on wall times are informational: they
   include collector and sheet allocation, which only those runs pay.
   The suite owns the span sink while it runs: set-up leaves [Null]
   installed, and the trace case installs its collector for its own
   executions only. *)
let max_overhead_pct = 2.0

let obs_overhead_gate results =
  let median name =
    Option.map (fun r -> r.r_stats.Bstat.median_s) (find_result results name)
  in
  let site_cost ~plain ~site =
    match (median plain, median site) with
    | Some p, Some s -> Float.max 0. (s -. p)
    | _ -> 0.
  in
  let per_span =
    site_cost ~plain:"span_site/plain" ~site:"span_site/null_wrapped"
  in
  let per_bump =
    site_cost ~plain:"attrib_site/plain" ~site:"attrib_site/bump"
  in
  let circuits = circuit_cases results ~kernel:"atpg_null_sink" in
  let model gate circuit ~count ~cost ~wall =
    let pct = if wall > 0. then 100. *. count *. cost /. wall else 0. in
    if pct > max_overhead_pct then
      Some
        (Printf.sprintf "%s (%s): modelled overhead %.4f%% > %g%%" gate
           circuit pct max_overhead_pct)
    else None
  in
  require results
    ([ "span_site/plain"; "span_site/null_wrapped"; "attrib_site/plain";
       "attrib_site/bump" ]
    @ List.map (fun (c, _) -> c ^ "/atpg_attrib_on") circuits)
  @ List.concat_map
      (fun (circuit, null) ->
        let wall = null.r_stats.Bstat.min_s in
        let count r unit =
          Option.value ~default:0. (List.assoc_opt unit r.r_units)
        in
        let events =
          match find_result results (circuit ^ "/atpg_attrib_on") with
          | Some r -> count r "events"
          | None -> 0.
        in
        List.filter_map Fun.id
          [
            model "span model" circuit ~count:(count null "spans")
              ~cost:per_span ~wall;
            model "attribution model" circuit ~count:events ~cost:per_bump
              ~wall;
          ])
      circuits

let obs_overhead_suite =
  let cases params =
    let per_circuit =
      List.map
        (fun profile ->
          let s = circuit_setup params profile in
          let enrich = enrich_run s ~seed:params.seed in
          let name kernel = profile.Profiles.name ^ "/" ^ kernel in
          let spans = ref 0 in
          Span.set_sink (Span.Emit (fun _ -> incr spans));
          ignore (enrich () : Atpg.result);
          Span.set_sink Span.Null;
          let attributed () =
            let store =
              Attrib.create ~nets:(Circuit.num_nets s.cs_circuit)
            in
            ignore (enrich ~attrib:store () : Atpg.result);
            store
          in
          let bumps =
            let sheet = Attrib.snapshot (attributed ()) in
            Attrib.grand_total sheet + sheet.Attrib.t_inc_resims
          in
          let spans = [ ("spans", float_of_int !spans) ] in
          ( [
              {
                case_name = name "atpg_null_sink";
                units = spans;
                thunk = (fun () -> ignore (enrich () : Atpg.result));
              };
              {
                case_name = name "atpg_trace_sink";
                units = spans;
                thunk =
                  (fun () ->
                    let coll = Pdf_obs.Trace.collector () in
                    Span.set_sink (Pdf_obs.Trace.sink coll);
                    ignore (enrich () : Atpg.result);
                    Span.set_sink Span.Null);
              };
            ],
            {
              case_name = name "atpg_attrib_on";
              units = [ ("events", float_of_int bumps) ];
              thunk = (fun () -> ignore (attributed () : Attrib.t));
            } ))
        params.circuits
    in
    (* The bare payloads and their instrumented sites.  [Span.sink ()]
       keeps the span payload from being optimised away; the bump is the
       attribution hot path's pattern, an option match plus an int-array
       increment. *)
    let tick = ref 0 in
    let payload () = if Span.sink () = Span.Null then incr tick in
    let bump_sheet = Some (Attrib.make_sheet ~nets:16) in
    let bump () =
      (match bump_sheet with
      | Some (a : Attrib.sheet) ->
        a.Attrib.trials.(!tick land 15) <- a.Attrib.trials.(!tick land 15) + 1
      | None -> ());
      incr tick
    in
    let site case_name thunk = { case_name; units = []; thunk } in
    List.concat_map fst per_circuit
    @ [
        site "span_site/plain" payload;
        site "span_site/null_wrapped" (fun () ->
            Span.with_ "overhead-probe" payload);
      ]
    @ List.map snd per_circuit
    @ [
        site "attrib_site/plain" (fun () -> incr tick);
        site "attrib_site/bump" bump;
      ]
  in
  {
    suite_name = "obs_overhead";
    suite_doc =
      "Tracing and attribution overhead: an enrichment run under the Null \
       sink, a trace collector and attribution, and the per-site cost of \
       a Null-sink span and of a counter bump; gated at 2% modelled \
       overhead each";
    cases;
    gate = obs_overhead_gate;
  }

let suites =
  [
    fault_sim_suite; atpg_suite; paths_suite; justify_suite; kernels_suite;
    obs_overhead_suite;
  ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let throughput r =
  if r.r_stats.Bstat.median_s <= 0. then []
  else
    List.map
      (fun (unit, work) ->
        (unit ^ "_per_s", work /. r.r_stats.Bstat.median_s))
      r.r_units

type report = {
  suite : string;
  fingerprint : Fingerprint.t;
  warmup : int;
  repeat : int;
  min_sample_s : float;
  params : params;
  results : result list;
}

let export_gauges report =
  List.iter
    (fun r ->
      let set field v =
        Metrics.set
          (Metrics.gauge
             (Printf.sprintf "bench.%s.%s.%s" report.suite r.r_case field))
          v
      in
      set "median_s" r.r_stats.Bstat.median_s;
      set "minor_collections"
        (float_of_int r.r_meas.Bstat.gc.Bstat.minor_collections);
      set "major_collections"
        (float_of_int r.r_meas.Bstat.gc.Bstat.major_collections);
      set "promoted_words" r.r_meas.Bstat.gc.Bstat.promoted_words;
      List.iter (fun (unit, v) -> set unit v) (throughput r))
    report.results

let run_suite ?(warmup = 1) ?(repeat = 5) ?(min_sample_s = 0.01)
    ?(params = default_params) ?(progress = ignore) suite =
  let results =
    List.map
      (fun case ->
        let meas =
          Bstat.measure ~warmup ~repeat ~min_sample_s case.thunk
        in
        let stats = Bstat.summarize meas.Bstat.samples in
        progress
          (Printf.sprintf "%-40s median %.3e s  (noise %.1f%%, x%d)"
             case.case_name stats.Bstat.median_s (Bstat.noise_pct stats)
             meas.Bstat.iters);
        {
          r_case = case.case_name;
          r_units = case.units;
          r_meas = meas;
          r_stats = stats;
        })
      (suite.cases params)
  in
  let report =
    {
      suite = suite.suite_name;
      fingerprint =
        Fingerprint.capture ~jobs:(Pool.default_jobs ()) ();
      warmup;
      repeat;
      min_sample_s;
      params;
      results;
    }
  in
  export_gauges report;
  report

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let schema_id = "pdf-bench-report/1"

let to_json report =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"schema\": %s,\n" (Json.quote schema_id);
  Printf.bprintf b "  \"suite\": %s,\n" (Json.quote report.suite);
  Printf.bprintf b "  \"fingerprint\": %s,\n"
    (Fingerprint.to_json report.fingerprint);
  Printf.bprintf b
    "  \"config\": {\"warmup\": %d, \"repeat\": %d, \"min_sample_s\": %s, \
     \"seed\": %d, \"n_p\": %d, \"n_p0\": %d, \"tests\": %d, \
     \"circuits\": [%s]},\n"
    report.warmup report.repeat
    (Json.float report.min_sample_s)
    report.params.seed report.params.n_p report.params.n_p0
    report.params.n_tests
    (String.concat ", "
       (List.map
          (fun p -> Json.quote p.Profiles.name)
          report.params.circuits));
  Buffer.add_string b "  \"cases\": [\n";
  let n_results = List.length report.results in
  List.iteri
    (fun i r ->
      let kv_floats pairs =
        String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%s: %s" (Json.quote k) (Json.float v))
             pairs)
      in
      Printf.bprintf b "    {\"name\": %s,\n" (Json.quote r.r_case);
      Printf.bprintf b "     \"units\": {%s},\n" (kv_floats r.r_units);
      Printf.bprintf b "     \"iters\": %d, \"samples\": [%s],\n"
        r.r_meas.Bstat.iters
        (String.concat ", "
           (Array.to_list (Array.map Json.float r.r_meas.Bstat.samples)));
      let s = r.r_stats in
      Printf.bprintf b
        "     \"n\": %d, \"outliers\": %d, \"median_s\": %s, \"mean_s\": %s, \
         \"min_s\": %s, \"max_s\": %s, \"stddev_s\": %s, \"q1_s\": %s, \
         \"q3_s\": %s, \"iqr_s\": %s,\n"
        s.Bstat.n_raw s.Bstat.outliers
        (Json.float s.Bstat.median_s)
        (Json.float s.Bstat.mean_s) (Json.float s.Bstat.min_s)
        (Json.float s.Bstat.max_s)
        (Json.float s.Bstat.stddev_s)
        (Json.float s.Bstat.q1_s) (Json.float s.Bstat.q3_s)
        (Json.float s.Bstat.iqr_s);
      let gc = r.r_meas.Bstat.gc in
      Printf.bprintf b
        "     \"gc\": {\"minor_collections\": %d, \"major_collections\": %d, \
         \"promoted_words\": %s, \"top_heap_words\": %d},\n"
        gc.Bstat.minor_collections gc.Bstat.major_collections
        (Json.float gc.Bstat.promoted_words)
        gc.Bstat.top_heap_words;
      Printf.bprintf b "     \"throughput\": {%s}}%s\n"
        (kv_floats (throughput r))
        (if i = n_results - 1 then "" else ","))
    report.results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write_report report path =
  let oc = open_out path in
  output_string oc (to_json report);
  close_out oc

let to_table report =
  let t =
    Pdf_util.Table.create
      [
        ("case", Pdf_util.Table.Left); ("median", Pdf_util.Table.Right);
        ("noise %", Pdf_util.Table.Right); ("iters", Pdf_util.Table.Right);
        ("outliers", Pdf_util.Table.Right);
        ("gc min/maj", Pdf_util.Table.Right);
        ("throughput", Pdf_util.Table.Left);
      ]
  in
  List.iter
    (fun r ->
      let tp =
        String.concat " "
          (List.map
             (fun (unit, v) -> Printf.sprintf "%s=%.3g" unit v)
             (throughput r))
      in
      Pdf_util.Table.add_row t
        [
          r.r_case;
          Printf.sprintf "%.3e s" r.r_stats.Bstat.median_s;
          Printf.sprintf "%.1f" (Bstat.noise_pct r.r_stats);
          string_of_int r.r_meas.Bstat.iters;
          string_of_int r.r_stats.Bstat.outliers;
          Printf.sprintf "%d/%d" r.r_meas.Bstat.gc.Bstat.minor_collections
            r.r_meas.Bstat.gc.Bstat.major_collections;
          tp;
        ])
    report.results;
  t

(* ------------------------------------------------------------------ *)
(* Determinism projection and baseline comparison                      *)
(* ------------------------------------------------------------------ *)

let timing_fields =
  [
    "iters"; "samples"; "n"; "outliers"; "median_s"; "mean_s"; "min_s";
    "max_s"; "stddev_s"; "q1_s"; "q3_s"; "iqr_s"; "gc"; "throughput";
  ]

let rec comparable_projection (v : Json.v) =
  match v with
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if List.mem k timing_fields then None
           else Some (k, comparable_projection v))
         fields)
  | Json.Arr items -> Json.Arr (List.map comparable_projection items)
  | other -> other

type delta = {
  d_case : string;
  base_median_s : float;
  cur_median_s : float;
  base_noise_pct : float;
  cur_noise_pct : float;
  verdict : Bstat.verdict;
}

type comparison = {
  deltas : delta list;
  only_in_baseline : string list;
  only_in_current : string list;
  regressions : delta list;
}

(* Rebuild just enough of a [Bstat.summary] from a parsed case for the
   median comparator: median and IQR drive the verdict, the rest is
   carried for display. *)
let summary_of_case obj =
  let num field = Option.bind (Json.member field obj) Json.to_num in
  match (num "median_s", num "iqr_s") with
  | Some median, Some iqr ->
    Some
      {
        Bstat.n_raw =
          (match num "n" with Some n -> int_of_float n | None -> 0);
        outliers =
          (match num "outliers" with Some n -> int_of_float n | None -> 0);
        mean_s = Option.value ~default:median (num "mean_s");
        median_s = median;
        min_s = Option.value ~default:median (num "min_s");
        max_s = Option.value ~default:median (num "max_s");
        stddev_s = Option.value ~default:0. (num "stddev_s");
        q1_s = Option.value ~default:median (num "q1_s");
        q3_s = Option.value ~default:median (num "q3_s");
        iqr_s = iqr;
      }
  | _ -> None

let compare_with_baseline ~max_regress_pct ~baseline report =
  match Json.member "cases" baseline with
  | None -> Error "baseline: no \"cases\" field (not a pdf-bench-report?)"
  | Some (Json.Arr base_cases) -> (
    let base_by_name =
      List.filter_map
        (fun case ->
          match
            (Option.bind (Json.member "name" case) Json.to_str,
             summary_of_case case)
          with
          | Some name, Some summary -> Some (name, summary)
          | _ -> None)
        base_cases
    in
    match base_by_name with
    | [] -> Error "baseline: no parsable cases"
    | _ ->
      let deltas =
        List.filter_map
          (fun r ->
            match List.assoc_opt r.r_case base_by_name with
            | None -> None
            | Some base ->
              Some
                {
                  d_case = r.r_case;
                  base_median_s = base.Bstat.median_s;
                  cur_median_s = r.r_stats.Bstat.median_s;
                  base_noise_pct = Bstat.noise_pct base;
                  cur_noise_pct = Bstat.noise_pct r.r_stats;
                  verdict =
                    (* A median slowdown must be confirmed by the
                       best-case sample before it counts: transient
                       machine load inflates medians but almost never
                       every sample of a run, so an unconfirmed Slower
                       is indistinguishable from between-run noise and
                       is downgraded to Same. *)
                    (match
                       Bstat.compare_medians ~min_effect_pct:max_regress_pct
                         ~baseline:base ~current:r.r_stats ()
                     with
                    | Bstat.Slower _
                      when base.Bstat.min_s > 0.
                           && 100.
                              *. (r.r_stats.Bstat.min_s -. base.Bstat.min_s)
                              /. base.Bstat.min_s
                              <= max_regress_pct -> Bstat.Same
                    | v -> v);
                })
          report.results
      in
      let current_names = List.map (fun r -> r.r_case) report.results in
      Ok
        {
          deltas;
          only_in_baseline =
            List.filter_map
              (fun (name, _) ->
                if List.mem name current_names then None else Some name)
              base_by_name;
          only_in_current =
            List.filter
              (fun name ->
                not (List.mem_assoc name base_by_name))
              current_names;
          regressions =
            List.filter
              (fun d ->
                match d.verdict with Bstat.Slower _ -> true | _ -> false)
              deltas;
        })
  | Some _ -> Error "baseline: \"cases\" is not an array"

let comparison_table cmp =
  let t =
    Pdf_util.Table.create
      [
        ("case", Pdf_util.Table.Left); ("baseline", Pdf_util.Table.Right);
        ("current", Pdf_util.Table.Right); ("change", Pdf_util.Table.Right);
        ("verdict", Pdf_util.Table.Left);
      ]
  in
  List.iter
    (fun d ->
      let change =
        if d.base_median_s = 0. then "n/a"
        else
          Printf.sprintf "%+.1f%%"
            (100. *. (d.cur_median_s -. d.base_median_s) /. d.base_median_s)
      in
      Pdf_util.Table.add_row t
        [
          d.d_case;
          Printf.sprintf "%.3e s" d.base_median_s;
          Printf.sprintf "%.3e s" d.cur_median_s;
          change;
          Bstat.verdict_to_string d.verdict;
        ])
    cmp.deltas;
  t
