module Circuit = Pdf_circuit.Circuit
module Bench_io = Pdf_circuit.Bench_io
module Verilog_io = Pdf_circuit.Verilog_io
module Stats = Pdf_circuit.Stats
module Delay_model = Pdf_paths.Delay_model
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Ordering = Pdf_core.Ordering
module Coverage = Pdf_core.Coverage
module Relax = Pdf_core.Relax
module Test_pair = Pdf_core.Test_pair
module Justify = Pdf_core.Justify
module Profiles = Pdf_synth.Profiles
module Provenance = Pdf_experiments.Provenance
module Metrics = Pdf_obs.Metrics
module Ledger = Pdf_obs.Ledger
module Table = Pdf_util.Table

(* Cache-effectiveness counters.  `compiles` is the re-parse counter the
   serve tests pin to zero on warm requests; each layer has a `_hits`
   twin so hit rates are scrapeable via --metrics-out / the live
   /metrics request. *)
let c_compiles = Metrics.counter "serve.session.compiles"
let c_compile_hits = Metrics.counter "serve.session.compile_hits"
let c_analyses = Metrics.counter "serve.session.analyses"
let c_analysis_hits = Metrics.counter "serve.session.analysis_hits"
let c_enrichments = Metrics.counter "serve.session.enrichments"
let c_enrichment_hits = Metrics.counter "serve.session.enrichment_hits"
let c_answers = Metrics.counter "serve.session.answers"
let c_answer_hits = Metrics.counter "serve.session.answer_hits"

type params = {
  n_p : int;
  n_p0 : int;
  seed : int;
  criterion : Pdf_faults.Robust.criterion;
  justify : Justify.kind;
}

let default_params =
  {
    n_p = 2000;
    n_p0 = 200;
    seed = Pdf_experiments.Workload.default_seed;
    criterion = Pdf_faults.Robust.Robust;
    justify = Justify.Sim;
  }

(* The server-wide default for requests that omit the "justify" field:
   the serve CLI's [--justify] flag, else [PDF_JUSTIFY], else the
   paper's simulation-based engine.  A ref so the flag can be applied
   after module initialisation. *)
let default_justify : Justify.kind option ref = ref None

let set_default_justify k = default_justify := Some k

let effective_default_justify () =
  match !default_justify with Some k -> k | None -> Justify.default_kind ()

type error = Unknown_circuit of string | No_match of string

let error_message = function Unknown_circuit m | No_match m -> m

type answer = { text : string; tests : Test_pair.t list; cached : bool }

(* One (criterion, n_p, n_p0) analysis of a compiled circuit.  The two
   prepared-fault views are lazy: `atpg` only needs P0, `enrich` needs
   all of P, and either warms the Robust.conditions cache the other
   benefits from. *)
type analysis = {
  ts : Target_sets.t;
  faults_p : Fault_sim.prepared array Lazy.t;
  faults_p0 : Fault_sim.prepared array Lazy.t;
}

type compiled = {
  circuit : Circuit.t;
  model : Delay_model.t;
  analyses : (string, analysis) Hashtbl.t;
  provenances : (string, Provenance.t) Hashtbl.t;
}

type t = {
  circuits : (string, compiled) Hashtbl.t;
  answers : (string, answer) Hashtbl.t;
  lock : Mutex.t;
}

let create () =
  {
    circuits = Hashtbl.create 8;
    answers = Hashtbl.create 64;
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let params_key p =
  Printf.sprintf "%s|%d|%d"
    (Pdf_faults.Robust.criterion_name p.criterion)
    p.n_p p.n_p0

(* [justify] keys the seeded layers only: the analysis cache (target
   sets, prepared faults) is backend-independent, while generation
   answers and provenances are not. *)
let params_seed_key p =
  Printf.sprintf "%s|%d|%s" (params_key p) p.seed (Justify.kind_name p.justify)

(* Circuit resolution, shared with the CLI: a profile name, else a
   netlist file (.v -> Verilog, anything else -> .bench). *)
let resolve name =
  match Profiles.find name with
  | Some p -> Ok (Profiles.circuit p)
  | None ->
    if Sys.file_exists name then
      if Filename.check_suffix name ".v" then
        match Verilog_io.parse_file name with
        | Ok c -> Ok c
        | Error e ->
          Error (Printf.sprintf "%s: %s" name (Verilog_io.error_to_string e))
      else
        match Bench_io.parse_file name with
        | Ok c -> Ok c
        | Error e ->
          Error (Printf.sprintf "%s: %s" name (Bench_io.error_to_string e))
    else
      Error
        (Printf.sprintf
           "unknown circuit %S (not a profile name or netlist file)" name)

(* ------------------------------------------------------------------ *)
(* Cache layers (callers hold the lock)                                *)
(* ------------------------------------------------------------------ *)

let compiled t name =
  match Hashtbl.find_opt t.circuits name with
  | Some comp ->
    Metrics.incr c_compile_hits;
    Ok comp
  | None -> (
    match resolve name with
    | Error msg -> Error (Unknown_circuit msg)
    | Ok circuit ->
      Metrics.incr c_compiles;
      let comp =
        {
          circuit;
          model = Delay_model.lines circuit;
          analyses = Hashtbl.create 4;
          provenances = Hashtbl.create 4;
        }
      in
      Hashtbl.add t.circuits name comp;
      Ok comp)

let make_analysis ?ledger comp ~params =
  let ts =
    Target_sets.build ~criterion:params.criterion ?ledger comp.circuit
      comp.model ~n_p:params.n_p ~n_p0:params.n_p0
  in
  {
    ts;
    faults_p =
      lazy (Fault_sim.prepare ~criterion:params.criterion comp.circuit
              ts.Target_sets.p);
    faults_p0 =
      lazy (Fault_sim.prepare ~criterion:params.criterion comp.circuit
              ts.Target_sets.p0);
  }

let analysis ?ledger comp ~params =
  match ledger with
  | Some _ ->
    (* Audit runs must witness the full pipeline so the ledger carries
       the undetectability verdicts of the target-set filter; they never
       read the analysis cache. *)
    Metrics.incr c_analyses;
    make_analysis ?ledger comp ~params
  | None -> (
    let key = params_key params in
    match Hashtbl.find_opt comp.analyses key with
    | Some a ->
      Metrics.incr c_analysis_hits;
      a
    | None ->
      Metrics.incr c_analyses;
      let a = make_analysis comp ~params in
      Hashtbl.add comp.analyses key a;
      a)

let provenance_of comp ~params =
  let key = params_seed_key params in
  match Hashtbl.find_opt comp.provenances key with
  | Some p ->
    Metrics.incr c_enrichment_hits;
    p
  | None ->
    Metrics.incr c_enrichments;
    let p =
      Provenance.build ~criterion:params.criterion ~n_p:params.n_p
        ~n_p0:params.n_p0 ~seed:params.seed ~justify:params.justify
        comp.circuit
    in
    Hashtbl.add comp.provenances key p;
    p

(* Answer memoisation: sound because every query is deterministic in
   (circuit, params) — DESIGN.md §12.4.  Ledgered runs bypass the
   lookup (they must re-execute) but still refresh the cache. *)
let answered ?ledger t ~key compute =
  match (if ledger = None then Hashtbl.find_opt t.answers key else None) with
  | Some a ->
    Metrics.incr c_answer_hits;
    Ok { a with cached = true }
  | None -> (
    match compute () with
    | Error _ as e -> e
    | Ok a ->
      Metrics.incr c_answers;
      Hashtbl.replace t.answers key a;
      Ok a)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let load t name = with_lock t (fun () -> Result.map (fun c -> c.circuit) (compiled t name))

let info t ~circuit:name =
  with_lock t (fun () ->
      answered t ~key:("info|" ^ name) (fun () ->
          match compiled t name with
          | Error e -> Error e
          | Ok comp ->
            let c = comp.circuit in
            Ok
              {
                text =
                  Printf.sprintf "%s: %s\n" c.Circuit.name
                    (Stats.to_string (Stats.compute c));
                tests = [];
                cached = false;
              }))

let relax_text c faults0 tests =
  let b = Buffer.create 128 in
  let total_bits = ref 0 and needed = ref 0 in
  List.iter
    (fun t ->
      let detected = Fault_sim.detected_by_test c t faults0 in
      let keep =
        Array.to_list faults0
        |> List.filteri (fun i _ -> detected.(i))
        |> List.map (fun (p : Fault_sim.prepared) -> p.Fault_sim.reqs)
      in
      let r = Relax.relax c t ~keep in
      total_bits := !total_bits + (2 * c.Circuit.num_pis);
      needed := !needed + Relax.specified_bits r)
    tests;
  if !total_bits > 0 then
    Printf.bprintf b
      "relaxation: %d of %d pattern bits needed (%.0f%% don't-care)\n"
      !needed !total_bits
      (100.
      *. float_of_int (!total_bits - !needed)
      /. float_of_int !total_bits);
  Buffer.contents b

let atpg ?ledger t ~circuit:name ~params ~ordering ~relax =
  let key =
    Printf.sprintf "atpg|%s|%s|%s|%b" name (params_seed_key params)
      (Ordering.name ordering) relax
  in
  with_lock t (fun () ->
      answered ?ledger t ~key (fun () ->
          match compiled t name with
          | Error e -> Error e
          | Ok comp ->
            let c = comp.circuit in
            let a = analysis ?ledger comp ~params in
            let faults0 = Lazy.force a.faults_p0 in
            let res =
              Atpg.basic ?ledger ~justify:params.justify c
                { Atpg.ordering; seed = params.seed }
                ~faults:faults0
            in
            let b = Buffer.create 256 in
            Printf.bprintf b
              "basic ATPG (%s): %d/%d P0 faults detected, %d tests, %d \
               aborted primaries\n"
              (Ordering.name ordering)
              (Fault_sim.count res.Atpg.detected)
              (Array.length faults0)
              (List.length res.Atpg.tests)
              res.Atpg.primary_aborts;
            if relax then
              Buffer.add_string b (relax_text c faults0 res.Atpg.tests);
            Ok { text = Buffer.contents b; tests = res.Atpg.tests;
                 cached = false }))

let enrich ?ledger t ~circuit:name ~params ~coverage =
  let key =
    Printf.sprintf "enrich|%s|%s|%b" name (params_seed_key params) coverage
  in
  with_lock t (fun () ->
      answered ?ledger t ~key (fun () ->
          match compiled t name with
          | Error e -> Error e
          | Ok comp ->
            let c = comp.circuit in
            let a = analysis ?ledger comp ~params in
            let faults = Lazy.force a.faults_p in
            let n0 = List.length a.ts.Target_sets.p0 in
            let p0 = List.init n0 (fun i -> i) in
            let p1 =
              List.init (Array.length faults - n0) (fun i -> n0 + i)
            in
            let res =
              Atpg.enrich ?ledger ~justify:params.justify c ~seed:params.seed
                ~faults ~p0 ~p1
            in
            Pdf_experiments.Runner.set_enrich_gauges res ~p0 ~p1;
            let b = Buffer.create 256 in
            Printf.bprintf b
              "enrichment: %d/%d P0 and %d/%d P0 u P1 faults detected, %d \
               tests\n"
              (Atpg.count_detected res ~ids:p0)
              n0
              (Fault_sim.count res.Atpg.detected)
              (Array.length faults)
              (List.length res.Atpg.tests);
            if coverage then begin
              let faults0 =
                Array.of_list (List.map (fun i -> faults.(i)) p0)
              in
              let basic =
                Atpg.basic ~justify:params.justify c
                  { Atpg.ordering = Ordering.Value_based; seed = params.seed }
                  ~faults:faults0
              in
              let basic_flags =
                Fault_sim.detected_by_tests c basic.Atpg.tests faults
              in
              Buffer.add_string b
                (Table.render
                   (Coverage.comparison_table
                      ~labels:
                        [ Printf.sprintf "basic (%d tests)"
                            (List.length basic.Atpg.tests);
                          Printf.sprintf "enriched (%d tests)"
                            (List.length res.Atpg.tests) ]
                      [ Coverage.of_flags faults basic_flags;
                        Coverage.of_flags faults res.Atpg.detected ]));
              Buffer.add_char b '\n'
            end;
            Ok { text = Buffer.contents b; tests = res.Atpg.tests;
                 cached = false }))

let with_provenance t ~circuit:name ~params f =
  match compiled t name with
  | Error e -> Error e
  | Ok comp -> f (provenance_of comp ~params)

let explain t ~circuit:name ~params ~query =
  let key =
    Printf.sprintf "explain|%s|%s|%s" name (params_seed_key params) query
  in
  with_lock t (fun () ->
      answered t ~key (fun () ->
          with_provenance t ~circuit:name ~params (fun p ->
              match Provenance.explain p query with
              | Ok text -> Ok { text; tests = []; cached = false }
              | Error msg -> Error (No_match msg))))

(* [why] shares explain's provenance cache and query resolution, so a
   served answer is byte-identical to the CLI's for the same (circuit,
   params, query). *)
let why t ~circuit:name ~params ~query =
  let key =
    Printf.sprintf "why|%s|%s|%s" name (params_seed_key params) query
  in
  with_lock t (fun () ->
      answered t ~key (fun () ->
          with_provenance t ~circuit:name ~params (fun p ->
              match Provenance.why p query with
              | Ok text -> Ok { text; tests = []; cached = false }
              | Error msg -> Error (No_match msg))))

let report t ~circuit:name ~params =
  let key = Printf.sprintf "report|%s|%s" name (params_seed_key params) in
  with_lock t (fun () ->
      answered t ~key (fun () ->
          with_provenance t ~circuit:name ~params (fun p ->
              Ok { text = Provenance.report p; tests = []; cached = false })))

let provenance t ~circuit:name ~params =
  with_lock t (fun () ->
      with_provenance t ~circuit:name ~params (fun p -> Ok p))

let ledger_jsonl t ~circuit:name ~params =
  let key = Printf.sprintf "ledger|%s|%s" name (params_seed_key params) in
  with_lock t (fun () ->
      answered t ~key (fun () ->
          with_provenance t ~circuit:name ~params (fun p ->
              Ok
                {
                  text = Ledger.to_jsonl p.Provenance.ledger;
                  tests = [];
                  cached = false;
                })))
