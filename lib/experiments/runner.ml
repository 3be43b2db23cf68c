module Ordering = Pdf_core.Ordering
module Atpg = Pdf_core.Atpg
module Fault_sim = Pdf_core.Fault_sim
module Target_sets = Pdf_faults.Target_sets
module Job = Pdf_core.Job
module Profiles = Pdf_synth.Profiles
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log

let g_p0_detected = Metrics.gauge "enrich.p0_detected"
let g_p1_detected = Metrics.gauge "enrich.p1_detected"
let g_p_detected = Metrics.gauge "enrich.p_detected"
let g_tests = Metrics.gauge "enrich.tests"

let set_enrich_gauges (res : Atpg.result) ~p0 ~p1 =
  Metrics.set_int g_p0_detected (Atpg.count_detected res ~ids:p0);
  Metrics.set_int g_p1_detected (Atpg.count_detected res ~ids:p1);
  Metrics.set_int g_p_detected (Fault_sim.count res.Atpg.detected);
  Metrics.set_int g_tests (List.length res.Atpg.tests)

type basic_run = {
  ordering : Ordering.t;
  p0_detected : int;
  tests : int;
  p_detected : int;
  runtime_s : float;
}

type circuit_run = {
  profile : Profiles.t;
  scale : Workload.scale;
  i0 : int;
  cutoff_length : int;
  p_total : int;
  p0_total : int;
  histogram : Pdf_paths.Histogram.t;
  basics : basic_run list;
  enrich_p0_detected : int;
  enrich_p_detected : int;
  enrich_tests : int;
  enrich_runtime_s : float;
  enrich_aborts : int;
}

let run ?pool ?(seed = Workload.default_seed) ?(with_basics = true)
    (scale : Workload.scale) profile =
  Span.with_ "runner" @@ fun () ->
  let pool =
    match pool with Some p -> p | None -> Pdf_par.Pool.default ()
  in
  Log.info "runner: %s (scale=%s seed=%d jobs=%d)" profile.Profiles.name
    scale.Workload.label seed (Pdf_par.Pool.jobs pool);
  let c = Profiles.circuit profile in
  let job =
    Job.analyse c ~n_p:scale.Workload.n_p ~n_p0:scale.Workload.n_p0
  in
  let { Job.sets = ts; faults; p0 = p0_ids; p1 = p1_ids } = job in
  let faults0 = Job.p0_faults job in
  let orderings =
    if with_basics then Ordering.all else [ Ordering.Value_based ]
  in
  (* The orderings are independent runs: each derives all randomness
     from [seed] and its own ordering (never from a shared RNG stream)
     and shares only the immutable circuit and prepared faults, so
     running them on the pool yields exactly the sequential results, in
     [Ordering.all] order (Pool.map preserves input order). *)
  let basics =
    Pdf_par.Pool.map pool
      (fun ordering ->
        Span.with_ ("basic-" ^ Ordering.name ordering) @@ fun () ->
        let res = Atpg.basic c { Atpg.ordering; seed } ~faults:faults0 in
        let p_detected =
          Fault_sim.count
            (Fault_sim.detected_by_tests ~pool c res.Atpg.tests faults)
        in
        let br =
          {
            ordering;
            p0_detected = Fault_sim.count res.Atpg.detected;
            tests = List.length res.Atpg.tests;
            p_detected;
            runtime_s = res.Atpg.runtime_s;
          }
        in
        (* Live progress for long table runs; Log.event serialises
           through the log mutex, so pool workers never interleave. *)
        Log.event ~fields:
          [ ("profile", profile.Profiles.name);
            ("ordering", Ordering.name ordering);
            ("tests", string_of_int br.tests);
            ("p0_detected", string_of_int br.p0_detected) ]
          "runner.progress";
        br)
      orderings
  in
  let er =
    Span.with_ "enrich" (fun () ->
        Atpg.enrich c ~seed ~faults ~p0:p0_ids ~p1:p1_ids)
  in
  set_enrich_gauges er ~p0:p0_ids ~p1:p1_ids;
  {
    profile;
    scale;
    i0 = ts.Target_sets.i0;
    cutoff_length = ts.Target_sets.cutoff_length;
    p_total = Array.length faults;
    p0_total = List.length p0_ids;
    histogram = ts.Target_sets.histogram;
    basics;
    enrich_p0_detected = Atpg.count_detected er ~ids:p0_ids;
    enrich_p_detected = Fault_sim.count er.Atpg.detected;
    enrich_tests = List.length er.Atpg.tests;
    enrich_runtime_s = er.Atpg.runtime_s;
    enrich_aborts = er.Atpg.primary_aborts;
  }

let ratio run =
  match
    List.find_opt (fun b -> b.ordering = Ordering.Value_based) run.basics
  with
  | Some b when b.runtime_s > 0. -> Some (run.enrich_runtime_s /. b.runtime_s)
  | Some _ | None -> None
