module Delay_model = Pdf_paths.Delay_model
module Fault = Pdf_faults.Fault
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Rng = Pdf_util.Rng

type t = {
  noise_pct : int;
  true_critical_total : int;
  in_nominal_p0 : int;
  in_nominal_p1 : int;
  outside_p : int;
  basic_covered : int;
  enriched_covered : int;
  basic_tests : int;
  enrich_tests : int;
}

(* Scale the nominal line-count weights by 100 and perturb them the way a
   real estimate is wrong: a systematic per-gate-kind bias (the estimator
   mischaracterised a cell) plus independent per-line jitter (layout).
   Both components are +/- [noise_pct]/2 percent; per-line jitter alone
   would average out over long paths.  Scaling is order-preserving, so
   zero noise reproduces the nominal path order exactly. *)
let perturbed_model c rng ~noise_pct nominal =
  let half = noise_pct / 2 in
  let swing amplitude =
    if amplitude = 0 then 0 else -amplitude + Rng.int rng (2 * amplitude + 1)
  in
  let kind_bias =
    List.map
      (fun kind -> (kind, swing half))
      Pdf_circuit.Gate.all_kinds
  in
  let pi_bias = swing half in
  let perturb net w =
    let base = 100 * w in
    let bias =
      match Pdf_circuit.Circuit.gate_of_net c net with
      | None -> pi_bias
      | Some g ->
        List.assoc
          (c : Pdf_circuit.Circuit.t).gates.(g).Pdf_circuit.Circuit.kind
          kind_bias
    in
    let jitter = swing (base * half / 100) in
    max 1 (base + (base * bias / 100) + jitter)
  in
  {
    Delay_model.stem = Array.mapi perturb nominal.Delay_model.stem;
    branch = Array.mapi perturb nominal.Delay_model.branch;
  }

let fault_key (f : Fault.t) = (f.Fault.dir, f.Fault.path)

let run ?(seed = Workload.default_seed) ~noise_pct (scale : Workload.scale)
    profile =
  let c = Pdf_synth.Profiles.circuit profile in
  let nominal = Delay_model.lines c in
  let rng = Rng.create (seed lxor 0xe57e) in
  let true_model = perturbed_model c rng ~noise_pct nominal in
  (* Nominal flow: target sets and both test sets. *)
  let job =
    Pdf_core.Job.analyse c ~n_p:scale.Workload.n_p ~n_p0:scale.Workload.n_p0
  in
  let { Pdf_core.Job.sets = ts; faults; p0; p1 } = job in
  let basic =
    Atpg.basic c
      { Atpg.ordering = Pdf_core.Ordering.Value_based; seed }
      ~faults:(Pdf_core.Job.p0_faults job)
  in
  let enriched = Atpg.enrich c ~seed ~faults ~p0 ~p1 in
  (* The truth: the critical faults under the perturbed delays. *)
  let true_ts =
    Target_sets.build c true_model ~n_p:scale.Workload.n_p
      ~n_p0:scale.Workload.n_p0
  in
  let true_critical = Fault_sim.prepare c true_ts.Target_sets.p0 in
  (* Where did the estimator put them? *)
  let nominal_set = Hashtbl.create 256 in
  let note set (e : Target_sets.entry) =
    Hashtbl.replace nominal_set (fault_key e.Target_sets.fault) set
  in
  List.iter (note `P0) ts.Target_sets.p0;
  List.iter (note `P1) ts.Target_sets.p1;
  let in_p0 = ref 0 and in_p1 = ref 0 and outside = ref 0 in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      match Hashtbl.find_opt nominal_set (fault_key p.Fault_sim.fault) with
      | Some `P0 -> incr in_p0
      | Some `P1 -> incr in_p1
      | None -> incr outside)
    true_critical;
  let covered_by tests =
    Fault_sim.count (Fault_sim.detected_by_tests c tests true_critical)
  in
  {
    noise_pct;
    true_critical_total = Array.length true_critical;
    in_nominal_p0 = !in_p0;
    in_nominal_p1 = !in_p1;
    outside_p = !outside;
    basic_covered = covered_by basic.Atpg.tests;
    enriched_covered = covered_by enriched.Atpg.tests;
    basic_tests = List.length basic.Atpg.tests;
    enrich_tests = List.length enriched.Atpg.tests;
  }

let to_row t =
  [
    string_of_int t.noise_pct ^ "%";
    string_of_int t.true_critical_total;
    string_of_int t.in_nominal_p0;
    string_of_int t.in_nominal_p1;
    string_of_int t.outside_p;
    Printf.sprintf "%d (%d tests)" t.basic_covered t.basic_tests;
    Printf.sprintf "%d (%d tests)" t.enriched_covered t.enrich_tests;
  ]

let table_header =
  let open Pdf_util.Table in
  [
    ("noise", Right); ("true-critical", Right); ("in P0", Right);
    ("in P1", Right); ("missed", Right); ("basic covers", Right);
    ("enriched covers", Right);
  ]
