module Table = Pdf_util.Table
module Delay_model = Pdf_paths.Delay_model
module Robust = Pdf_faults.Robust
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Job = Pdf_core.Job
module Static = Pdf_core.Static_compaction
module Profiles = Pdf_synth.Profiles

let estimation_error ?(seed = Workload.default_seed) scale ~noises profiles =
  let table =
    Table.create
      ~title:
        "E1: coverage of the TRUE critical faults under delay-estimation \
         error"
      (("circuit", Table.Left) :: Estimation_error.table_header)
  in
  List.iter
    (fun profile ->
      List.iter
        (fun noise_pct ->
          let r = Estimation_error.run ~seed ~noise_pct scale profile in
          Table.add_row table
            (profile.Profiles.name :: Estimation_error.to_row r))
        noises)
    profiles;
  Table.render table

(* Contiguous id ranges of the slices of P (P is sorted by decreasing
   length and the slices are length-prefixes). *)
let slice_ids slices =
  let _, ranges =
    List.fold_left
      (fun (offset, acc) slice ->
        let len = List.length slice in
        (offset + len, List.init len (fun i -> offset + i) :: acc))
      (0, []) slices
  in
  List.rev ranges

let multiset ?(seed = Workload.default_seed) (scale : Workload.scale) profiles
    =
  let table =
    Table.create
      ~title:"E2: two vs three sets of target faults (value-based enrichment)"
      [
        ("circuit", Table.Left); ("sets", Table.Right); ("|P0|", Table.Right);
        ("P0 det", Table.Right); ("P det", Table.Right);
        ("P total", Table.Right); ("tests", Table.Right);
      ]
  in
  List.iter
    (fun profile ->
      let c = Profiles.circuit profile in
      let { Job.sets = ts; faults; p0; p1 } =
        Job.analyse c ~n_p:scale.Workload.n_p ~n_p0:scale.Workload.n_p0
      in
      let n = Array.length faults in
      let two_pools = [ p0; p1 ] in
      let three_pools =
        slice_ids
          (Target_sets.split_multi ts
             ~thresholds:
               [ scale.Workload.n_p0; 3 * scale.Workload.n_p0 ])
      in
      List.iter
        (fun (label, pools) ->
          let res = Atpg.enrich_multi c ~seed ~faults ~pools in
          let first = match pools with p :: _ -> p | [] -> [] in
          Table.add_row table
            [
              profile.Profiles.name; label;
              string_of_int (List.length first);
              string_of_int (Atpg.count_detected res ~ids:first);
              string_of_int (Fault_sim.count res.Atpg.detected);
              string_of_int n;
              string_of_int (List.length res.Atpg.tests);
            ])
        [ ("2", two_pools); ("3", three_pools) ])
    profiles;
  Table.render table

let static_compaction ?(seed = Workload.default_seed)
    (scale : Workload.scale) profiles =
  let table =
    Table.create
      ~title:"E3: static compaction on top of dynamic compaction"
      [
        ("circuit", Table.Left); ("set", Table.Left); ("tests", Table.Right);
        ("reverse", Table.Right); ("greedy", Table.Right);
        ("coverage kept", Table.Left);
      ]
  in
  List.iter
    (fun profile ->
      let c = Profiles.circuit profile in
      let job =
        Job.analyse c ~n_p:scale.Workload.n_p ~n_p0:scale.Workload.n_p0
      in
      let { Job.faults; p0; p1; _ } = job in
      let faults0 = Job.p0_faults job in
      let basic =
        Atpg.basic c
          { Atpg.ordering = Pdf_core.Ordering.Value_based; seed }
          ~faults:faults0
      in
      let enriched = Atpg.enrich c ~seed ~faults ~p0 ~p1 in
      List.iter
        (fun (label, tests, universe) ->
          let reverse = Static.reverse_order c universe tests in
          let greedy = Static.greedy_cover c universe tests in
          let ok =
            Static.coverage_preserved c universe ~original:tests
              ~compacted:reverse
            && Static.coverage_preserved c universe ~original:tests
                 ~compacted:greedy
          in
          Table.add_row table
            [
              profile.Profiles.name; label;
              string_of_int (List.length tests);
              string_of_int (List.length reverse);
              string_of_int (List.length greedy);
              (if ok then "yes" else "NO");
            ])
        [
          ("basic/P0", basic.Atpg.tests, faults0);
          ("enriched/P", enriched.Atpg.tests, faults);
        ])
    profiles;
  Table.render table

let criterion ?(seed = Workload.default_seed) (scale : Workload.scale)
    profiles =
  let table =
    Table.create
      ~title:"E4: robust vs non-robust sensitization"
      [
        ("circuit", Table.Left); ("criterion", Table.Left);
        ("|P|", Table.Right); ("|P0|", Table.Right);
        ("P0 det", Table.Right); ("P det", Table.Right);
        ("tests", Table.Right);
      ]
  in
  List.iter
    (fun profile ->
      let c = Profiles.circuit profile in
      List.iter
        (fun (label, crit) ->
          let { Job.faults; p0; p1; _ } =
            Job.analyse ~criterion:crit c ~n_p:scale.Workload.n_p
              ~n_p0:scale.Workload.n_p0
          in
          let res = Atpg.enrich c ~seed ~faults ~p0 ~p1 in
          Table.add_row table
            [
              profile.Profiles.name; label;
              string_of_int (Array.length faults);
              string_of_int (List.length p0);
              string_of_int (Atpg.count_detected res ~ids:p0);
              string_of_int (Fault_sim.count res.Atpg.detected);
              string_of_int (List.length res.Atpg.tests);
            ])
        [ ("robust", Robust.Robust); ("non-robust", Robust.Non_robust) ])
    profiles;
  Table.render table

let justifier ?(seed = Workload.default_seed) (scale : Workload.scale)
    profiles =
  let table =
    Table.create
      ~title:
        "E5: simulation-based vs branch-and-bound justification (per P0 \
         fault)"
      [
        ("circuit", Table.Left); ("faults", Table.Right);
        ("sim finds", Table.Right); ("bnb finds", Table.Right);
        ("sim misses, bnb finds", Table.Right);
        ("proved untestable", Table.Right); ("gave up", Table.Right);
      ]
  in
  List.iter
    (fun profile ->
      let c = Profiles.circuit profile in
      let model = Delay_model.lines c in
      let ts =
        Target_sets.build c model ~n_p:scale.Workload.n_p
          ~n_p0:scale.Workload.n_p0
      in
      let faults = Fault_sim.prepare c ts.Target_sets.p0 in
      let engine = Pdf_core.Justify.create c in
      let rng = Pdf_util.Rng.create seed in
      let sim_finds = ref 0 and bnb_finds = ref 0 in
      let rescued = ref 0 and unsat = ref 0 and gave_up = ref 0 in
      Array.iter
        (fun (p : Fault_sim.prepared) ->
          let sim =
            Pdf_core.Justify.run engine ~rng ~reqs:p.Fault_sim.reqs
          in
          if sim <> None then incr sim_finds;
          match
            Pdf_core.Justify.run_complete engine ~reqs:p.Fault_sim.reqs
          with
          | Pdf_core.Justify.Found _ ->
            incr bnb_finds;
            if sim = None then incr rescued
          | Pdf_core.Justify.Proved_unsatisfiable -> incr unsat
          | Pdf_core.Justify.Gave_up -> incr gave_up)
        faults;
      Table.add_row table
        [
          profile.Profiles.name;
          string_of_int (Array.length faults);
          string_of_int !sim_finds;
          string_of_int !bnb_finds;
          string_of_int !rescued;
          string_of_int !unsat;
          string_of_int !gave_up;
        ])
    profiles;
  Table.render table

let scaling ?(seed = Workload.default_seed) (scale : Workload.scale) ~n_p0s
    profile =
  let table =
    Table.create
      ~title:"E6: sweeping the N_P0 effort knob (value-based enrichment)"
      [
        ("circuit", Table.Left); ("N_P0", Table.Right); ("|P0|", Table.Right);
        ("P0 det", Table.Right); ("P det", Table.Right);
        ("P total", Table.Right); ("tests", Table.Right);
      ]
  in
  let c = Profiles.circuit profile in
  List.iter
    (fun n_p0 ->
      let { Job.faults; p0; p1; _ } =
        Job.analyse c ~n_p:scale.Workload.n_p ~n_p0
      in
      let res = Atpg.enrich c ~seed ~faults ~p0 ~p1 in
      Table.add_row table
        [
          profile.Profiles.name; string_of_int n_p0;
          string_of_int (List.length p0);
          string_of_int (Atpg.count_detected res ~ids:p0);
          string_of_int (Fault_sim.count res.Atpg.detected);
          string_of_int (Array.length faults);
          string_of_int (List.length res.Atpg.tests);
        ])
    n_p0s;
  Table.render table

type ablation = {
  id : string;
  circuits : string list;
  run : seed:int -> Workload.scale -> Profiles.t list -> string;
}

let all =
  [
    {
      id = "e1";
      circuits = [ "s641"; "b09" ];
      run =
        (fun ~seed scale profiles ->
          estimation_error ~seed scale ~noises:[ 20; 50 ] profiles);
    };
    { id = "e2"; circuits = [ "s641" ]; run = (fun ~seed -> multiset ~seed) };
    {
      id = "e3";
      circuits = [ "b03"; "b09" ];
      run = (fun ~seed -> static_compaction ~seed);
    };
    {
      id = "e4";
      circuits = [ "b09"; "s1196" ];
      run = (fun ~seed -> criterion ~seed);
    };
    {
      id = "e5";
      circuits = [ "b09"; "s1196" ];
      run = (fun ~seed -> justifier ~seed);
    };
    {
      id = "e6";
      circuits = [ "b09" ];
      run =
        (fun ~seed scale profiles ->
          String.concat ""
            (List.map (scaling ~seed scale ~n_p0s:[ 100; 200; 400 ]) profiles));
    };
  ]
