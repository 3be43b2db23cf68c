(* Tests for Pdf_experiments: embedded paper data, workload scales, the
   per-circuit runner (integration) and table rendering. *)

module Paper_data = Pdf_experiments.Paper_data
module Workload = Pdf_experiments.Workload
module Runner = Pdf_experiments.Runner
module Tables = Pdf_experiments.Tables
module Profiles = Pdf_synth.Profiles

let check = Alcotest.check

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Paper data sanity                                                    *)
(* ------------------------------------------------------------------ *)

let test_paper_table2_monotone () =
  let rec go = function
    | (l1, n1) :: ((l2, n2) :: _ as rest) ->
      check Alcotest.bool "lengths strictly decrease" true (l1 > l2);
      check Alcotest.bool "cumulative strictly increases" true (n1 < n2);
      go rest
    | [ _ ] | [] -> ()
  in
  go Paper_data.table_2;
  check Alcotest.int "20 rows" 20 (List.length Paper_data.table_2);
  (* The two values quoted in the paper's text. *)
  check Alcotest.bool "L0 = 96 with 4 faults" true
    (List.hd Paper_data.table_2 = (96, 4))

let test_paper_tables_shape () =
  check Alcotest.int "tables 3/4: 8 circuits" 8 (List.length Paper_data.tables_3_4);
  check Alcotest.int "table 5: 8 circuits" 8 (List.length Paper_data.table_5);
  check Alcotest.int "table 6: 11 rows" 11 (List.length Paper_data.table_6);
  check Alcotest.int "table 7: 8 rows" 8 (List.length Paper_data.table_7)

let test_paper_detected_within_totals () =
  List.iter
    (fun (r : Paper_data.basic_row) ->
      let a, b, c, d = r.Paper_data.detected in
      List.iter
        (fun v ->
          check Alcotest.bool "detected <= total" true
            (v <= r.Paper_data.p0_faults))
        [ a; b; c; d ])
    Paper_data.tables_3_4;
  List.iter
    (fun (r : Paper_data.enrich_row) ->
      check Alcotest.bool "P0 det <= P0" true
        (r.Paper_data.p0_detected <= r.Paper_data.p0_total);
      check Alcotest.bool "P det <= P" true
        (r.Paper_data.p_detected <= r.Paper_data.p_total);
      check Alcotest.bool "P0 subset of P" true
        (r.Paper_data.p0_total <= r.Paper_data.p_total))
    Paper_data.table_6

let test_paper_enrichment_never_fewer () =
  (* The paper's headline: enrichment detects at least as many P0 u P1
     faults as the best basic heuristic, at comparable test counts. *)
  List.iter
    (fun (r6 : Paper_data.enrich_row) ->
      match
        List.find_opt
          (fun (r5 : Paper_data.sim_row) ->
            r5.Paper_data.circuit = r6.Paper_data.circuit)
          Paper_data.table_5
      with
      | None -> ()
      | Some r5 ->
        let a, b, c, d = r5.Paper_data.detected in
        let best = max (max a b) (max c d) in
        check Alcotest.bool
          (r6.Paper_data.circuit ^ ": enrichment beats accidental")
          true
          (r6.Paper_data.p_detected >= best))
    Paper_data.table_6

(* ------------------------------------------------------------------ *)
(* Workload                                                             *)
(* ------------------------------------------------------------------ *)

let test_workload_scales () =
  check Alcotest.int "paper N_P" 10_000 Workload.paper.Workload.n_p;
  check Alcotest.int "paper N_P0" 1_000 Workload.paper.Workload.n_p0;
  check Alcotest.bool "small is smaller" true
    (Workload.small.Workload.n_p < Workload.paper.Workload.n_p);
  check Alcotest.bool "labels roundtrip" true
    (Workload.of_label "small" = Some Workload.small
    && Workload.of_label "PAPER" = Some Workload.paper
    && Workload.of_label "huge" = None)

(* ------------------------------------------------------------------ *)
(* Runner (integration, on the tiny genuine s27)                        *)
(* ------------------------------------------------------------------ *)

let tiny_scale = { Workload.label = "tiny"; n_p = 40; n_p0 = 10 }

let s27_profile = Option.get (Profiles.find "s27")

let run = Runner.run ~seed:3 tiny_scale s27_profile

let test_runner_shape () =
  check Alcotest.int "four basic runs" 4 (List.length run.Runner.basics);
  check Alcotest.bool "P0 nonempty" true (run.Runner.p0_total > 0);
  check Alcotest.bool "P0 <= P" true (run.Runner.p0_total <= run.Runner.p_total)

let test_runner_coverage_bounds () =
  List.iter
    (fun (b : Runner.basic_run) ->
      check Alcotest.bool "P0 detected bounded" true
        (b.Runner.p0_detected <= run.Runner.p0_total);
      check Alcotest.bool "P detected bounded" true
        (b.Runner.p_detected <= run.Runner.p_total);
      check Alcotest.bool "P detect >= P0 detect" true
        (b.Runner.p_detected >= b.Runner.p0_detected);
      check Alcotest.bool "tests positive" true (b.Runner.tests > 0))
    run.Runner.basics;
  check Alcotest.bool "enrich bounded" true
    (run.Runner.enrich_p_detected <= run.Runner.p_total)

let test_runner_enrichment_dominates () =
  (* On s27 enrichment reaches full coverage of P0 u P1. *)
  List.iter
    (fun (b : Runner.basic_run) ->
      check Alcotest.bool "enrichment >= accidental" true
        (run.Runner.enrich_p_detected >= b.Runner.p_detected))
    run.Runner.basics

let test_runner_without_basics () =
  let r = Runner.run ~seed:3 ~with_basics:false tiny_scale s27_profile in
  check Alcotest.int "only value-based run" 1 (List.length r.Runner.basics);
  check Alcotest.bool "ratio finite" true
    (match Runner.ratio r with Some x -> x >= 0. | None -> true)

(* ------------------------------------------------------------------ *)
(* Table rendering                                                      *)
(* ------------------------------------------------------------------ *)

let test_table1_renders () =
  let s = Tables.table1 () in
  check Alcotest.bool "mentions final set" true (contains s "final set");
  check Alcotest.bool "shows A(p)" true (contains s "A(p)");
  check Alcotest.bool "shows the source transition" true (contains s "0x1");
  check Alcotest.bool "shows eviction" true (contains s "evicted")

let test_tables_render_runs () =
  let runs = [ run ] in
  let t3 = Tables.table3 runs and t4 = Tables.table4 runs in
  let t5 = Tables.table5 runs and t6 = Tables.table6 runs in
  let t7 = Tables.table7 runs in
  List.iter
    (fun (name, s) ->
      check Alcotest.bool (name ^ " mentions s27") true (contains s "s27");
      check Alcotest.bool (name ^ " nonempty") true (String.length s > 40))
    [ ("t3", t3); ("t4", t4); ("t5", t5); ("t6", t6); ("t7", t7) ];
  List.iter
    (fun h ->
      check Alcotest.bool ("t3 has column " ^ h) true (contains t3 h))
    [ "uncomp"; "arbit"; "length"; "values" ]

let test_paper_reference_renders () =
  let s = Tables.paper_reference () in
  List.iter
    (fun needle ->
      check Alcotest.bool ("mentions " ^ needle) true (contains s needle))
    [ "s641"; "s9234*"; "1538"; "Paper Table 7" ]


(* ------------------------------------------------------------------ *)
(* Estimation error and ablations                                       *)
(* ------------------------------------------------------------------ *)

module Estimation_error = Pdf_experiments.Estimation_error
module Ablations = Pdf_experiments.Ablations

let test_estimation_error_zero_noise () =
  (* Zero noise scales all weights by 100: path order is unchanged, so
     every true-critical fault sits in the nominal P0. *)
  let r = Estimation_error.run ~seed:3 ~noise_pct:0 tiny_scale s27_profile in
  check Alcotest.int "none misplaced" 0 r.Estimation_error.in_nominal_p1;
  check Alcotest.int "none missed" 0 r.Estimation_error.outside_p;
  check Alcotest.int "classification covers all"
    r.Estimation_error.true_critical_total
    (r.Estimation_error.in_nominal_p0 + r.Estimation_error.in_nominal_p1
   + r.Estimation_error.outside_p)

let test_estimation_error_bounds () =
  let r = Estimation_error.run ~seed:3 ~noise_pct:30 tiny_scale s27_profile in
  check Alcotest.bool "basic covers within total" true
    (r.Estimation_error.basic_covered <= r.Estimation_error.true_critical_total);
  check Alcotest.bool "enriched covers within total" true
    (r.Estimation_error.enriched_covered
    <= r.Estimation_error.true_critical_total);
  check Alcotest.int "classification covers all"
    r.Estimation_error.true_critical_total
    (r.Estimation_error.in_nominal_p0 + r.Estimation_error.in_nominal_p1
   + r.Estimation_error.outside_p);
  check Alcotest.int "row has as many cells as headers"
    (List.length Estimation_error.table_header)
    (List.length (Estimation_error.to_row r))

let test_ablation_tables_render () =
  let checks =
    [
      ("E1", Ablations.estimation_error ~seed:3 tiny_scale ~noises:[ 10 ]
               [ s27_profile ]);
      ("E2", Ablations.multiset ~seed:3 tiny_scale [ s27_profile ]);
      ("E3", Ablations.static_compaction ~seed:3 tiny_scale [ s27_profile ]);
      ("E4", Ablations.criterion ~seed:3 tiny_scale [ s27_profile ]);
    ]
  in
  List.iter
    (fun (name, s) ->
      check Alcotest.bool (name ^ " mentions s27") true (contains s "s27");
      check Alcotest.bool (name ^ " non-trivial") true (String.length s > 60))
    checks

let test_ablation_scaling_monotone () =
  (* Larger N_P0 never shrinks the first target set. *)
  let s =
    Ablations.scaling ~seed:3 tiny_scale ~n_p0s:[ 5; 10; 20 ] s27_profile
  in
  check Alcotest.bool "renders" true (contains s "N_P0");
  (* Parse the |P0| column values and check monotonicity. *)
  let rows =
    String.split_on_char '\n' s
    |> List.filter (fun l -> contains l "s27")
  in
  let p0_sizes =
    List.map
      (fun row ->
        match String.split_on_char '|' row with
        | _ :: _ :: p0 :: _ -> int_of_string (String.trim p0)
        | _ -> Alcotest.fail "unexpected row shape")
      rows
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "P0 grows with N_P0" true (monotone p0_sizes)

let test_ablation_static_compaction_safe () =
  (* The E3 table itself asserts coverage preservation; it must not
     contain a "NO" cell. *)
  let s = Ablations.static_compaction ~seed:3 tiny_scale [ s27_profile ] in
  check Alcotest.bool "coverage preserved everywhere" false (contains s "NO")

(* ------------------------------------------------------------------ *)
(* Claims                                                               *)
(* ------------------------------------------------------------------ *)

module Claims = Pdf_experiments.Claims
module Ordering = Pdf_core.Ordering

(* A circuit run with chosen figures: |P0| 100, |P| 200; the four basic
   runs' tests, P0 detected and P0 u P1 detected in column order;
   enrichment's tests, P0 detected and P0 u P1 detected.  Every claim
   holds on [figures ()] with room to spare except [enrich-tests], which
   sits at its margin. *)
let figures ?(tests = [ 30; 10; 10; 10 ]) ?(p0 = [ 100; 100; 100; 100 ])
    ?(p = [ 150; 145; 145; 145 ]) ?(enrich = (11, 100, 170)) () =
  let basics =
    List.map2
      (fun ordering (t, (d0, d)) ->
        { Runner.ordering; tests = t; p0_detected = d0; p_detected = d;
          runtime_s = 0. })
      Ordering.all
      (List.combine tests (List.combine p0 p))
  in
  let e_tests, e_p0, e_p = enrich in
  { run with Runner.p0_total = 100; p_total = 200; basics;
    enrich_tests = e_tests; enrich_p0_detected = e_p0;
    enrich_p_detected = e_p }

let verdict_of id verdicts =
  List.find (fun v -> v.Claims.claim.Claims.id = id) verdicts

let test_claims_hold () =
  check Alcotest.int "eight claims" 8 (List.length Claims.claims);
  let verdicts = Claims.check [ figures () ] in
  check
    Alcotest.(list string)
    "one verdict per claim, in claim order"
    (List.map (fun c -> c.Claims.id) Claims.claims)
    (List.map (fun v -> v.Claims.claim.Claims.id) verdicts);
  List.iter
    (fun v ->
      check Alcotest.bool (v.Claims.claim.Claims.id ^ " holds") true
        v.Claims.holds;
      check Alcotest.string "circuit" "s27" v.Claims.circuit)
    verdicts;
  check Alcotest.bool "summary" true
    (contains
       (Claims.render ~backend:"sim" verdicts)
       "claims check (backend sim): 8 of 8 predicates hold")

(* Each predicate fails just past its margin, and the report names the
   claim, the circuit, the backend and the figures read. *)
let test_claims_violations () =
  let fails id run =
    let verdicts = Claims.check [ run ] in
    check Alcotest.bool (id ^ " violated") false
      (verdict_of id verdicts).Claims.holds;
    check Alcotest.int (id ^ " alone violated") 1
      (List.length (List.filter (fun v -> not v.Claims.holds) verdicts));
    check Alcotest.bool (id ^ " reported") true
      (contains
         (Claims.render ~backend:"podem" verdicts)
         (Printf.sprintf "violated: claim %s on s27 (backend podem): " id))
  in
  fails "fewer-tests" (figures ~tests:[ 14; 10; 10; 10 ] ());
  fails "small-spread" (figures ~p0:[ 89; 100; 100; 100 ] ());
  fails "values-competitive"
    (figures ~tests:[ 30; 10; 10; 12 ] ~enrich:(12, 100, 170) ());
  fails "p1-missed"
    (figures ~p:[ 176; 176; 176; 176 ] ~enrich:(11, 100, 200) ());
  fails "uncomp-slightly-more" (figures ~p:[ 150; 150; 150; 129 ] ());
  fails "enrich-more" (figures ~enrich:(11, 100, 159) ());
  fails "enrich-tests" (figures ~enrich:(12, 100, 170) ());
  fails "enrich-p0" (figures ~enrich:(11, 96, 170) ())

(* A resynthesized row runs only the value-based set: the claims that
   compare the four basic sets are not evaluated there, nor are the
   P1 claims on a circuit whose P1 is empty. *)
let test_claims_applicability () =
  let ids verdicts = List.map (fun v -> v.Claims.claim.Claims.id) verdicts in
  let values_only =
    { (figures ()) with
      Runner.basics =
        List.filter
          (fun b -> b.Runner.ordering = Ordering.Value_based)
          (figures ()).Runner.basics }
  in
  check
    Alcotest.(list string)
    "value-based only" [ "enrich-more"; "enrich-tests"; "enrich-p0" ]
    (ids (Claims.check [ values_only ]));
  check
    Alcotest.(list string)
    "empty P1"
    [ "fewer-tests"; "small-spread"; "values-competitive";
      "uncomp-slightly-more"; "enrich-tests"; "enrich-p0" ]
    (ids (Claims.check [ { (figures ()) with Runner.p_total = 100 } ]))

let () =
  Alcotest.run "pdf_experiments"
    [
      ( "paper_data",
        [
          Alcotest.test_case "table 2 monotone" `Quick test_paper_table2_monotone;
          Alcotest.test_case "table shapes" `Quick test_paper_tables_shape;
          Alcotest.test_case "detected within totals" `Quick
            test_paper_detected_within_totals;
          Alcotest.test_case "enrichment dominates (published)" `Quick
            test_paper_enrichment_never_fewer;
        ] );
      ( "workload",
        [ Alcotest.test_case "scales" `Quick test_workload_scales ] );
      ( "runner",
        [
          Alcotest.test_case "shape" `Quick test_runner_shape;
          Alcotest.test_case "coverage bounds" `Quick test_runner_coverage_bounds;
          Alcotest.test_case "enrichment dominates (measured)" `Quick
            test_runner_enrichment_dominates;
          Alcotest.test_case "without basics" `Quick test_runner_without_basics;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table 1 renders" `Quick test_table1_renders;
          Alcotest.test_case "tables render runs" `Quick test_tables_render_runs;
          Alcotest.test_case "paper reference renders" `Quick
            test_paper_reference_renders;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "zero noise" `Quick test_estimation_error_zero_noise;
          Alcotest.test_case "estimation error bounds" `Quick
            test_estimation_error_bounds;
          Alcotest.test_case "ablation tables render" `Quick
            test_ablation_tables_render;
          Alcotest.test_case "static compaction safe" `Quick
            test_ablation_static_compaction_safe;
          Alcotest.test_case "scaling sweep monotone" `Quick
            test_ablation_scaling_monotone;
        ] );
      ( "claims",
        [
          Alcotest.test_case "claims hold within their margins" `Quick
            test_claims_hold;
          Alcotest.test_case "a violation names claim, circuit, backend"
            `Quick test_claims_violations;
          Alcotest.test_case "claims apply where their runs exist" `Quick
            test_claims_applicability;
        ] );
    ]
