module Ordering = Pdf_core.Ordering

type claim = {
  id : string;
  table : string;
  statement : string;
  margin : string;
}

type verdict = {
  claim : claim;
  circuit : string;
  holds : bool;
  values : string;
}

let basic (run : Runner.circuit_run) ordering =
  List.find_opt
    (fun (b : Runner.basic_run) -> b.Runner.ordering = ordering)
    run.Runner.basics

(* The four basic runs in the paper's column order, or [None] on a row
   that ran only the value-based one. *)
let all_basics run =
  let runs = List.filter_map (basic run) Ordering.all in
  if List.length runs = List.length Ordering.all then Some runs else None

let p1_total (run : Runner.circuit_run) = run.Runner.p_total - run.Runner.p0_total

let share part whole = float_of_int part /. float_of_int whole

let columns pick runs =
  String.concat ", "
    (List.map
       (fun (b : Runner.basic_run) ->
         Printf.sprintf "%s %d" (Ordering.name b.Runner.ordering) (pick b))
       runs)

let max_by f l = List.fold_left (fun m x -> max m (f x)) min_int l
let min_by f l = List.fold_left (fun m x -> min m (f x)) max_int l

let tests (b : Runner.basic_run) = b.Runner.tests
let p0_det (b : Runner.basic_run) = b.Runner.p0_detected
let p_det (b : Runner.basic_run) = b.Runner.p_detected

(* Each claim with its predicate: [None] where it does not apply,
   otherwise whether it holds and the figures it read. *)
let predicates :
    (claim * (Runner.circuit_run -> (bool * string) option)) list =
  let t34 = "Tables 3 and 4" and t5 = "Table 5" and t6 = "Table 6" in
  [
    ( {
        id = "fewer-tests";
        table = t34;
        statement =
          "All three compaction heuristics reduce the number of tests \
           compared to no compaction";
        margin =
          "uncomp's tests >= 1.5x each compacted heuristic's (the paper's \
           lowest factor)";
      },
      fun run ->
        Option.map
          (fun runs ->
            let u = tests (List.hd runs) in
            let factor =
              float_of_int u
              /. float_of_int (max_by tests (List.tl runs))
            in
            ( factor >= 1.5,
              Printf.sprintf "tests %s: least factor %.2f" (columns tests runs)
                factor ))
          (all_basics run) );
    ( {
        id = "small-spread";
        table = t34;
        statement = "Small variations in detected faults between heuristics";
        margin = "max - min of P0 detected over the four <= 10% of |P0|";
      },
      fun run ->
        Option.map
          (fun runs ->
            let spread = max_by p0_det runs - min_by p0_det runs in
            ( share spread run.Runner.p0_total <= 0.10,
              Printf.sprintf "P0 detected %s of %d: spread %d"
                (columns p0_det runs) run.Runner.p0_total spread ))
          (all_basics run) );
    ( {
        id = "values-competitive";
        table = t34;
        statement =
          "The value-based heuristic is competitive with length-based and \
           arbitrary";
        margin =
          "values' P0 detected >= the better of the two - 3% of |P0|, and \
           values' tests <= 1.15x the fewer of the two";
      },
      fun run ->
        Option.map
          (fun runs ->
            let others =
              List.filter
                (fun (b : Runner.basic_run) ->
                  b.Runner.ordering = Ordering.Arbitrary
                  || b.Runner.ordering = Ordering.Length_based)
                runs
            in
            let v = Option.get (basic run Ordering.Value_based) in
            let lost = max_by p0_det others - v.Runner.p0_detected in
            let ratio =
              float_of_int v.Runner.tests /. float_of_int (min_by tests others)
            in
            ( share lost run.Runner.p0_total <= 0.03 && ratio <= 1.15,
              Printf.sprintf
                "P0 detected %s; tests %s: %d fewer detected, %.2fx the tests"
                (columns p0_det (others @ [ v ]))
                (columns tests (others @ [ v ]))
                lost ratio ))
          (all_basics run) );
    ( {
        id = "p1-missed";
        table = t5;
        statement = "Many P1 faults are not detected accidentally";
        margin = "every basic set leaves >= 25% of P1 undetected";
      },
      fun run ->
        match all_basics run with
        | Some runs when p1_total run > 0 ->
          let p1_det (b : Runner.basic_run) =
            b.Runner.p_detected - b.Runner.p0_detected
          in
          let missed = p1_total run - max_by p1_det runs in
          Some
            ( share missed (p1_total run) >= 0.25,
              Printf.sprintf "P1 detected %s of %d: at least %d missed"
                (columns p1_det runs) (p1_total run) missed )
        | Some _ | None -> None );
    ( {
        id = "uncomp-slightly-more";
        table = t5;
        statement =
          "The non-compact test set detects only slightly more of P0 u P1 \
           than the much smaller compact sets";
        margin =
          "uncomp's P0 u P1 detected - each compacted set's <= 10% of \
           |P0 u P1|";
      },
      fun run ->
        Option.map
          (fun runs ->
            let gap = p_det (List.hd runs) - min_by p_det (List.tl runs) in
            ( share gap run.Runner.p_total <= 0.10,
              Printf.sprintf "P0 u P1 detected %s of %d: gap %d"
                (columns p_det runs) run.Runner.p_total gap ))
          (all_basics run) );
    ( {
        id = "enrich-more";
        table = t6;
        statement =
          "Enrichment detects a significantly larger number of P1 faults \
           than accidental detection";
        margin =
          "enrichment's P0 u P1 detected >= the best basic set's + 10% of \
           |P1|";
      },
      fun run ->
        if p1_total run = 0 || run.Runner.basics = [] then None
        else
          let best = max_by p_det run.Runner.basics in
          let gain = run.Runner.enrich_p_detected - best in
          Some
            ( share gain (p1_total run) >= 0.10,
              Printf.sprintf
                "P0 u P1 detected: enrich %d, best basic %d (%s); |P1| %d"
                run.Runner.enrich_p_detected best
                (columns p_det run.Runner.basics)
                (p1_total run) ) );
    ( {
        id = "enrich-tests";
        table = t6;
        statement =
          "Test-set size stays essentially the one required for P0 alone";
        margin = "enrichment's tests <= 1.1x basic values' tests";
      },
      fun run ->
        Option.map
          (fun (v : Runner.basic_run) ->
            ( float_of_int run.Runner.enrich_tests
              <= 1.1 *. float_of_int v.Runner.tests,
              Printf.sprintf "tests: enrich %d, values %d"
                run.Runner.enrich_tests v.Runner.tests ))
          (basic run Ordering.Value_based) );
    ( {
        id = "enrich-p0";
        table = t6;
        statement = "P0 coverage is unchanged";
        margin = "|enrichment's P0 detected - basic values'| <= 3% of |P0|";
      },
      fun run ->
        Option.map
          (fun (v : Runner.basic_run) ->
            let d = run.Runner.enrich_p0_detected - v.Runner.p0_detected in
            ( share (abs d) run.Runner.p0_total <= 0.03,
              Printf.sprintf "P0 detected: enrich %d, values %d of %d"
                run.Runner.enrich_p0_detected v.Runner.p0_detected
                run.Runner.p0_total ))
          (basic run Ordering.Value_based) );
  ]

let claims = List.map fst predicates

let check runs =
  List.concat_map
    (fun (claim, pred) ->
      List.filter_map
        (fun (run : Runner.circuit_run) ->
          Option.map
            (fun (holds, values) ->
              {
                claim;
                circuit = run.Runner.profile.Pdf_synth.Profiles.name;
                holds;
                values;
              })
            (pred run))
        runs)
    predicates

let render ~backend verdicts =
  let buf = Buffer.create 4096 in
  let last = ref "" in
  List.iter
    (fun v ->
      if v.claim.id <> !last then begin
        last := v.claim.id;
        Buffer.add_string buf
          (Printf.sprintf "%s, %s: %s\n  predicate: %s\n" v.claim.table
             v.claim.id v.claim.statement v.claim.margin)
      end;
      Buffer.add_string buf
        (Printf.sprintf "  %-4s %-7s %s\n"
           (if v.holds then "ok" else "FAIL")
           v.circuit v.values))
    verdicts;
  let failed = List.filter (fun v -> not v.holds) verdicts in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "violated: claim %s on %s (backend %s): %s\n"
           v.claim.id v.circuit backend v.values))
    failed;
  Buffer.add_string buf
    (Printf.sprintf "claims check (backend %s): %d of %d predicates hold\n"
       backend
       (List.length verdicts - List.length failed)
       (List.length verdicts));
  Buffer.contents buf
