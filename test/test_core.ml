(* Tests for Pdf_core: two-pattern tests, justification, fault simulation,
   compaction orderings, basic ATPG and the enrichment procedure. *)

module Bit = Pdf_values.Bit
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Delay_model = Pdf_paths.Delay_model
module Fault = Pdf_faults.Fault
module Robust = Pdf_faults.Robust
module Target_sets = Pdf_faults.Target_sets
module Test_pair = Pdf_core.Test_pair
module Test_io = Pdf_core.Test_io
module Justify = Pdf_core.Justify
module Effort = Pdf_core.Effort
module Fault_sim = Pdf_core.Fault_sim
module Ordering = Pdf_core.Ordering
module Atpg = Pdf_core.Atpg
module Job = Pdf_core.Job
module Ledger = Pdf_obs.Ledger
module Rng = Pdf_util.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let s27 = Pdf_synth.Iscas.s27 ()

let { Job.faults = s27_faults; p0 = s27_p0; p1 = s27_p1; _ } =
  Job.analyse s27 ~n_p:40 ~n_p0:10

(* ------------------------------------------------------------------ *)
(* Test_pair                                                            *)
(* ------------------------------------------------------------------ *)

let test_pair_basics () =
  let t = Test_pair.create [| true; false |] [| false; false |] in
  check Alcotest.string "render" "10/00" (Test_pair.to_string t);
  check Alcotest.bool "equal self" true (Test_pair.equal t t);
  let u = Test_pair.create [| true; false |] [| false; true |] in
  check Alcotest.bool "not equal" false (Test_pair.equal t u)

let test_pair_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Test_pair.create: pattern lengths differ") (fun () ->
      ignore (Test_pair.create [| true |] [| true; false |]))

let test_pair_simulate_matches_two_pattern () =
  let t =
    Test_pair.create
      [| true; false; true; false; true; false; true |]
      [| false; false; true; true; true; false; false |]
  in
  let values = Test_pair.simulate s27 t in
  let direct = Pdf_sim.Two_pattern.simulate s27 (Test_pair.pi_pairs t) in
  Array.iteri
    (fun net v ->
      check Alcotest.bool "same triple" true
        (Pdf_values.Triple.equal v direct.(net)))
    values

(* ------------------------------------------------------------------ *)
(* Test_io                                                              *)
(* ------------------------------------------------------------------ *)

let io_tests =
  let rng = Rng.create 11 in
  List.init 9 (fun _ ->
      let pattern () = Array.init 7 (fun _ -> Rng.bool rng) in
      Test_pair.create (pattern ()) (pattern ()))

let parsed = function
  | Ok tests -> List.map Test_pair.to_string tests
  | Error e -> Alcotest.failf "unexpected %s" (Test_io.error_to_string e)

let test_io_roundtrip () =
  let text = Test_io.to_string io_tests in
  check Alcotest.string "one line per test"
    (String.concat ""
       (List.map (fun t -> Test_pair.to_string t ^ "\n") io_tests))
    text;
  check
    Alcotest.(list string)
    "of_string . to_string"
    (List.map Test_pair.to_string io_tests)
    (parsed (Test_io.of_string ~num_pis:7 text));
  let path = Filename.temp_file "test_io" ".tests" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Test_io.write_file io_tests path;
      check
        Alcotest.(list string)
        "read_file . write_file"
        (List.map Test_pair.to_string io_tests)
        (parsed (Test_io.read_file ~num_pis:7 path)));
  check Alcotest.(list string) "empty set" []
    (parsed (Test_io.of_string ~num_pis:7 (Test_io.to_string [])))

let test_io_comments () =
  let text =
    "# s27 tests\n\n  1010101/0101010  # first\n\t\n#0000000/1111111\n\
     1111111/0000000\n"
  in
  check
    Alcotest.(list string)
    "comments and blank lines skipped"
    [ "1010101/0101010"; "1111111/0000000" ]
    (parsed (Test_io.of_string ~num_pis:7 text))

let test_io_rejections () =
  let rejects what text ~line ~message =
    match Test_io.of_string ~num_pis:7 text with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e ->
      check Alcotest.int (what ^ ": line") line e.Test_io.line;
      check Alcotest.string (what ^ ": message") message e.Test_io.message
  in
  rejects "non-binary" "xx2q000/1111111\n" ~line:1
    ~message:"patterns must be over {0,1}";
  rejects "non-binary second pattern" "# c\n1111111/00x0000\n" ~line:2
    ~message:"patterns must be over {0,1}";
  rejects "wrong width" "1010101/0101010\n\n101010/010101\n" ~line:3
    ~message:"expected 7 bits per pattern";
  rejects "no slash" "1010101/0101010\n1010101 0101010\n" ~line:2
    ~message:"expected exactly one '/'";
  rejects "two slashes" "1010101/0101010/1111111\n" ~line:1
    ~message:"expected exactly one '/'";
  check Alcotest.string "error_to_string" "line 3: expected 7 bits per pattern"
    (Test_io.error_to_string
       { Test_io.line = 3; message = "expected 7 bits per pattern" });
  match Test_io.read_file ~num_pis:7 "no/such/file.tests" with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "a missing file must raise Sys_error"

(* ------------------------------------------------------------------ *)
(* Justify                                                              *)
(* ------------------------------------------------------------------ *)

let test_justify_every_s27_fault () =
  (* Every fault that survived the undetectability filter must be
     justifiable in this tiny, highly testable circuit — and the returned
     test must satisfy the fault's conditions exactly. *)
  let engine = Justify.create s27 in
  let rng = Rng.create 5 in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
      | None ->
        (* Random decisions may miss; retry a few times before failing. *)
        let retried = ref false in
        for _ = 1 to 20 do
          if not !retried then
            match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
            | Some t ->
              retried := true;
              check Alcotest.bool "satisfies" true
                (Test_pair.satisfies s27 t p.Fault_sim.reqs)
            | None -> ()
        done;
        if not !retried then
          Alcotest.failf "no test found for %s"
            (Fault.to_string s27 p.Fault_sim.fault)
      | Some t ->
        check Alcotest.bool "satisfies" true
          (Test_pair.satisfies s27 t p.Fault_sim.reqs))
    s27_faults

let test_justify_direct_conflict_returns_none () =
  let engine = Justify.create s27 in
  let rng = Rng.create 1 in
  check Alcotest.bool "conflicting reqs" true
    (Justify.run engine ~rng ~reqs:[ (0, Req.rising); (0, Req.falling) ] = None)

let test_justify_unsatisfiable_internal () =
  (* G8 = AND(G14, G6) with G14 = NOT(G0): requiring G8 stable 1 and G0
     stable 1 is impossible. *)
  let g8 = Option.get (Circuit.find_net s27 "G8") in
  let g0 = Option.get (Circuit.find_net s27 "G0") in
  let engine = Justify.create s27 in
  let rng = Rng.create 1 in
  check Alcotest.bool "unsatisfiable" true
    (Justify.run engine ~rng
       ~reqs:[ (g8, Req.stable true); (g0, Req.stable true) ]
    = None)

let test_justify_empty_reqs () =
  let engine = Justify.create s27 in
  let rng = Rng.create 1 in
  match Justify.run engine ~rng ~reqs:[] with
  | Some t ->
    check Alcotest.int "full width" s27.Circuit.num_pis
      (Array.length t.Test_pair.v1)
  | None -> Alcotest.fail "empty requirements must be satisfiable"

let test_justify_requirement_on_pi () =
  let engine = Justify.create s27 in
  let rng = Rng.create 1 in
  match Justify.run engine ~rng ~reqs:[ (0, Req.rising) ] with
  | Some t ->
    check Alcotest.bool "pi rises" true
      ((not t.Test_pair.v1.(0)) && t.Test_pair.v3.(0))
  | None -> Alcotest.fail "pi transition must be satisfiable"

let test_justify_counters () =
  let engine = Justify.create s27 in
  let rng = Rng.create 1 in
  let e = Justify.effort engine in
  let before = e.Effort.runs in
  ignore (Justify.run engine ~rng ~reqs:[]);
  check Alcotest.int "runs counted" (before + 1) e.Effort.runs;
  check Alcotest.bool "trials monotone" true (e.Effort.steps >= 0)

let test_justify_deterministic_given_seed () =
  let run () =
    let engine = Justify.create s27 in
    let rng = Rng.create 42 in
    Array.map
      (fun (p : Fault_sim.prepared) ->
        match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
        | Some t -> Test_pair.to_string t
        | None -> "-")
      s27_faults
  in
  check Alcotest.(array string) "reproducible" (run ()) (run ())

(* Property: on random small DAGs, any test returned by justification
   satisfies the requirements it was asked for. *)
let prop_justify_sound =
  QCheck.Test.make ~name:"justified tests satisfy their requirements"
    ~count:25
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 6; num_gates = 25; window = 15;
          max_fanout = 3; reuse_pct = 5; restart_pct = 0; fanin3_pct = 10;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Pdf_synth.Generators.random_dag ~name:"rand" ~seed params in
      let model = Delay_model.lines c in
      let ts = Target_sets.build c model ~n_p:20 ~n_p0:6 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let engine = Justify.create c in
      let rng = Rng.create seed in
      Array.for_all
        (fun (p : Fault_sim.prepared) ->
          match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
          | None -> true
          | Some t -> Test_pair.satisfies c t p.Fault_sim.reqs)
        faults)

(* ------------------------------------------------------------------ *)
(* Job                                                                  *)
(* ------------------------------------------------------------------ *)

(* The P0-first layout every enrichment run relies on: P0's faults are
   the ids [0, n0) of the prepared P, and preparing P0 alone (Session's
   basic-ATPG view, Runner's basic runs) yields that prefix. *)
let test_job_layout () =
  List.iter
    (fun name ->
      let c =
        Pdf_synth.Profiles.circuit (Option.get (Pdf_synth.Profiles.find name))
      in
      List.iter
        (fun criterion ->
          let what s =
            Printf.sprintf "%s %s: %s" name
              (Pdf_faults.Robust.criterion_name criterion) s
          in
          let a =
            Job.analyse ~criterion c ~n_p:Job.default.Job.n_p
              ~n_p0:Job.default.Job.n_p0
          in
          let n = Array.length a.Job.faults in
          let n0 = List.length a.Job.sets.Target_sets.p0 in
          check Alcotest.bool (what "non-empty P0") true (n0 > 0);
          check Alcotest.int (what "P prepared whole")
            (List.length a.Job.sets.Target_sets.p) n;
          check Alcotest.(list int) (what "p0") (List.init n0 Fun.id) a.Job.p0;
          check Alcotest.(list int) (what "p1")
            (List.init (n - n0) (fun i -> n0 + i))
            a.Job.p1;
          Array.iteri
            (fun i (p : Fault_sim.prepared) ->
              check Alcotest.int (what "id") i p.Fault_sim.id)
            a.Job.faults;
          let alone =
            Fault_sim.prepare ~criterion c a.Job.sets.Target_sets.p0
          in
          check Alcotest.int (what "P0 alone") n0 (Array.length alone);
          check Alcotest.bool (what "P0 alone is the prefix") true
            (alone = Array.sub a.Job.faults 0 n0);
          check Alcotest.bool (what "p0_faults") true
            (Job.p0_faults a = alone))
        [ Pdf_faults.Robust.Robust; Pdf_faults.Robust.Non_robust ])
    [ "s27"; "b03"; "b09" ]

(* ------------------------------------------------------------------ *)
(* Fault_sim                                                            *)
(* ------------------------------------------------------------------ *)

let test_fault_sim_ids_are_indices () =
  Array.iteri
    (fun i (p : Fault_sim.prepared) -> check Alcotest.int "id" i p.Fault_sim.id)
    s27_faults

let test_fault_sim_matches_satisfies () =
  let t =
    Test_pair.create
      [| true; false; true; false; true; false; true |]
      [| false; true; true; true; false; false; true |]
  in
  let detected = Fault_sim.detected_by_test s27 t s27_faults in
  Array.iteri
    (fun i d ->
      check Alcotest.bool "agrees with satisfies" d
        (Test_pair.satisfies s27 t s27_faults.(i).Fault_sim.reqs))
    detected

let test_fault_sim_union_over_tests () =
  let t1 =
    Test_pair.create (Array.make 7 false) (Array.make 7 true)
  in
  let t2 =
    Test_pair.create (Array.make 7 true) (Array.make 7 false)
  in
  let d1 = Fault_sim.detected_by_test s27 t1 s27_faults in
  let d2 = Fault_sim.detected_by_test s27 t2 s27_faults in
  let both = Fault_sim.detected_by_tests s27 [ t1; t2 ] s27_faults in
  Array.iteri
    (fun i b -> check Alcotest.bool "union" (d1.(i) || d2.(i)) b)
    both

let test_fault_sim_count () =
  check Alcotest.int "count" 2 (Fault_sim.count [| true; false; true |]);
  check Alcotest.int "empty" 0 (Fault_sim.count [||])

(* ------------------------------------------------------------------ *)
(* Ordering                                                             *)
(* ------------------------------------------------------------------ *)

let test_ordering_names () =
  List.iter
    (fun o ->
      check Alcotest.bool "roundtrip" true
        (Ordering.of_name (Ordering.name o) = Some o))
    Ordering.all;
  check Alcotest.bool "long names" true
    (Ordering.of_name "value-based" = Some Ordering.Value_based);
  check Alcotest.bool "unknown" true (Ordering.of_name "zigzag" = None);
  check Alcotest.int "four heuristics" 4 (List.length Ordering.all)

(* Golden regression: pin the exact test-set sizes and folded-secondary
   counts each heuristic produces on s27 (seed 9, all 32 prepared
   faults).  Any change to target ordering, folding or justification
   shows up here before it shows up as a silent quality drift in the
   paper's tables.  Values obtained by running the current engine. *)
let test_ordering_goldens_s27 () =
  let goldens =
    [
      (* ordering, tests, detected, aborts, folded, accidental *)
      (Ordering.Uncompacted, 13, 32, 0, 0, 19);
      (Ordering.Arbitrary, 7, 32, 1, 25, 0);
      (Ordering.Length_based, 7, 32, 0, 25, 0);
      (Ordering.Value_based, 7, 32, 0, 25, 0);
    ]
  in
  List.iter
    (fun (ordering, tests, detected, aborts, folded, accidental) ->
      let name = Ordering.name ordering in
      let l = Ledger.create () in
      (* Pinned numbers are the simulation backend's; request it
         explicitly so the goldens hold under any PDF_JUSTIFY. *)
      let res =
        Atpg.basic ~ledger:l ~justify:Justify.Sim s27
          { Atpg.ordering; seed = 9 } ~faults:s27_faults
      in
      let via v =
        List.length
          (Ledger.find l ~kind:"fault" (fun r ->
               Ledger.get_string r "via" = Some v))
      in
      check Alcotest.int (name ^ " tests") tests (List.length res.Atpg.tests);
      check Alcotest.int (name ^ " detected") detected
        (Fault_sim.count res.Atpg.detected);
      check Alcotest.int (name ^ " aborts") aborts res.Atpg.primary_aborts;
      check Alcotest.int (name ^ " folded secondaries") folded (via "folded");
      check Alcotest.int (name ^ " accidental") accidental (via "accidental");
      (* Default backend: every test record names the simulation engine
         as its winner. *)
      let test_records = Ledger.find l ~kind:"test" (fun _ -> true) in
      check Alcotest.int (name ^ " test records") tests
        (List.length test_records);
      List.iter
        (fun r ->
          check
            Alcotest.(option string)
            (name ^ " engine field") (Some "sim")
            (Ledger.get_string r "engine"))
        test_records)
    goldens

(* ------------------------------------------------------------------ *)
(* Atpg                                                                 *)
(* ------------------------------------------------------------------ *)

let faults0 = Array.of_list (List.map (fun i -> s27_faults.(i)) s27_p0)

let run_basic ordering =
  Atpg.basic s27 { Atpg.ordering; seed = 9 } ~faults:faults0

let test_atpg_detected_flags_sound () =
  (* The detected array must agree with an independent fault simulation of
     the produced test set. *)
  List.iter
    (fun ordering ->
      let res = run_basic ordering in
      let resim = Fault_sim.detected_by_tests s27 res.Atpg.tests faults0 in
      Array.iteri
        (fun i d ->
          check Alcotest.bool
            (Printf.sprintf "%s fault %d" (Ordering.name ordering) i)
            d res.Atpg.detected.(i))
        resim)
    Ordering.all

let test_atpg_every_test_useful () =
  (* Every generated test detects at least one target fault. *)
  let res = run_basic Ordering.Value_based in
  List.iter
    (fun t ->
      let d = Fault_sim.detected_by_test s27 t faults0 in
      check Alcotest.bool "useful test" true (Fault_sim.count d > 0))
    res.Atpg.tests

let test_atpg_compaction_reduces_tests () =
  let uncomp = run_basic Ordering.Uncompacted in
  let values = run_basic Ordering.Value_based in
  check Alcotest.bool "compaction no worse" true
    (List.length values.Atpg.tests <= List.length uncomp.Atpg.tests);
  (* Coverage must be roughly the same (identical on s27). *)
  check Alcotest.int "same coverage"
    (Fault_sim.count uncomp.Atpg.detected)
    (Fault_sim.count values.Atpg.detected)

let test_atpg_deterministic () =
  let a = run_basic Ordering.Value_based in
  let b = run_basic Ordering.Value_based in
  check Alcotest.int "same tests" (List.length a.Atpg.tests)
    (List.length b.Atpg.tests);
  List.iter2
    (fun x y -> check Alcotest.bool "same test vectors" true (Test_pair.equal x y))
    a.Atpg.tests b.Atpg.tests

let test_atpg_tests_bounded_by_primaries () =
  let res = run_basic Ordering.Value_based in
  check Alcotest.bool "tests <= primaries" true
    (List.length res.Atpg.tests <= Array.length faults0)

let test_enrich_detects_p0_like_basic () =
  let basic = run_basic Ordering.Value_based in
  let enrich = Atpg.enrich s27 ~seed:9 ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1 in
  (* P0 coverage must not degrade (on s27 both reach full coverage). *)
  check Alcotest.bool "P0 coverage at least as good" true
    (Atpg.count_detected enrich ~ids:s27_p0
    >= Fault_sim.count basic.Atpg.detected)

let test_enrich_p1_beats_accidental () =
  let basic = run_basic Ordering.Value_based in
  let accidental = Fault_sim.detected_by_tests s27 basic.Atpg.tests s27_faults in
  let acc_p1 =
    List.fold_left (fun k i -> if accidental.(i) then k + 1 else k) 0 s27_p1
  in
  let enrich = Atpg.enrich s27 ~seed:9 ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1 in
  let enr_p1 = Atpg.count_detected enrich ~ids:s27_p1 in
  check Alcotest.bool "enrichment >= accidental on P1" true (enr_p1 >= acc_p1)

let test_enrich_flags_sound () =
  let enrich = Atpg.enrich s27 ~seed:9 ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1 in
  let resim = Fault_sim.detected_by_tests s27 enrich.Atpg.tests s27_faults in
  Array.iteri
    (fun i d -> check Alcotest.bool "flag matches resim" d enrich.Atpg.detected.(i))
    resim

let test_enrich_empty_p1 () =
  let ids = List.init (Array.length faults0) (fun i -> i) in
  let res = Atpg.enrich s27 ~seed:9 ~faults:faults0 ~p0:ids ~p1:[] in
  check Alcotest.bool "works with empty P1" true
    (Fault_sim.count res.Atpg.detected > 0)

let test_count_detected_subsets () =
  let enrich = Atpg.enrich s27 ~seed:9 ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1 in
  let total = Fault_sim.count enrich.Atpg.detected in
  check Alcotest.int "subset counts add up" total
    (Atpg.count_detected enrich ~ids:s27_p0
    + Atpg.count_detected enrich ~ids:s27_p1)

(* Property on random circuits: ATPG soundness — detected flags always
   re-simulate; no test is useless. *)
let prop_atpg_sound_random =
  QCheck.Test.make ~name:"ATPG soundness on random DAGs" ~count:10
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 8; num_gates = 40; window = 25;
          max_fanout = 3; reuse_pct = 5; restart_pct = 0; fanin3_pct = 10;
          inverter_pct = 30; po_taps = 1 }
      in
      let c = Pdf_synth.Generators.random_dag ~name:"rand" ~seed params in
      let { Job.faults; p0; p1; _ } = Job.analyse c ~n_p:30 ~n_p0:10 in
      if Array.length faults = 0 then true
      else begin
        let res = Atpg.enrich c ~seed ~faults ~p0 ~p1 in
        let resim = Fault_sim.detected_by_tests c res.Atpg.tests faults in
        resim = res.Atpg.detected
        && List.for_all
             (fun t ->
               Fault_sim.count (Fault_sim.detected_by_test c t faults) > 0)
             res.Atpg.tests
      end)


(* ------------------------------------------------------------------ *)
(* Static compaction                                                    *)
(* ------------------------------------------------------------------ *)

module Static = Pdf_core.Static_compaction

let test_static_reverse_preserves_coverage () =
  let res = run_basic Ordering.Uncompacted in
  let compacted = Static.reverse_order s27 faults0 res.Atpg.tests in
  check Alcotest.bool "coverage preserved" true
    (Static.coverage_preserved s27 faults0 ~original:res.Atpg.tests
       ~compacted);
  check Alcotest.bool "not longer" true
    (List.length compacted <= List.length res.Atpg.tests)

let test_static_greedy_preserves_coverage () =
  let res = run_basic Ordering.Uncompacted in
  let compacted = Static.greedy_cover s27 faults0 res.Atpg.tests in
  check Alcotest.bool "coverage preserved" true
    (Static.coverage_preserved s27 faults0 ~original:res.Atpg.tests
       ~compacted);
  check Alcotest.bool "not longer" true
    (List.length compacted <= List.length res.Atpg.tests)

let test_static_drops_redundant () =
  (* Duplicate the test set: at least half must be dropped. *)
  let res = run_basic Ordering.Value_based in
  let doubled = res.Atpg.tests @ res.Atpg.tests in
  let reverse = Static.reverse_order s27 faults0 doubled in
  let greedy = Static.greedy_cover s27 faults0 doubled in
  check Alcotest.bool "reverse drops duplicates" true
    (List.length reverse <= List.length res.Atpg.tests);
  check Alcotest.bool "greedy drops duplicates" true
    (List.length greedy <= List.length res.Atpg.tests)

let test_static_empty () =
  check Alcotest.int "reverse of empty" 0
    (List.length (Static.reverse_order s27 faults0 []));
  check Alcotest.int "greedy of empty" 0
    (List.length (Static.greedy_cover s27 faults0 []))

(* ------------------------------------------------------------------ *)
(* Coverage                                                             *)
(* ------------------------------------------------------------------ *)

module Coverage = Pdf_core.Coverage

let test_coverage_buckets () =
  let res = run_basic Ordering.Value_based in
  let cov = Coverage.of_flags faults0 res.Atpg.detected in
  check Alcotest.int "total" (Array.length faults0) cov.Coverage.total;
  check Alcotest.int "detected"
    (Fault_sim.count res.Atpg.detected)
    cov.Coverage.detected;
  let bucket_total =
    List.fold_left
      (fun a (b : Coverage.bucket) -> a + b.Coverage.total)
      0 cov.Coverage.buckets
  in
  let bucket_detected =
    List.fold_left
      (fun a (b : Coverage.bucket) -> a + b.Coverage.detected)
      0 cov.Coverage.buckets
  in
  check Alcotest.int "buckets partition totals" cov.Coverage.total bucket_total;
  check Alcotest.int "buckets partition detected" cov.Coverage.detected
    bucket_detected;
  (* Buckets sorted by decreasing length, each within range. *)
  let rec sorted : Coverage.bucket list -> bool = function
    | a :: (b :: _ as rest) ->
      a.Coverage.length > b.Coverage.length && sorted rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "sorted" true (sorted cov.Coverage.buckets);
  List.iter
    (fun (b : Coverage.bucket) ->
      check Alcotest.bool "detected <= total" true
        (b.Coverage.detected <= b.Coverage.total))
    cov.Coverage.buckets

let test_coverage_percentage () =
  let all = Coverage.of_flags faults0 (Array.make (Array.length faults0) true) in
  check (Alcotest.float 0.01) "100%%" 100. (Coverage.percentage all);
  let none = Coverage.of_flags faults0 (Array.make (Array.length faults0) false) in
  check (Alcotest.float 0.01) "0%%" 0. (Coverage.percentage none);
  let empty = Coverage.of_flags [||] [||] in
  check (Alcotest.float 0.01) "empty set" 0. (Coverage.percentage empty)

let test_coverage_tables_render () =
  let res = run_basic Ordering.Value_based in
  let cov = Coverage.of_flags faults0 res.Atpg.detected in
  let s = Pdf_util.Table.render (Coverage.to_table cov) in
  check Alcotest.bool "has all row" true
    (let n = String.length s in
     let rec go i = i + 3 <= n && (String.sub s i 3 = "all" || go (i + 1)) in
     go 0);
  let cmp =
    Pdf_util.Table.render
      (Coverage.comparison_table ~labels:[ "a"; "b" ] [ cov; cov ])
  in
  check Alcotest.bool "comparison non-empty" true (String.length cmp > 20)

let test_coverage_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Coverage.of_flags: length mismatch") (fun () ->
      ignore (Coverage.of_flags faults0 [| true |]))

(* ------------------------------------------------------------------ *)
(* Multi-set enrichment                                                 *)
(* ------------------------------------------------------------------ *)

let test_enrich_multi_matches_two_pool () =
  let res2 = Atpg.enrich s27 ~seed:9 ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1 in
  let multi =
    Atpg.enrich_multi s27 ~seed:9 ~faults:s27_faults
      ~pools:[ s27_p0; s27_p1 ]
  in
  check Alcotest.int "same tests" (List.length res2.Atpg.tests)
    (List.length multi.Atpg.tests);
  check Alcotest.bool "same detection" true
    (res2.Atpg.detected = multi.Atpg.detected)

let test_enrich_multi_three_pools_sound () =
  let k = List.length s27_p1 / 2 in
  let p1a = List.filteri (fun i _ -> i < k) s27_p1 in
  let p1b = List.filteri (fun i _ -> i >= k) s27_p1 in
  let res =
    Atpg.enrich_multi s27 ~seed:9 ~faults:s27_faults ~pools:[ s27_p0; p1a; p1b ]
  in
  let resim = Fault_sim.detected_by_tests s27 res.Atpg.tests s27_faults in
  check Alcotest.bool "flags sound" true (resim = res.Atpg.detected)

let test_enrich_multi_no_pools () =
  Alcotest.check_raises "empty pools"
    (Invalid_argument "Atpg.enrich_multi: no pools") (fun () ->
      ignore (Atpg.enrich_multi s27 ~seed:1 ~faults:s27_faults ~pools:[]))


(* ------------------------------------------------------------------ *)
(* Timing simulation (physical ground truth)                            *)
(* ------------------------------------------------------------------ *)

module Timing = Pdf_core.Timing

let s27_model = Delay_model.lines s27

let test_timing_fault_free_matches_logic () =
  (* Final settled values equal the plain logic simulation of v3. *)
  let t =
    Test_pair.create
      [| true; false; true; false; true; false; true |]
      [| false; true; true; true; false; false; true |]
  in
  let r = Timing.simulate s27 s27_model t in
  let expected = Pdf_sim.Logic_sim.simulate_bool s27 t.Test_pair.v3 in
  Array.iteri
    (fun net w ->
      check Alcotest.bool
        (Printf.sprintf "net %d settles to v3 response" net)
        expected.(net)
        (Timing.final_value w))
    r.Timing.waveforms;
  (* Initial values equal the v1 response. *)
  let initial = Pdf_sim.Logic_sim.simulate_bool s27 t.Test_pair.v1 in
  Array.iteri
    (fun net w -> check Alcotest.bool "initial is v1 response" initial.(net)
        w.Timing.initial)
    r.Timing.waveforms

let test_timing_settle_within_period () =
  (* Fault-free settling never exceeds the nominal critical delay. *)
  let period = Timing.nominal_period s27 s27_model in
  check Alcotest.int "period is the longest path length" 10 period;
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let bits () = Array.init 7 (fun _ -> Rng.bool rng) in
    let t = Test_pair.create (bits ()) (bits ()) in
    let r = Timing.simulate s27 s27_model t in
    check Alcotest.bool "settles within period" true
      (r.Timing.settle_time <= period)
  done

let test_timing_stable_inputs_quiet () =
  let v = [| true; false; true; true; false; true; false |] in
  let r = Timing.simulate s27 s27_model (Test_pair.create v v) in
  check Alcotest.int "no events" 0 r.Timing.settle_time;
  Array.iter
    (fun w -> check Alcotest.int "no changes" 0 (List.length w.Timing.changes))
    r.Timing.waveforms

let test_timing_value_at () =
  let w = { Timing.initial = false; changes = [ (3, true); (7, false) ] } in
  check Alcotest.bool "before" false (Timing.value_at w 2);
  check Alcotest.bool "at first change" true (Timing.value_at w 3);
  check Alcotest.bool "between" true (Timing.value_at w 6);
  check Alcotest.bool "after" false (Timing.value_at w 9);
  check Alcotest.bool "final" false (Timing.final_value w)

(* The central physical claim: a robust test detects the injected fault
   whenever the fault consumes the slack, and never "detects" the fault
   when no extra delay is injected. *)
let test_timing_robust_tests_catch_slow_paths () =
  let period = Timing.nominal_period s27 s27_model in
  let engine = Justify.create s27 in
  let rng = Rng.create 5 in
  let checked = ref 0 in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
      | None -> ()
      | Some t ->
        incr checked;
        let slack = period - p.Fault_sim.length in
        let inject =
          { Timing.path = p.Fault_sim.fault.Fault.path; extra = slack + 1 }
        in
        check Alcotest.bool
          (Printf.sprintf "physically detected: %s"
             (Fault.to_string s27 p.Fault_sim.fault))
          true
          (Timing.detects s27 s27_model ~t_sample:period ~inject t);
        check Alcotest.bool "no false positive without extra delay" false
          (Timing.detects s27 s27_model ~t_sample:period
             ~inject:{ inject with Timing.extra = 0 }
             t))
    s27_faults;
  check Alcotest.bool "exercised at least 30 faults" true (!checked >= 30)

let test_timing_small_fault_within_slack_hides () =
  (* A short path with a small injected delay still meets timing: the
     robust test must NOT flag it at the nominal period. *)
  let period = Timing.nominal_period s27 s27_model in
  let short =
    Array.to_list s27_faults
    |> List.filter (fun (p : Fault_sim.prepared) ->
           period - p.Fault_sim.length > 2)
  in
  QCheck.assume (short <> []);
  let engine = Justify.create s27 in
  let rng = Rng.create 6 in
  List.iter
    (fun (p : Fault_sim.prepared) ->
      match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
      | None -> ()
      | Some t ->
        let inject =
          { Timing.path = p.Fault_sim.fault.Fault.path; extra = 0 }
        in
        check Alcotest.bool "zero extra is never detected" false
          (Timing.detects s27 s27_model ~t_sample:period ~inject t))
    short


(* ------------------------------------------------------------------ *)
(* Branch-and-bound justification                                       *)
(* ------------------------------------------------------------------ *)

let test_bnb_finds_and_satisfies () =
  let engine = Justify.create s27 in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      match Justify.run_complete engine ~reqs:p.Fault_sim.reqs with
      | Justify.Found t ->
        check Alcotest.bool "satisfies" true
          (Test_pair.satisfies s27 t p.Fault_sim.reqs)
      | Justify.Proved_unsatisfiable ->
        (* Allowed only if the randomized search also never finds it;
           on s27 everything kept by the filter is testable. *)
        Alcotest.failf "bnb refuted a testable fault: %s"
          (Fault.to_string s27 p.Fault_sim.fault)
      | Justify.Gave_up -> Alcotest.fail "bnb budget too small for s27")
    s27_faults

let test_bnb_deterministic () =
  let engine = Justify.create s27 in
  let show p =
    match Justify.run_complete engine ~reqs:p.Fault_sim.reqs with
    | Justify.Found t -> Test_pair.to_string t
    | Justify.Proved_unsatisfiable -> "unsat"
    | Justify.Gave_up -> "gave-up"
  in
  Array.iter
    (fun p -> check Alcotest.string "same result" (show p) (show p))
    s27_faults

let test_bnb_proves_unsatisfiable () =
  let engine = Justify.create s27 in
  let g8 = Option.get (Circuit.find_net s27 "G8") in
  let g0 = Option.get (Circuit.find_net s27 "G0") in
  check Alcotest.bool "direct conflict" true
    (Justify.run_complete engine ~reqs:[ (0, Req.rising); (0, Req.falling) ]
    = Justify.Proved_unsatisfiable);
  check Alcotest.bool "internal contradiction" true
    (Justify.run_complete engine
       ~reqs:[ (g8, Req.stable true); (g0, Req.stable true) ]
    = Justify.Proved_unsatisfiable)

let test_bnb_at_least_as_strong_as_sim () =
  let engine = Justify.create s27 in
  let rng = Rng.create 77 in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      let sim = Justify.run engine ~rng ~reqs:p.Fault_sim.reqs in
      match sim, Justify.run_complete engine ~reqs:p.Fault_sim.reqs with
      | Some _, Justify.Proved_unsatisfiable ->
        Alcotest.fail "bnb refuted what sim satisfied"
      | (Some _ | None), (Justify.Found _ | Justify.Proved_unsatisfiable
        | Justify.Gave_up) -> ())
    s27_faults

(* Agreement with exhaustive search on c17: run_complete is a decision
   procedure for requirement satisfiability (given enough budget). *)
let test_bnb_complete_on_c17 () =
  let c17 = Pdf_synth.Iscas.c17 () in
  let engine = Justify.create c17 in
  let rng = Rng.create 123 in
  let kinds = [| Req.stable false; Req.stable true; Req.final false;
                 Req.final true; Req.rising; Req.falling |] in
  let brute reqs =
    let found = ref false in
    for a = 0 to 31 do
      for b = 0 to 31 do
        if not !found then begin
          let bits v = Array.init 5 (fun i -> (v lsr i) land 1 = 1) in
          let t = Test_pair.create (bits a) (bits b) in
          if Test_pair.satisfies c17 t reqs then found := true
        end
      done
    done;
    !found
  in
  for _ = 1 to 100 do
    let n_reqs = 1 + Rng.int rng 3 in
    let reqs =
      List.init n_reqs (fun _ ->
          ( Rng.int rng (Circuit.num_nets c17),
            kinds.(Rng.int rng (Array.length kinds)) ))
    in
    match Justify.run_complete ~max_backtracks:100_000 engine ~reqs with
    | Justify.Found t ->
      check Alcotest.bool "found test satisfies" true
        (Test_pair.satisfies c17 t reqs);
      check Alcotest.bool "brute force agrees satisfiable" true (brute reqs)
    | Justify.Proved_unsatisfiable ->
      check Alcotest.bool "brute force agrees unsatisfiable" false (brute reqs)
    | Justify.Gave_up -> Alcotest.fail "budget exhausted on c17"
  done



(* ------------------------------------------------------------------ *)
(* PODEM structural justification                                       *)
(* ------------------------------------------------------------------ *)

module Podem = Pdf_core.Podem
module Pool = Pdf_par.Pool
module Generators = Pdf_synth.Generators

let test_podem_s27_finds_all () =
  let eng = Podem.create s27 in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      match Podem.run eng ~reqs:p.Fault_sim.reqs with
      | Podem.Found t ->
        check Alcotest.bool "satisfies" true
          (Test_pair.satisfies s27 t p.Fault_sim.reqs)
      | Podem.Proved_unsatisfiable ->
        Alcotest.failf "podem refuted a testable fault: %s"
          (Fault.to_string s27 p.Fault_sim.fault)
      | Podem.Gave_up -> Alcotest.fail "podem budget too small for s27")
    s27_faults

let test_podem_proves_unsatisfiable () =
  let eng = Podem.create s27 in
  let g8 = Option.get (Circuit.find_net s27 "G8") in
  let g0 = Option.get (Circuit.find_net s27 "G0") in
  check Alcotest.bool "direct conflict" true
    (Podem.run eng ~reqs:[ (0, Req.rising); (0, Req.falling) ]
    = Podem.Proved_unsatisfiable);
  check Alcotest.bool "internal contradiction" true
    (Podem.run eng ~reqs:[ (g8, Req.stable true); (g0, Req.stable true) ]
    = Podem.Proved_unsatisfiable)

let test_podem_deterministic () =
  let show eng (p : Fault_sim.prepared) =
    match Podem.run eng ~reqs:p.Fault_sim.reqs with
    | Podem.Found t -> Test_pair.to_string t
    | Podem.Proved_unsatisfiable -> "unsat"
    | Podem.Gave_up -> "gave-up"
  in
  let a = Podem.create s27 and b = Podem.create s27 in
  Array.iter
    (fun p -> check Alcotest.string "same result" (show a p) (show b p))
    s27_faults

(* Drive a bounded PODEM search by hand through the exposed internals,
   asserting the search-state invariants at every step:

   - the frontier of unsatisfied requirement components is non-empty
     whenever the requirements are unmet and no conflict is implied
     (and empty exactly when they are satisfied);
   - every backtrace lands on an unassigned pattern bit of a cone PI;
   - implication is monotone: a definite implied value never changes
     when a further assignment is added;
   - unassigning the bit and re-implying restores the exact state
     (the engine's backtracking is a true undo). *)
let prop_podem_search_invariants =
  QCheck.Test.make ~name:"PODEM internals: search-state invariants"
    ~count:40
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 6; num_gates = 25; window = 15;
          max_fanout = 3; reuse_pct = 5; restart_pct = 0; fanin3_pct = 10;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"rand" ~seed params in
      let model = Delay_model.lines c in
      let ts = Target_sets.build c model ~n_p:12 ~n_p0:4 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let eng = Podem.create c in
      let module I = Podem.Internal in
      let failure = ref None in
      let fail msg = if !failure = None then failure := Some msg in
      let check_fault (p : Fault_sim.prepared) =
        match I.prepare eng ~reqs:p.Fault_sim.reqs with
        | None -> () (* directly conflicting requirement set *)
        | Some st ->
          let continue_ = ref true in
          let steps = ref 0 in
          while !failure = None && !continue_ && !steps < 60 do
            incr steps;
            if I.conflict st <> None then continue_ := false
            else if I.satisfied st then begin
              if I.frontier st <> [] then
                fail "satisfied state has a non-empty frontier";
              continue_ := false
            end
            else begin
              if I.frontier st = [] then
                fail "unmet requirements with an empty frontier";
              match I.objective st with
              | None ->
                fail "no objective despite unmet requirements";
                continue_ := false
              | Some obj -> (
                match I.backtrace st obj with
                | None -> continue_ := false (* frozen objective: refuted *)
                | Some (pi, j, v) ->
                  if not (Array.exists (Int.equal pi) (I.cone_pis st)) then
                    fail "backtrace left the requirement cone";
                  if j <> 1 && j <> 3 then fail "bad pattern index";
                  let before = I.snapshot st in
                  let pos = if j = 1 then pi else c.Circuit.num_pis + 1 + pi in
                  if before.[pos] <> 'x' then
                    fail "backtrace targeted an assigned bit";
                  I.assign st (pi, j, v);
                  I.imply st;
                  let after = I.snapshot st in
                  let bar = String.index before '|' in
                  String.iteri
                    (fun i ch ->
                      if i > bar && (ch = '0' || ch = '1') && after.[i] <> ch
                      then fail "definite implied value changed under refinement")
                    before;
                  I.unassign st (pi, j);
                  I.imply st;
                  if not (String.equal (I.snapshot st) before) then
                    fail "unassign + imply did not restore the state";
                  (* re-apply the decision and keep searching *)
                  I.assign st (pi, j, v);
                  I.imply st)
            end
          done
      in
      Array.iter check_fault faults;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The engine's implication is event-driven after its first pass: it
   re-evaluates only the cone gates with a changed fanin.  After any
   sequence of assignments and retractions — several between passes,
   inputs outside the cone included — each pass must leave the state a
   full pass over the cone recomputes from the pattern bits alone, and
   the objective the engine scans for must be the frontier's first
   entry. *)
let prop_podem_imply_full_pass =
  QCheck.Test.make ~name:"PODEM imply = full pass" ~count:60
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 8; num_gates = 40; window = 15;
          max_fanout = 4; reuse_pct = 15; restart_pct = 5; fanin3_pct = 20;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"rand" ~seed params in
      let model = Delay_model.lines c in
      let ts = Target_sets.build c model ~n_p:12 ~n_p0:4 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let eng = Podem.create c in
      let module I = Podem.Internal in
      let rng = Rng.create seed in
      let failure = ref None in
      Array.iter
        (fun (p : Fault_sim.prepared) ->
          match I.prepare eng ~reqs:p.Fault_sim.reqs with
          | None -> ()
          | Some st ->
            let pis = I.cone_pis st in
            for _ = 1 to 60 do
              let pi =
                if Rng.int rng 8 = 0 then Rng.int rng c.Circuit.num_pis
                else pis.(Rng.int rng (Array.length pis))
              in
              let j = if Rng.bool rng then 1 else 3 in
              match Rng.int rng 3 with
              | 0 -> I.assign st (pi, j, Rng.bool rng)
              | 1 -> I.unassign st (pi, j)
              | _ ->
                I.imply st;
                let event_driven = I.snapshot st in
                I.full_pass st;
                if !failure = None && I.snapshot st <> event_driven then
                  failure :=
                    Some
                      (Printf.sprintf "event-driven %s, full pass %s"
                         event_driven (I.snapshot st));
                let objective =
                  Option.map (fun (net, k, _) -> (net, k)) (I.objective st)
                and first = List.nth_opt (I.frontier st) 0 in
                if !failure = None && objective <> first then
                  failure := Some "objective is not the frontier's first entry"
            done)
        faults;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The engine keeps its implication state in step with its decision
   stack.  After any run of decisions, flips and pops — refuted ones
   included, a decision only on a consistent state as the search makes
   them — the state equals a fresh one, restricted to the same cone, of
   the merged requirements plus the bits on the stack: the same
   conflict verdict, and when consistent the same value on every net.
   An [undo] that kept the conflict, or a flip that skipped its undo,
   fails this. *)
let prop_podem_implication_in_step =
  QCheck.Test.make ~name:"PODEM implication in step" ~count:60
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 8; num_gates = 40; window = 15;
          max_fanout = 4; reuse_pct = 15; restart_pct = 5; fanin3_pct = 20;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"rand" ~seed params in
      let model = Delay_model.lines c in
      let ts = Target_sets.build c model ~n_p:12 ~n_p0:4 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let eng = Podem.create c in
      let module I = Podem.Internal in
      let module Implication = Pdf_sim.Implication in
      let cone = Pdf_core.Req_cone.create c in
      let rng = Rng.create seed in
      let failure = ref None in
      let values st =
        Array.init (3 * Circuit.num_nets c) (fun i ->
            Implication.value st ~component:(1 + (i mod 3)) (i / 3))
      in
      let same_state got want =
        match (Implication.failed got, Implication.failed want) with
        | Some _, Some _ -> true
        | None, None -> values got = values want
        | Some _, None | None, Some _ -> false
      in
      Array.iter
        (fun (p : Fault_sim.prepared) ->
          match
            (Pdf_core.Req_cone.merge cone p.Fault_sim.reqs,
             I.prepare eng ~reqs:p.Fault_sim.reqs)
          with
          | true, Some st when cone.Pdf_core.Req_cone.n_req > 0 ->
            Pdf_core.Req_cone.load cone;
            (* PODEM seeds the unmerged list; the fresh state below is
               seeded with the merged one. *)
            let merged =
              List.init cone.Pdf_core.Req_cone.n_req (fun i ->
                  let net = cone.Pdf_core.Req_cone.req_nets.(i) in
                  (net, Req.of_bits cone.Pdf_core.Req_cone.bits.(net)))
            in
            let pis = I.cone_pis st in
            (* The stack as the test sees it, top first. *)
            let stack = ref [] in
            for _ = 1 to 40 do
              (match (Rng.int rng 3, !stack) with
              | 0, (pi, j, v, false) :: rest ->
                ignore (I.flip st : bool);
                stack := (pi, j, not v, true) :: rest
              | 1, _ :: rest ->
                I.pop st;
                stack := rest
              | _ ->
                let pi = pis.(Rng.int rng (Array.length pis))
                and j = if Rng.bool rng then 1 else 3
                and v = Rng.bool rng in
                if
                  Implication.failed (I.implication st) = None
                  && not
                       (List.exists (fun (p, k, _, _) -> p = pi && k = j) !stack)
                then begin
                  ignore (I.decide st (pi, j, v) : bool);
                  stack := (pi, j, v, false) :: !stack
                end);
              let fresh =
                Implication.create ~within:cone.Pdf_core.Req_cone.in_cone c
              in
              ignore
                (List.fold_right
                   (fun (pi, j, v, _) acc ->
                     match acc with
                     | Some _ -> acc
                     | None ->
                       Implication.assume fresh ~component:j pi (Bit.of_bool v))
                   !stack
                   (Implication.extend fresh merged)
                  : Implication.conflict option);
              if !failure = None && I.depth st <> List.length !stack then
                failure := Some "decision stack depth";
              if !failure = None && not (same_state (I.implication st) fresh)
              then
                failure :=
                  Some
                    (Printf.sprintf
                       "implication state after %d decisions differs from a \
                        fresh one"
                       (List.length !stack))
            done
          | _ -> ())
        faults;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The scalar evaluator both engines and Atpg run on, over random DAGs
   (half of them with XOR/XNOR gates) and random requirement cones,
   with one state retargeted through three cones the way an engine
   serves its searches.  (a) Right after a retarget the state equals a
   fresh [create]'s on every net; after any sequence of [set_pi] calls
   on cone inputs and persistent passes, every cone net holds the full
   simulation's value and every other net stays X.  (b) Every trial — two fresh keys after each step, then
   every earlier key of the cone again, so that memo hits and
   invalidations both occur — returns the conflict net and evaluation
   count of the ascending cone scan ({!Pdf_check.Trial_ref}), hits
   included; a trial repeated with no pass in between is a hit; a trial
   that evaluates without a conflict leaves S' in the overlay, and no
   trial touches the persistent state.  A hit writes no overlay, so
   the overlay is checked only after trials that evaluated.  A trial
   popping gates level by level, or a memo slot that ignores a changed
   fanin, fails (b) (DESIGN.md §13.2). *)
module Cone_sim = Pdf_core.Cone_sim
module Req_cone = Pdf_core.Req_cone
module Trial_ref = Pdf_check.Trial_ref

let prop_cone_sim_matches_full =
  QCheck.Test.make ~name:"Cone_sim = full sim and scan"
    ~count:100
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let params =
        { Pdf_synth.Generators.num_pis = 4 + Rng.int rng 8;
          num_gates = 10 + Rng.int rng 60; window = 15; max_fanout = 4;
          reuse_pct = 20; restart_pct = 5; fanin3_pct = 20;
          inverter_pct = 25; po_taps = 1 }
      in
      (* Odd seeds draw from the fuzz [xor] profile: XOR/XNOR gates,
         which no other random circuit holds. *)
      let c =
        if seed mod 2 = 0 then Generators.random_dag ~name:"rand" ~seed params
        else
          let xor = Option.get (Pdf_check.Fuzz.profile_of_name "xor") in
          let grid = xor.Pdf_check.Fuzz.grid in
          Generators.random_dag ~xor_pct:xor.Pdf_check.Fuzz.xor_pct
            ~name:"xor" ~seed
            (List.nth grid (seed / 2 mod List.length grid))
      in
      let np = c.Circuit.num_pis and n = Circuit.num_nets c in
      let rand_reqs () =
        List.init (1 + Rng.int rng 3) (fun _ ->
            let req =
              match Rng.int rng 6 with
              | 0 -> Req.rising
              | 1 -> Req.falling
              | 2 -> Req.stable (Rng.bool rng)
              | 3 -> Req.final (Rng.bool rng)
              | 4 -> Req.initial (Rng.bool rng)
              | _ -> Option.get (Req.of_string "x1x")
            in
            (np + Rng.int rng (Circuit.num_gates c), req))
      in
      let cone = Req_cone.create c in
      let sim = Cone_sim.create c in
      let s = Cone_sim.values sim in
      let rand_bit () =
        match Rng.int rng 3 with 0 -> Bit.X | 1 -> Bit.Zero | _ -> Bit.One
      in
      let failure = ref None in
      let fail fmt =
        Printf.ksprintf
          (fun m -> if !failure = None then failure := Some m)
          fmt
      in
      let comp = Trial_ref.component in
      let check_state what values =
        for net = 0 to n - 1 do
          for k = 0 to 2 do
            let want =
              if cone.Req_cone.in_cone.(net) then comp values.(net) k
              else Bit.X
            in
            if not (Bit.equal s.(k).(net) want) then
              fail "%s: net %d component %d" what net k
          done
        done
      in
      for cone_i = 1 to 3 do
        if Req_cone.merge cone (rand_reqs ()) then begin
          Req_cone.load cone;
          Cone_sim.retarget sim cone;
          let fresh = Cone_sim.values (Cone_sim.create c) in
          for net = 0 to n - 1 do
            for k = 0 to 2 do
              if not (Bit.equal s.(k).(net) fresh.(k).(net)) then
                fail "cone %d: retargeted net %d component %d differs from a \
                      fresh state" cone_i net k
            done
          done;
          let pis = Array.sub cone.Req_cone.pis 0 cone.Req_cone.n_pis in
          let a1 = Array.make np Bit.X and a3 = Array.make np Bit.X in
          let full () =
            Pdf_sim.Two_pattern.simulate c
              (Array.init np (fun pi ->
                   { Pdf_sim.Two_pattern.b1 = a1.(pi); b3 = a3.(pi) }))
          in
          let keys = ref [] in
          for step = 1 to 12 do
            for _ = 0 to Rng.int rng 3 do
              let pi = pis.(Rng.int rng (Array.length pis)) in
              if Rng.bool rng then a1.(pi) <- rand_bit ();
              if Rng.bool rng then a3.(pi) <- rand_bit ();
              Cone_sim.set_pi sim pi ~v1:a1.(pi) ~v3:a3.(pi)
            done;
            Cone_sim.propagate sim;
            let before = full () in
            check_state (Printf.sprintf "cone %d, step %d" cone_i step) before;
            let fresh_keys =
              List.init 2 (fun _ ->
                  ( pis.(Rng.int rng (Array.length pis)),
                    (if Rng.bool rng then 1 else 3),
                    Bit.of_bool (Rng.bool rng) ))
            in
            keys := fresh_keys @ !keys;
            let try_key (pi, j, b) =
              let v1 = if j = 1 then b else a1.(pi) in
              let v3 = if j = 3 then b else a3.(pi) in
              let o1 = a1.(pi) and o3 = a3.(pi) in
              a1.(pi) <- v1;
              a3.(pi) <- v3;
              let after = full () in
              a1.(pi) <- o1;
              a3.(pi) <- o3;
              let evals0 = Cone_sim.trial_evals sim
              and hits0 = Cone_sim.memo_hits sim in
              let net = Cone_sim.trial sim pi ~v1 ~v3 in
              let evals = Cone_sim.trial_evals sim - evals0 in
              let hit = Cone_sim.memo_hits sim > hits0 in
              let want_net, want_evals =
                Trial_ref.scan c cone ~before ~after ~pi
              in
              if net <> want_net || evals <> want_evals then
                fail "cone %d, step %d, trial of PI %d bit %d (%s): conflict \
                      %d after %d evaluations, the scan's %d after %d"
                  cone_i step pi j
                  (if hit then "memo hit" else "evaluated")
                  net evals want_net want_evals;
              if net < 0 && not hit then
                for net = 0 to n - 1 do
                  for k = 0 to 2 do
                    if
                      cone.Req_cone.in_cone.(net)
                      && not
                           (Bit.equal
                              (Cone_sim.trial_value sim ~k net)
                              (comp after.(net) k))
                    then
                      fail "cone %d, step %d, trial of PI %d: overlay net %d \
                            component %d"
                        cone_i step pi net k
                  done
                done;
              check_state
                (Printf.sprintf "cone %d, step %d, after a trial" cone_i step)
                before;
              hit
            in
            List.iter (fun key -> ignore (try_key key : bool)) !keys;
            (* Nothing changed since: the same trial again is a hit. *)
            if not (try_key (List.hd !keys)) then
              fail "cone %d, step %d: a repeated trial evaluated" cone_i step
          done
        end
      done;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Cone_sim and Implication evaluate gates by lookup in Bit's operator
   tables, so that their passes call no other module per gate and
   branch on no value (DESIGN.md §13.2); this pins the tables and the
   kernel to the reference.  Every entry of every table against the
   operator it was built from, the middle table against
   [Two_pattern.middle_of_pair]; and every gate kind at every arity from
   its minimum to 4 on every input in {0, 1, X}^n: [eval] over a plain
   array, and [eval_overlay] under every stamp pattern, each fanin's
   value on the side its stamp selects and a different value on the
   other side, must equal [Logic_sim.eval_gate_get] reading the
   inputs. *)
let test_kernel_algebra () =
  let module Gate = Pdf_circuit.Gate in
  let bits = [ Bit.Zero; Bit.One; Bit.X ] in
  let bit = Alcotest.testable Bit.pp Bit.equal in
  let tables =
    [
      ("and", Bit.and_table, Bit.and_);
      ("nand", Bit.nand_table, fun a b -> Bit.not_ (Bit.and_ a b));
      ("or", Bit.or_table, Bit.or_);
      ("nor", Bit.nor_table, fun a b -> Bit.not_ (Bit.or_ a b));
      ("xor", Bit.xor_table, Bit.xor);
      ("xnor", Bit.xnor_table, fun a b -> Bit.not_ (Bit.xor a b));
      ("middle", Bit.middle_table, Pdf_sim.Two_pattern.middle_of_pair);
    ]
  in
  List.iter
    (fun (name, table, op) ->
      check Alcotest.int (name ^ " entries") 9 (Array.length table);
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              check bit
                (Printf.sprintf "%s %c%c" name (Bit.char a) (Bit.char b))
                (op a b)
                table.((3 * i) + j))
            bits)
        bits)
    tables;
  let other = function
    | Bit.Zero -> Bit.One
    | Bit.One -> Bit.X
    | Bit.X -> Bit.Zero
  in
  let rec pow3 i = if i = 0 then 1 else 3 * pow3 (i - 1) in
  let vectors = ref 0 in
  List.iter
    (fun kind ->
      let top =
        match Gate.max_arity kind with Some m -> min m 4 | None -> 4
      in
      for n = Gate.min_arity kind to top do
        let g = { Circuit.kind; fanins = Array.init n Fun.id } in
        for code = 0 to pow3 n - 1 do
          let v = Array.init n (fun i -> List.nth bits (code / pow3 i mod 3)) in
          let want = Pdf_sim.Logic_sim.eval_gate_get g (fun net -> v.(net)) in
          let name =
            Printf.sprintf "%s %s" (Gate.kind_name kind)
              (String.init n (fun i -> Bit.char v.(i)))
          in
          check bit (name ^ " eval") want (Cone_sim.eval g v);
          for mask = 0 to (1 lsl n) - 1 do
            let stamped i = mask land (1 lsl i) <> 0 and id = 7 in
            let stamp =
              Array.init n (fun i -> if stamped i then id else id - 1)
            in
            let value =
              Array.init n (fun i -> if stamped i then v.(i) else other v.(i))
            and base =
              Array.init n (fun i -> if stamped i then other v.(i) else v.(i))
            in
            check bit
              (Printf.sprintf "%s eval_overlay, stamps %d" name mask)
              want
              (Cone_sim.eval_overlay g ~stamp ~value ~base ~id)
          done;
          incr vectors
        done
      done)
    Gate.all_kinds;
  (* 2 unary kinds x 3 inputs, 6 binary kinds x (9 + 27 + 81) *)
  check Alcotest.int "input vectors" ((2 * 3) + (6 * (9 + 27 + 81))) !vectors

(* The sim engine scans its requirements after an assignment only when
   Cone_sim counted a contradicting write ([Cone_sim.contradictions]):
   from a state that contradicts no requirement, a step that leaves one
   contradicting must have written the contradiction.  Random DAGs,
   random requirement cones (on gate outputs and inputs alike), random
   [set_pi] and [propagate] steps; a step that leaves a conflict is
   undone the way [Justify.run_complete] restores, which must leave the
   state conflict-free again.  A state over the whole circuit never
   counts one. *)
let prop_write_time_check =
  QCheck.Test.make ~name:"contradicting writes flag every new conflict"
    ~count:100
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let params =
        { Pdf_synth.Generators.num_pis = 4 + Rng.int rng 8;
          num_gates = 10 + Rng.int rng 60; window = 15; max_fanout = 4;
          reuse_pct = 20; restart_pct = 5; fanin3_pct = 20;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"rand" ~seed params in
      let np = c.Circuit.num_pis and n = Circuit.num_nets c in
      let rand_bit () =
        match Rng.int rng 3 with 0 -> Bit.X | 1 -> Bit.Zero | _ -> Bit.One
      in
      let rand_reqs () =
        List.init (1 + Rng.int rng 4) (fun _ ->
            let req =
              match Rng.int rng 6 with
              | 0 -> Req.rising
              | 1 -> Req.falling
              | 2 -> Req.stable (Rng.bool rng)
              | 3 -> Req.final (Rng.bool rng)
              | 4 -> Req.initial (Rng.bool rng)
              | _ ->
                Option.get
                  (Req.of_string (if Rng.bool rng then "x1x" else "x0x"))
            in
            (Rng.int rng n, req))
      in
      let failure = ref None in
      let fail fmt =
        Printf.ksprintf (fun m -> if !failure = None then failure := Some m) fmt
      in
      let cone = Req_cone.create c in
      let sim = Cone_sim.create c in
      let s = Cone_sim.values sim in
      for cone_i = 1 to 4 do
        if Req_cone.merge cone (rand_reqs ()) then begin
          Req_cone.load cone;
          Cone_sim.retarget sim cone;
          let pis = Array.sub cone.Req_cone.pis 0 cone.Req_cone.n_pis in
          let a1 = Array.make np Bit.X and a3 = Array.make np Bit.X in
          if Req_cone.conflict_net cone s <> None then
            fail "cone %d: a retargeted state conflicts" cone_i;
          for step = 1 to 16 do
            let saved1 = Array.copy a1 and saved3 = Array.copy a3 in
            let before = Cone_sim.contradictions sim in
            for _ = 0 to Rng.int rng 2 do
              let pi = pis.(Rng.int rng (Array.length pis)) in
              if Rng.bool rng then a1.(pi) <- rand_bit ();
              if Rng.bool rng then a3.(pi) <- rand_bit ();
              Cone_sim.set_pi sim pi ~v1:a1.(pi) ~v3:a3.(pi)
            done;
            Cone_sim.propagate sim;
            let wrote = Cone_sim.contradictions sim > before in
            match Req_cone.conflict_net cone s with
            | None -> ()
            | Some net ->
              if not wrote then
                fail "cone %d, step %d: net %d conflicts, no write flagged"
                  cone_i step net;
              Array.iter
                (fun pi ->
                  a1.(pi) <- saved1.(pi);
                  a3.(pi) <- saved3.(pi);
                  Cone_sim.set_pi sim pi ~v1:a1.(pi) ~v3:a3.(pi))
                pis;
              Cone_sim.propagate sim;
              if Req_cone.conflict_net cone s <> None then
                fail "cone %d, step %d: the restored state conflicts" cone_i
                  step
          done
        end
      done;
      let whole = Cone_sim.create c in
      for _ = 1 to 8 do
        let pi = Rng.int rng np in
        Cone_sim.set_pi whole pi ~v1:(rand_bit ()) ~v3:(rand_bit ());
        Cone_sim.propagate whole
      done;
      if Cone_sim.contradictions whole <> 0 then
        fail "a state over the whole circuit counted a contradiction";
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Each engine builds its search state once and reloads it for every
   search: requirement cone, values, the sim engine's trial memo,
   PODEM's decision stack.  A sequence of searches on one engine must
   answer each search exactly as a fresh engine would: the same
   outcome and test, the same trial, backtrack and resimulation-gate
   deltas (with the attribution sheet's trial evaluations, which memo
   hits replay), and the same forensics.  The searches are the
   requirement sets of random target faults and unions of two, on
   random DAGs; the sim engine's [run] gets the same seed on both
   sides. *)
let prop_engine_reuse =
  QCheck.Test.make ~name:"reused engine = fresh engines" ~count:30
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 8; num_gates = 40; window = 15;
          max_fanout = 4; reuse_pct = 15; restart_pct = 5; fanin3_pct = 20;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"rand" ~seed params in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:16 ~n_p0:4 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let rng = Rng.create seed in
      let nf = Array.length faults in
      let searches =
        List.init nf (fun i -> faults.(i).Fault_sim.reqs)
        @ List.init (min nf 8) (fun _ ->
              faults.(Rng.int rng nf).Fault_sim.reqs
              @ faults.(Rng.int rng nf).Fault_sim.reqs)
      in
      let nets = Circuit.num_nets c in
      let sheet () = Pdf_obs.Attrib.make_sheet ~nets in
      let evals (a : Pdf_obs.Attrib.sheet) = a.Pdf_obs.Attrib.t_trial_evals in
      let sim_sheet = sheet () and podem_sheet = sheet () in
      let sim = Justify.create ~attrib:sim_sheet c in
      let pod = Podem.create ~attrib:podem_sheet c in
      let show_test = Option.fold ~none:"none" ~some:Test_pair.to_string in
      let show_complete = function
        | Justify.Found t -> Test_pair.to_string t
        | Justify.Proved_unsatisfiable -> "unsat"
        | Justify.Gave_up -> "gave up"
      in
      let show_podem = function
        | Podem.Found t -> Test_pair.to_string t
        | Podem.Proved_unsatisfiable -> "unsat"
        | Podem.Gave_up -> "gave up"
      in
      (* One search on the reused engine and on a fresh one: the
         rendered answer, the account's deltas and forensics of each. *)
      let account_side (e : Effort.t) search =
        let t0 = e.steps and b0 = e.backtracks and g0 = e.pass_gates in
        Effort.reset_forensics e;
        let answer = search () in
        let f = Effort.forensics e in
        Printf.sprintf "%s steps %d backtracks %d gates %d conflict %d/%d \
                        deepest %d"
          answer (e.steps - t0) (e.backtracks - b0) (e.pass_gates - g0)
          f.Effort.last_net f.Effort.last_level f.Effort.deepest_level
      in
      let sim_side run e a =
        let v0 = evals a in
        let answer = account_side (Justify.effort e) (fun () -> run e) in
        Printf.sprintf "%s evals %d" answer (evals a - v0)
      in
      let podem_side e reqs =
        account_side (Podem.effort e) (fun () ->
            show_podem (Podem.run ~max_backtracks:300 e ~reqs))
      in
      let failure = ref None in
      List.iteri
        (fun i reqs ->
          let run e =
            show_test (Justify.run e ~rng:(Rng.create (seed + i)) ~reqs)
          and run_complete e =
            show_complete (Justify.run_complete ~max_backtracks:300 e ~reqs)
          in
          let fresh_sheet = sheet () in
          let pairs =
            [ ("run", sim_side run sim sim_sheet,
               sim_side run (Justify.create ~attrib:fresh_sheet c) fresh_sheet);
              ("run_complete", sim_side run_complete sim sim_sheet,
               let a = sheet () in
               sim_side run_complete (Justify.create ~attrib:a c) a);
              ("Podem.run", podem_side pod reqs,
               podem_side (Podem.create ~attrib:(sheet ()) c) reqs) ]
          in
          List.iter
            (fun (what, reused, fresh) ->
              if !failure = None && not (String.equal reused fresh) then
                failure :=
                  Some
                    (Printf.sprintf "search %d, %s: reused engine %s, fresh \
                                     engine %s" i what reused fresh))
            pairs)
        searches;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Engine-level goldens: sim / podem / portfolio                        *)
(* ------------------------------------------------------------------ *)

let enrich_with c ~seed kind ~n_p ~n_p0 =
  let { Job.faults; p0; p1; _ } = Job.analyse c ~n_p ~n_p0 in
  Atpg.enrich c ~seed ~justify:kind ~faults ~p0 ~p1

(* Fixed-seed circuits drawn from the fuzz harness's deep and reconv
   grids (lib/check/fuzz.ml) where the simulation-based search aborts:
   deep logic stacks up side-input stability conditions, reconvergent
   fanout correlates them.  Golden values pin the exact behaviour of
   each backend; the structural engine must strictly reduce the aborted
   fault count on both — that is the point of having it. *)
let fuzz_base =
  { Pdf_synth.Generators.num_pis = 6; num_gates = 30; window = 12;
    max_fanout = 3; reuse_pct = 10; restart_pct = 10; fanin3_pct = 20;
    inverter_pct = 25; po_taps = 1 }

let deep_circuit =
  Generators.random_dag ~name:"deep7" ~seed:7
    { fuzz_base with Generators.window = 5; restart_pct = 5 }

let reconv_circuit =
  Generators.random_dag ~name:"reconv2" ~seed:2
    { fuzz_base with Generators.reuse_pct = 30; max_fanout = 4 }

let test_engine_goldens () =
  let goldens =
    [
      (* circuit, kind, (tests, detected, aborted primaries) *)
      ("s27", s27, 40, 10, [ (Justify.Sim, (7, 32, 0));
                             (Justify.Podem, (7, 32, 0));
                             (Justify.Portfolio, (7, 32, 0)) ]);
      ("deep", deep_circuit, 240, 40,
       [ (Justify.Sim, (16, 51, 5));
         (Justify.Podem, (17, 55, 3));
         (Justify.Portfolio, (17, 55, 3)) ]);
      ("reconv", reconv_circuit, 240, 40,
       [ (Justify.Sim, (11, 38, 3));
         (Justify.Podem, (13, 40, 1));
         (Justify.Portfolio, (13, 40, 1)) ]);
    ]
  in
  List.iter
    (fun (cname, c, n_p, n_p0, expected) ->
      let sim_aborts = ref 0 in
      List.iter
        (fun (kind, (tests, detected, aborts)) ->
          let label = cname ^ "/" ^ Justify.kind_name kind in
          let res = enrich_with c ~seed:9 kind ~n_p ~n_p0 in
          check Alcotest.int (label ^ " tests") tests
            (List.length res.Atpg.tests);
          check Alcotest.int (label ^ " detected") detected
            (Fault_sim.count res.Atpg.detected);
          check Alcotest.int (label ^ " aborts") aborts res.Atpg.primary_aborts;
          if kind = Justify.Sim then sim_aborts := res.Atpg.primary_aborts
          else if cname <> "s27" then
            (* the acceptance claim: structural search strictly reduces
               aborted faults on the hard profiles *)
            check Alcotest.bool (label ^ " fewer aborts than sim") true
              (res.Atpg.primary_aborts < !sim_aborts))
        expected)
    goldens

let test_portfolio_ledger_jobs_invariant () =
  (* The ledger must be byte-identical whatever the job count
     (DESIGN.md §15): the portfolio's members run one after another on
     the caller's domain, in a fixed priority order. *)
  let saved = Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) @@ fun () ->
  let run jobs =
    Pool.set_default_jobs jobs;
    let l = Ledger.create () in
    ignore
      (Atpg.enrich ~ledger:l ~justify:Justify.Portfolio s27 ~seed:9
         ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1);
    Ledger.to_jsonl l
  in
  let one = run 1 in
  let four = run 4 in
  check Alcotest.bool "ledger bytes identical at --jobs 1 vs 4" true
    (String.equal one four);
  check Alcotest.bool "ledger non-trivial" true (String.length one > 100)

(* The portfolio's stop rule on s27, where PODEM justifies every
   fault: each such call runs PODEM alone — one run, won by "podem" —
   and a requirement set PODEM refutes, directly or by search, ends
   after that one run without a test. *)
let test_portfolio_escalation () =
  let engine = Justify.Engine.create ~kind:Justify.Portfolio s27 in
  let rng = Rng.create 9 in
  let run reqs =
    let runs0 = Justify.Engine.runs engine in
    let res = Justify.Engine.run engine ~rng ~reqs in
    (res, Justify.Engine.runs engine - runs0)
  in
  Array.iter
    (fun (p : Fault_sim.prepared) ->
      match run p.Fault_sim.reqs with
      | Some t, runs ->
        check Alcotest.int "one run" 1 runs;
        check Alcotest.string "winner" "podem" (Justify.Engine.winner engine);
        check Alcotest.bool "satisfies" true
          (Test_pair.satisfies s27 t p.Fault_sim.reqs)
      | None, _ ->
        Alcotest.failf "no test for %s" (Fault.to_string s27 p.Fault_sim.fault))
    s27_faults;
  let g8 = Option.get (Circuit.find_net s27 "G8") in
  let g0 = Option.get (Circuit.find_net s27 "G0") in
  List.iter
    (fun (what, reqs) ->
      let res, runs = run reqs in
      check Alcotest.bool (what ^ ": no test") true (res = None);
      check Alcotest.int (what ^ ": one run") 1 runs)
    [
      ("direct conflict", [ (0, Req.rising); (0, Req.falling) ]);
      ( "internal contradiction",
        [ (g8, Req.stable true); (g0, Req.stable true) ] );
    ]

(* Each backend's folded accounts — the per-fault [effort] the ledger
   records — against the attribution sheet [pdfatpg profile] renders,
   charged by the same engine.  On s1196's consecutive fault pairs at
   N_P = 800, N_P0 = 12 PODEM gives up once, so the portfolio's sim
   members run too and their accounts must be folded in: a dropped
   member or a search whose passes never reach [pass_gates] breaks an
   identity. *)
let test_engine_accounts_match_sheet () =
  let c =
    Pdf_synth.Profiles.circuit (Option.get (Pdf_synth.Profiles.find "s1196"))
  in
  let ts = Target_sets.build c (Delay_model.lines c) ~n_p:800 ~n_p0:12 in
  let faults = Fault_sim.prepare c ts.Target_sets.p in
  let n = min 60 (Array.length faults) in
  let sets =
    List.init (n - 1) (fun i ->
        faults.(i).Fault_sim.reqs @ faults.(i + 1).Fault_sim.reqs)
  in
  let drive kind =
    let a = Pdf_obs.Attrib.make_sheet ~nets:(Circuit.num_nets c) in
    let e = Justify.Engine.create ~attrib:a ~kind c in
    let rng = Rng.create 1 in
    List.iter (fun reqs -> ignore (Justify.Engine.run e ~rng ~reqs)) sets;
    let name what = Justify.kind_name kind ^ " " ^ what in
    check Alcotest.int (name "runs") a.Pdf_obs.Attrib.t_runs
      (Justify.Engine.runs e);
    check Alcotest.int (name "backtracks") a.Pdf_obs.Attrib.t_backtracks
      (Justify.Engine.backtracks e);
    check Alcotest.int (name "resim gates") a.Pdf_obs.Attrib.t_resim_gates
      (Justify.Engine.resim_gates e);
    check Alcotest.int (name "resim cone sum") a.Pdf_obs.Attrib.t_resim_gates
      (Array.fold_left ( + ) 0 a.Pdf_obs.Attrib.resim_cone);
    check Alcotest.bool (name "passes charged") true
      (Justify.Engine.resim_gates e > 0);
    (e, a)
  in
  let sim, a = drive Justify.Sim in
  check Alcotest.int "sim trials" a.Pdf_obs.Attrib.t_trials
    (Justify.Engine.trials sim);
  let podem, _ = drive Justify.Podem in
  let portfolio, _ = drive Justify.Portfolio in
  check Alcotest.bool "podem gives up" true (Justify.Engine.aborts podem > 0);
  check Alcotest.bool "portfolio gives up" true
    (Justify.Engine.aborts portfolio > 0);
  check Alcotest.bool "sim members ran" true
    (Justify.Engine.runs portfolio > Justify.Engine.runs podem)

(* ------------------------------------------------------------------ *)
(* The requirement order                                                *)
(* ------------------------------------------------------------------ *)

(* A seeded permutation of a list. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let all_reqs =
  Array.of_list
    (List.filter_map
       (fun m -> if Req.bits_conflict m then None else Some (Req.of_bits m))
       (List.init 64 Fun.id))

(* [Req_cone.merge] against a fold of [Req.merge] over a table: the
   same conflict verdict and, when it merges, the same requirement on
   every net, each listed net once in [req_nets], strictly ascending,
   and every other net unconstrained; after a conflict, no requirement
   at all.  One buffer serves every list, so an entry an earlier
   problem left behind shows too.  Half the lists draw their nets from
   the first six, so nets repeat and conflict. *)
let prop_req_cone_merge =
  QCheck.Test.make ~name:"Req_cone.merge = a fold, ascending" ~count:100
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let c = reconv_circuit in
      let n = Circuit.num_nets c in
      let cone = Req_cone.create c in
      let rng = Rng.create seed in
      let failure = ref None in
      let fail fmt =
        Printf.ksprintf
          (fun m -> if !failure = None then failure := Some m)
          fmt
      in
      let comp_char b = match b with Bit.Zero -> '0' | Bit.One -> '1' | Bit.X -> 'x' in
      let r_string net =
        String.init 3 (fun k -> comp_char cone.Req_cone.r.(k).(net))
      in
      for list_i = 1 to 20 do
        let range = if Rng.bool rng then 6 else n in
        let reqs =
          List.init (Rng.int rng 12) (fun _ ->
              (Rng.int rng range, all_reqs.(Rng.int rng 27)))
        in
        let table = Hashtbl.create 16 in
        let folds =
          List.for_all
            (fun (net, r) ->
              let cur =
                Option.value ~default:Req.any (Hashtbl.find_opt table net)
              in
              match Req.merge cur r with
              | Some m ->
                Hashtbl.replace table net m;
                true
              | None -> false)
            reqs
        in
        let merges = Req_cone.merge cone reqs in
        if merges <> folds then
          fail "list %d: merge says %b, the fold %b" list_i merges folds
        else begin
          let listed = if merges then Hashtbl.length table else 0 in
          if cone.Req_cone.n_req <> listed then
            fail "list %d: %d nets listed, the fold has %d" list_i
              cone.Req_cone.n_req listed;
          for i = 1 to cone.Req_cone.n_req - 1 do
            if cone.Req_cone.req_nets.(i - 1) >= cone.Req_cone.req_nets.(i)
            then fail "list %d: req_nets not strictly ascending at %d" list_i i
          done;
          for net = 0 to n - 1 do
            let want =
              match Hashtbl.find_opt table net with
              | Some r when merges -> Req.to_string r
              | Some _ | None -> "xxx"
            in
            if r_string net <> want then
              fail "list %d: net %d holds %s, the fold %s" list_i net
                (r_string net) want
          done
        end
      done;
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The engines read requirements through [Req_cone.merge] alone, so a
   shuffled list is the same problem: on random DAGs each backend
   answers a requirement list and a shuffle of it with the same
   outcome, test, effort and forensics, on two engines that have run
   the same searches before. *)
let prop_engines_order_free =
  QCheck.Test.make ~name:"engines ignore the requirement list's order"
    ~count:20
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 8; num_gates = 40; window = 15;
          max_fanout = 4; reuse_pct = 15; restart_pct = 5; fanin3_pct = 20;
          inverter_pct = 25; po_taps = 1 }
      in
      let c = Generators.random_dag ~name:"rand" ~seed params in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:16 ~n_p0:4 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let rng = Rng.create seed in
      let nf = Array.length faults in
      let searches =
        List.init nf (fun i -> faults.(i).Fault_sim.reqs)
        @ List.init (min nf 8) (fun _ ->
              faults.(Rng.int rng nf).Fault_sim.reqs
              @ faults.(Rng.int rng nf).Fault_sim.reqs)
      in
      let failure = ref None in
      List.iter
        (fun kind ->
          let mine = Justify.Engine.create ~kind c
          and theirs = Justify.Engine.create ~kind c in
          let side e i reqs =
            let module E = Justify.Engine in
            let r0 = E.runs e and t0 = E.trials e and b0 = E.backtracks e
            and g0 = E.resim_gates e and a0 = E.aborts e in
            E.reset_forensics e;
            let res = E.run e ~rng:(Rng.create (seed + i)) ~reqs in
            let f = E.forensics e in
            Printf.sprintf
              "%s runs %d trials %d backtracks %d gates %d aborts %d \
               conflict %d/%d deepest %d"
              (Option.fold ~none:"none" ~some:Test_pair.to_string res)
              (E.runs e - r0) (E.trials e - t0) (E.backtracks e - b0)
              (E.resim_gates e - g0) (E.aborts e - a0) f.Justify.last_net
              f.Justify.last_level f.Justify.deepest_level
          in
          List.iteri
            (fun i reqs ->
              let listed = side mine i reqs
              and shuffled = side theirs i (shuffle rng reqs) in
              if !failure = None && listed <> shuffled then
                failure :=
                  Some
                    (Printf.sprintf "%s, search %d: listed %s, shuffled %s"
                       (Justify.kind_name kind) i listed shuffled))
            searches)
        [ Justify.Sim; Justify.Podem; Justify.Portfolio ];
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* An enrichment whose faults list their requirements in another order
   writes the same ledger, under each backend: b03 at the enrich-sim
   benchmark's scale, whose P1 is scanned. *)
let test_enrich_order_free () =
  let c =
    Pdf_synth.Profiles.circuit (Option.get (Pdf_synth.Profiles.find "b03"))
  in
  let { Job.faults; p0; p1; _ } = Job.analyse c ~n_p:700 ~n_p0:12 in
  let rng = Rng.create 5 in
  let shuffled =
    Array.map
      (fun (p : Fault_sim.prepared) ->
        Fault_sim.with_reqs p (shuffle rng p.Fault_sim.reqs))
      faults
  in
  check Alcotest.bool "some list reordered" true
    (Array.exists2
       (fun (p : Fault_sim.prepared) (q : Fault_sim.prepared) ->
         p.Fault_sim.reqs <> q.Fault_sim.reqs)
       faults shuffled);
  List.iter
    (fun kind ->
      let ledger faults =
        let l = Ledger.create () in
        ignore
          (Atpg.enrich ~ledger:l ~justify:kind c ~seed:2002 ~faults ~p0 ~p1
            : Atpg.result);
        Ledger.to_jsonl l
      in
      check Alcotest.string
        (Justify.kind_name kind ^ " ledger")
        (Digest.to_hex (Digest.string (ledger faults)))
        (Digest.to_hex (Digest.string (ledger shuffled))))
    [ Justify.Sim; Justify.Podem; Justify.Portfolio ]

(* The ledger of [pdfatpg enrich C --n-p N_P --n-p0 N_P0 --seed 2002
   --justify J], the run's attribution sheet charged into [attrib]. *)
let enrich_ledger ?attrib ~n_p ~n_p0 ~justify name =
  let profile = Option.get (Pdf_synth.Profiles.find name) in
  let c = Pdf_synth.Profiles.circuit profile in
  let ledger = Ledger.create () in
  let { Job.faults; p0; p1; _ } = Job.analyse ~ledger c ~n_p ~n_p0 in
  ignore
    (Atpg.enrich ~ledger ?attrib ~justify c ~seed:2002 ~faults ~p0 ~p1
      : Atpg.result);
  ledger

let podem_ledger = enrich_ledger ~n_p:1000 ~n_p0:100 ~justify:Justify.Podem

let ledger_digest l = Digest.to_hex (Digest.string (Ledger.to_jsonl l))

(* The PODEM backend's ledgers, pinned.  Its tests, per-fault effort and
   conflict forensics all reach the ledger, so an implication pass that
   missed a changed gate, a backtrace that picked another bit, or a
   step charged differently changes these bytes. *)
let test_podem_ledgers_pinned () =
  List.iter
    (fun (name, count, digest) ->
      let ledger = podem_ledger name in
      check Alcotest.int (name ^ " records") count (Ledger.size ledger);
      check Alcotest.string (name ^ " digest") digest (ledger_digest ledger))
    [
      ("s1488", 1032, "75c4655fef6f052f70c6004376b17e98");
      ("b09", 1029, "3bcd127dc62e191b7e265911afbeeeb0");
    ]

(* The same s1488 ledger without what the search's effort decides: the
   [effort] and [last_conflict] fields, and each test's [justify]
   counts.  Pruning a branch that implication refutes removes only
   subtrees without a test, so a change to how searches are charged or
   to which refuted branches they prune keeps the outcome and the test
   of every search that finishes within its budget (on s1488 at this
   scale all but two).  The requirement order ([Req_cone]'s ascending
   one) decides which test a search finds, and so these bytes. *)
let test_podem_outcomes_pinned () =
  let masked = Ledger.create () in
  List.iter
    (fun { Ledger.kind; fields } ->
      Ledger.record masked ~kind
        (List.filter
           (fun (k, _) ->
             k <> "effort" && k <> "last_conflict"
             && not (kind = "test" && k = "justify"))
           fields))
    (Ledger.records (podem_ledger "s1488"));
  check Alcotest.int "records" 1032 (Ledger.size masked);
  check Alcotest.string "digest" "a96712909e1450ab78e4c90fcbf5f72e"
    (ledger_digest masked)

(* The value-based scan over a non-empty [P1] (31 faults on b03 at
   700/12, 91 on s1488 at 800/16: the enrich-sim benchmark's scales),
   pinned under both pure backends: the ledger's bytes, the scan's
   [atpg.delta_evals] and the sheet's candidate scans, which must stay
   equal — a refresh skipped or repeated, or an implied value read
   before its commit, changes them. *)
let test_p1_scan_pinned () =
  let evals = Pdf_obs.Metrics.counter "atpg.delta_evals" in
  List.iter
    (fun (name, n_p, n_p0, justify, count, digest, scans) ->
      let what = Printf.sprintf "%s %s" name (Justify.kind_name justify) in
      let c =
        Pdf_synth.Profiles.circuit (Option.get (Pdf_synth.Profiles.find name))
      in
      let store = Pdf_obs.Attrib.create ~nets:(Circuit.num_nets c) in
      let e0 = Pdf_obs.Metrics.value evals in
      let ledger = enrich_ledger ~attrib:store ~n_p ~n_p0 ~justify name in
      let sheet = Pdf_obs.Attrib.snapshot store in
      check Alcotest.int (what ^ " records") count (Ledger.size ledger);
      check Alcotest.string (what ^ " digest") digest (ledger_digest ledger);
      check Alcotest.int (what ^ " delta evals") scans
        (Pdf_obs.Metrics.value evals - e0);
      check Alcotest.int (what ^ " cand scans") scans
        sheet.Pdf_obs.Attrib.t_cand_scans)
    [
      ("b03", 700, 12, Justify.Sim, 707, "5a473e30528bb4d9100f5a01a7d54dc2", 1690);
      ("b03", 700, 12, Justify.Podem, 707, "0ef7ce0604c44a180b65f1b06a50f32f", 1686);
      ("s1488", 800, 16, Justify.Sim, 807, "c96ab02f3f2edcf5ef7e0f3bfaca6dbb", 1937);
      ("s1488", 800, 16, Justify.Podem, 807, "91086ab8f233afdae3d7a464056f0d19", 1937);
    ]

let test_engine_records_name_winner () =
  (* Every test and detected-fault record carries the winning member's
     label; under the pure backends that is the backend's own name. *)
  List.iter
    (fun (kind, allowed) ->
      let l = Ledger.create () in
      ignore
        (Atpg.enrich ~ledger:l ~justify:kind s27 ~seed:9 ~faults:s27_faults
           ~p0:s27_p0 ~p1:s27_p1);
      let engines =
        Ledger.find l ~kind:"test" (fun _ -> true)
        |> List.filter_map (fun r -> Ledger.get_string r "engine")
      in
      check Alcotest.bool
        (Justify.kind_name kind ^ " test records name an engine")
        true
        (engines <> [] && List.for_all (fun e -> List.mem e allowed) engines);
      let run_records =
        Ledger.find l ~kind:"run" (fun r ->
            Ledger.get_string r "justify" = Some (Justify.kind_name kind))
      in
      check Alcotest.int
        (Justify.kind_name kind ^ " run record names the backend")
        1
        (List.length run_records))
    [
      (Justify.Sim, [ "sim" ]);
      (Justify.Podem, [ "podem" ]);
      (Justify.Portfolio, [ "podem"; "sim"; "sim-r1"; "sim-r2" ]);
    ]

(* The simulation backend's trial evaluation order, pinned.  Trials
   stop at their first conflicting net, so the order in which a trial
   visits gates decides how many evaluations it charges and which net
   the ledger's abort forensics blame — yet the goldens above (tests,
   detections, aborts) would not notice a change of order.  The figures
   are those of the CLI run [pdfatpg enrich s1488 --n-p 1000 --n-p0 100
   --seed 2002 --justify sim] under attribution: trials pop their gates
   in ascending gate index, as a full topological scan of the cone
   visits them.  A level-ordered worklist reaches the same conflicts
   but changes the evaluation count and the forensics digest. *)
let test_trial_order_pinned () =
  let profile = Option.get (Pdf_synth.Profiles.find "s1488") in
  let c = Pdf_synth.Profiles.circuit profile in
  let ledger = Ledger.create () in
  let { Job.faults; p0; p1; _ } = Job.analyse ~ledger c ~n_p:1000 ~n_p0:100 in
  let attrib = Pdf_obs.Attrib.create ~nets:(Circuit.num_nets c) in
  ignore
    (Atpg.enrich ~ledger ~attrib ~justify:Justify.Sim c ~seed:2002 ~faults
       ~p0 ~p1
      : Atpg.result);
  let sheet = Pdf_obs.Attrib.snapshot attrib in
  check Alcotest.int "trial evaluations" 220351
    sheet.Pdf_obs.Attrib.t_trial_evals;
  check Alcotest.int "conflicts" 2859 sheet.Pdf_obs.Attrib.t_conflicts;
  let forensics = Ledger.create () in
  List.iter
    (fun r ->
      match (Ledger.field r "id", Ledger.field r "last_conflict") with
      | Some id, Some lc ->
        Ledger.record forensics ~kind:"fault"
          [ ("id", id); ("last_conflict", lc) ]
      | _ -> ())
    (Ledger.find ledger ~kind:"fault" (fun _ -> true));
  check Alcotest.int "faults with a last conflict" 111 (Ledger.size forensics);
  check Alcotest.string "last_conflict digest"
    "702e976c244ef436b54b5a1210f303fa"
    (Digest.to_hex (Digest.string (Ledger.to_jsonl forensics)))

(* Cross-validation of the conservative hazard algebra against the
   event-driven ground truth: a definite middle value in the two-pattern
   simulation guarantees a hazard-free line in the timing waveform. *)
let prop_hazard_algebra_sound =
  QCheck.Test.make ~name:"definite v2 implies hazard-free waveform"
    ~count:300
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let bits () = Array.init 7 (fun _ -> Rng.bool rng) in
      let t = Test_pair.create (bits ()) (bits ()) in
      let triples = Test_pair.simulate s27 t in
      let timed = Pdf_core.Timing.simulate s27 s27_model t in
      let ok = ref true in
      Array.iteri
        (fun net (tr : Pdf_values.Triple.t) ->
          let changes = List.length timed.Pdf_core.Timing.waveforms.(net).Pdf_core.Timing.changes in
          match Pdf_values.Bit.to_bool tr.Pdf_values.Triple.v2 with
          | Some _ when Pdf_values.Triple.is_stable tr ->
            (* hazard-free constant: the waveform must be silent *)
            if changes <> 0 then ok := false
          | Some _ ->
            (* hazard-free transition: exactly one change *)
            if changes <> 1 then ok := false
          | None -> ())
        triples;
      !ok)


(* ------------------------------------------------------------------ *)
(* Relaxation                                                           *)
(* ------------------------------------------------------------------ *)

module Relax = Pdf_core.Relax

let test_relax_preserves_detection () =
  (* Relax each enriched test w.r.t. the faults it detects; every
     completion (all-zeros, all-ones fill) must still detect them. *)
  let tests =
    (Atpg.enrich s27 ~seed:9 ~faults:s27_faults ~p0:s27_p0 ~p1:s27_p1)
      .Atpg.tests
  in
  List.iter
    (fun t ->
      let detected = Fault_sim.detected_by_test s27 t s27_faults in
      let keep =
        Array.to_list s27_faults
        |> List.filteri (fun i _ -> detected.(i))
        |> List.map (fun (p : Fault_sim.prepared) -> p.Fault_sim.reqs)
      in
      let r = Relax.relax s27 t ~keep in
      List.iter
        (fun fill ->
          let completed = Relax.completion r ~fill in
          List.iter
            (fun reqs ->
              check Alcotest.bool "completion still detects" true
                (Test_pair.satisfies s27 completed reqs))
            keep)
        [ false; true ])
    tests

let test_relax_frees_bits () =
  (* Keeping a single fault must leave non-cone inputs free. *)
  let p = s27_faults.(0) in
  let engine = Justify.create s27 in
  let rng = Rng.create 3 in
  match Justify.run engine ~rng ~reqs:p.Fault_sim.reqs with
  | None -> Alcotest.fail "fault should be testable"
  | Some t ->
    let r = Relax.relax s27 t ~keep:[ p.Fault_sim.reqs ] in
    check Alcotest.bool "some bits freed" true (r.Relax.freed > 0);
    check Alcotest.int "freed + specified = all bits"
      (2 * s27.Circuit.num_pis)
      (r.Relax.freed + Relax.specified_bits r)

let test_relax_ignores_unsatisfied_sets () =
  (* A requirement set the test never satisfied must not block
     relaxation. *)
  let t = Test_pair.create (Array.make 7 false) (Array.make 7 false) in
  let impossible = [ (0, Req.rising) ] in
  let r = Relax.relax s27 t ~keep:[ impossible ] in
  check Alcotest.int "everything freed" (2 * 7) r.Relax.freed

let test_relax_empty_keep () =
  let t = Test_pair.create (Array.make 7 true) (Array.make 7 false) in
  let r = Relax.relax s27 t ~keep:[] in
  check Alcotest.int "all bits freed" (2 * 7) r.Relax.freed

(* ------------------------------------------------------------------ *)
(* Diagnosis                                                            *)
(* ------------------------------------------------------------------ *)

module Diagnose = Pdf_core.Diagnose

(* Fixed test set for the diagnosis goldens: the simulation backend,
   explicitly, so the end-to-end expectations hold under any
   PDF_JUSTIFY. *)
let s27_enriched_tests =
  (Atpg.enrich s27 ~seed:9 ~justify:Justify.Sim ~faults:s27_faults ~p0:s27_p0
     ~p1:s27_p1)
    .Atpg.tests

let test_diagnose_dictionary_shape () =
  let d = Diagnose.dictionary s27 s27_enriched_tests s27_faults in
  check Alcotest.int "rows = tests" (List.length s27_enriched_tests)
    (Array.length d);
  Array.iter
    (fun row ->
      check Alcotest.int "cols = faults" (Array.length s27_faults)
        (Array.length row))
    d

let test_diagnose_all_pass () =
  (* A fully passing device: every fault robustly covered by the test set
     is eliminated; the survivors are exactly the uncovered ones. *)
  let observed = List.map (fun _ -> false) s27_enriched_tests in
  let verdicts = Diagnose.diagnose s27 s27_enriched_tests s27_faults ~observed in
  let covered =
    Fault_sim.detected_by_tests s27 s27_enriched_tests s27_faults
  in
  List.iter
    (fun (v : Diagnose.verdict) ->
      check Alcotest.bool "survivor is uncovered" false covered.(v.Diagnose.fault_id))
    verdicts;
  check Alcotest.int "survivors = uncovered faults"
    (Array.length s27_faults - Fault_sim.count covered)
    (List.length verdicts)

let test_diagnose_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Diagnose.diagnose: observed/test length mismatch")
    (fun () ->
      ignore (Diagnose.diagnose s27 s27_enriched_tests s27_faults ~observed:[]))

(* End-to-end: inject each fault physically, collect the pass/fail
   signature from the timing simulator, and check the diagnosis ranks the
   true fault first (or tied for first). *)
let test_diagnose_end_to_end () =
  let model = Delay_model.lines s27 in
  let period = Pdf_core.Timing.nominal_period s27 model in
  let tests = s27_enriched_tests in
  let tried = ref 0 in
  Array.iteri
    (fun true_id (p : Fault_sim.prepared) ->
      if true_id mod 3 = 0 then begin
        (* sample every third fault to keep the test quick *)
        let slack = period - p.Fault_sim.length in
        let inject =
          { Pdf_core.Timing.path = p.Fault_sim.fault.Fault.path;
            extra = slack + 1 }
        in
        let observed =
          List.map
            (fun t ->
              Pdf_core.Timing.detects s27 model ~t_sample:period ~inject t)
            tests
        in
        if List.exists Fun.id observed then begin
          incr tried;
          let verdicts = Diagnose.diagnose s27 tests s27_faults ~observed in
          (* The true fault must survive... *)
          (match
             List.find_opt
               (fun (v : Diagnose.verdict) -> v.Diagnose.fault_id = true_id)
               verdicts
           with
          | None ->
            Alcotest.failf "true fault eliminated: %s"
              (Fault.to_string s27 p.Fault_sim.fault)
          | Some v ->
            (* ... and be tied with the best explanation count. *)
            let best =
              match verdicts with
              | x :: _ -> x.Diagnose.maybe_explained
              | [] -> 0
            in
            check Alcotest.int
              (Printf.sprintf "true fault explains best (%s)"
                 (Fault.to_string s27 p.Fault_sim.fault))
              best v.Diagnose.maybe_explained)
        end
      end)
    s27_faults;
  check Alcotest.bool "exercised several faults" true (!tried >= 8)

let () =
  Alcotest.run "pdf_core"
    [
      ( "test_pair",
        [
          Alcotest.test_case "basics" `Quick test_pair_basics;
          Alcotest.test_case "length mismatch" `Quick test_pair_length_mismatch;
          Alcotest.test_case "simulate matches two-pattern" `Quick
            test_pair_simulate_matches_two_pattern;
        ] );
      ( "test_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments and blank lines" `Quick
            test_io_comments;
          Alcotest.test_case "rejections" `Quick test_io_rejections;
        ] );
      ( "justify",
        [
          Alcotest.test_case "every s27 fault" `Quick test_justify_every_s27_fault;
          Alcotest.test_case "direct conflict" `Quick
            test_justify_direct_conflict_returns_none;
          Alcotest.test_case "unsatisfiable internal" `Quick
            test_justify_unsatisfiable_internal;
          Alcotest.test_case "empty reqs" `Quick test_justify_empty_reqs;
          Alcotest.test_case "requirement on PI" `Quick
            test_justify_requirement_on_pi;
          Alcotest.test_case "counters" `Quick test_justify_counters;
          Alcotest.test_case "deterministic" `Quick
            test_justify_deterministic_given_seed;
          qcheck prop_justify_sound;
        ] );
      ("job", [ Alcotest.test_case "P0-first layout" `Quick test_job_layout ]);
      ( "fault_sim",
        [
          Alcotest.test_case "ids are indices" `Quick test_fault_sim_ids_are_indices;
          Alcotest.test_case "matches satisfies" `Quick
            test_fault_sim_matches_satisfies;
          Alcotest.test_case "union over tests" `Quick test_fault_sim_union_over_tests;
          Alcotest.test_case "count" `Quick test_fault_sim_count;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "names" `Quick test_ordering_names;
          Alcotest.test_case "s27 goldens" `Quick test_ordering_goldens_s27;
        ] );
      ( "atpg",
        [
          Alcotest.test_case "detected flags sound" `Quick
            test_atpg_detected_flags_sound;
          Alcotest.test_case "every test useful" `Quick test_atpg_every_test_useful;
          Alcotest.test_case "compaction reduces tests" `Quick
            test_atpg_compaction_reduces_tests;
          Alcotest.test_case "deterministic" `Quick test_atpg_deterministic;
          Alcotest.test_case "tests bounded by primaries" `Quick
            test_atpg_tests_bounded_by_primaries;
          Alcotest.test_case "enrich P0 coverage" `Quick
            test_enrich_detects_p0_like_basic;
          Alcotest.test_case "enrich beats accidental P1" `Quick
            test_enrich_p1_beats_accidental;
          Alcotest.test_case "enrich flags sound" `Quick test_enrich_flags_sound;
          Alcotest.test_case "enrich with empty P1" `Quick test_enrich_empty_p1;
          Alcotest.test_case "count_detected subsets" `Quick
            test_count_detected_subsets;
          qcheck prop_atpg_sound_random;
        ] );
      ( "static_compaction",
        [
          Alcotest.test_case "reverse preserves coverage" `Quick
            test_static_reverse_preserves_coverage;
          Alcotest.test_case "greedy preserves coverage" `Quick
            test_static_greedy_preserves_coverage;
          Alcotest.test_case "drops redundant" `Quick test_static_drops_redundant;
          Alcotest.test_case "empty" `Quick test_static_empty;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "buckets" `Quick test_coverage_buckets;
          Alcotest.test_case "percentage" `Quick test_coverage_percentage;
          Alcotest.test_case "tables render" `Quick test_coverage_tables_render;
          Alcotest.test_case "mismatch" `Quick test_coverage_mismatch;
        ] );
      ( "relax",
        [
          Alcotest.test_case "preserves detection" `Quick
            test_relax_preserves_detection;
          Alcotest.test_case "frees bits" `Quick test_relax_frees_bits;
          Alcotest.test_case "ignores unsatisfied sets" `Quick
            test_relax_ignores_unsatisfied_sets;
          Alcotest.test_case "empty keep" `Quick test_relax_empty_keep;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "dictionary shape" `Quick
            test_diagnose_dictionary_shape;
          Alcotest.test_case "all pass" `Quick test_diagnose_all_pass;
          Alcotest.test_case "length mismatch" `Quick
            test_diagnose_length_mismatch;
          Alcotest.test_case "end to end with timing sim" `Slow
            test_diagnose_end_to_end;
        ] );
      ( "justify_bnb",
        [
          Alcotest.test_case "finds and satisfies" `Quick
            test_bnb_finds_and_satisfies;
          Alcotest.test_case "deterministic" `Quick test_bnb_deterministic;
          Alcotest.test_case "proves unsatisfiable" `Quick
            test_bnb_proves_unsatisfiable;
          Alcotest.test_case "at least as strong as sim" `Quick
            test_bnb_at_least_as_strong_as_sim;
          Alcotest.test_case "complete on c17 (vs brute force)" `Slow
            test_bnb_complete_on_c17;
        ] );
      ( "cone_sim",
        [
          qcheck prop_cone_sim_matches_full;
          Alcotest.test_case "kernel algebra = Bit and Logic_sim" `Quick
            test_kernel_algebra;
          qcheck prop_write_time_check;
        ] );
      ( "podem",
        [
          Alcotest.test_case "finds every s27 fault" `Quick
            test_podem_s27_finds_all;
          Alcotest.test_case "proves unsatisfiable" `Quick
            test_podem_proves_unsatisfiable;
          Alcotest.test_case "deterministic" `Quick test_podem_deterministic;
          qcheck prop_podem_search_invariants;
          qcheck prop_podem_imply_full_pass;
          qcheck prop_podem_implication_in_step;
        ] );
      ( "justify_engine",
        [
          Alcotest.test_case "per-backend goldens" `Slow test_engine_goldens;
          Alcotest.test_case "portfolio ledger jobs-invariant" `Quick
            test_portfolio_ledger_jobs_invariant;
          Alcotest.test_case "records name the winner" `Quick
            test_engine_records_name_winner;
          Alcotest.test_case "sim trial order pinned on s1488" `Slow
            test_trial_order_pinned;
          Alcotest.test_case "portfolio escalation on s27" `Quick
            test_portfolio_escalation;
          Alcotest.test_case "engine accounts = attribution sheet" `Quick
            test_engine_accounts_match_sheet;
          Alcotest.test_case "podem ledgers pinned" `Slow
            test_podem_ledgers_pinned;
          Alcotest.test_case "podem outcomes pinned" `Slow
            test_podem_outcomes_pinned;
          Alcotest.test_case "P1 scan pinned (sim, podem)" `Slow
            test_p1_scan_pinned;
          qcheck prop_req_cone_merge;
          qcheck prop_engines_order_free;
          Alcotest.test_case "enrich ignores the requirement list's order"
            `Slow test_enrich_order_free;
          qcheck prop_engine_reuse;
        ] );
      ( "timing",
        [
          Alcotest.test_case "fault-free matches logic sim" `Quick
            test_timing_fault_free_matches_logic;
          Alcotest.test_case "settles within period" `Quick
            test_timing_settle_within_period;
          Alcotest.test_case "stable inputs quiet" `Quick
            test_timing_stable_inputs_quiet;
          Alcotest.test_case "value_at" `Quick test_timing_value_at;
          Alcotest.test_case "robust tests catch slow paths" `Quick
            test_timing_robust_tests_catch_slow_paths;
          Alcotest.test_case "within-slack faults hide" `Quick
            test_timing_small_fault_within_slack_hides;
          qcheck prop_hazard_algebra_sound;
        ] );
      ( "enrich_multi",
        [
          Alcotest.test_case "matches two-pool enrich" `Quick
            test_enrich_multi_matches_two_pool;
          Alcotest.test_case "three pools sound" `Quick
            test_enrich_multi_three_pools_sound;
          Alcotest.test_case "no pools" `Quick test_enrich_multi_no_pools;
        ] );
    ]
