(* Tests for Pdf_check: the oracle registry, the circuit shrinker and
   the fuzz driver.  The deterministic smoke campaign must stay clean;
   the mutation test proves the harness catches a real (deliberately
   injected) packed-simulator bug and shrinks it to a tiny reproducer. *)

module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Builder = Pdf_circuit.Builder
module Req = Pdf_values.Req
module Wsim = Pdf_bitsim.Wsim
module Test_pair = Pdf_core.Test_pair
module Oracle = Pdf_check.Oracle
module Shrink = Pdf_check.Shrink
module Fuzz = Pdf_check.Fuzz

let check = Alcotest.check

let c17 = Pdf_synth.Iscas.c17 ()

let with_injected_bug f =
  Wsim.set_injected_bug true;
  Fun.protect ~finally:(fun () -> Wsim.set_injected_bug false) f

let with_podem_injected_bug f =
  Pdf_core.Podem.set_injected_bug true;
  Fun.protect ~finally:(fun () -> Pdf_core.Podem.set_injected_bug false) f

(* A config small enough for CI smoke: a handful of rounds over the
   default grid, no reproducer files. *)
let smoke_config =
  { Fuzz.default_config with Fuzz.seed = 42; rounds = 6; emit = false }

(* ------------------------------------------------------------------ *)
(* Oracle registry and brute force                                      *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  check Alcotest.bool "non-empty" true (Oracle.all <> []);
  let names = Oracle.names () in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      match Oracle.find n with
      | Some o -> check Alcotest.string "find roundtrip" n o.Oracle.name
      | None -> Alcotest.failf "oracle %s not found" n)
    names;
  check Alcotest.bool "unknown name" true (Oracle.find "nope" = None)

let test_brute_force_finds_witness () =
  let n22 = Option.get (Circuit.find_net c17 "N22") in
  (match Oracle.brute_force c17 [ (n22, Req.rising) ] with
  | None -> Alcotest.fail "no witness for a satisfiable requirement"
  | Some t ->
    check Alcotest.bool "witness satisfies" true
      (Test_pair.satisfies c17 t [ (n22, Req.rising) ]));
  check Alcotest.bool "contradiction unsatisfiable" false
    (Oracle.brute_force_satisfiable c17
       [ (n22, Req.stable true); (n22, Req.stable false) ])

let test_brute_force_pi_cap () =
  let b = Builder.create "wide" in
  for i = 0 to Oracle.max_brute_force_pis do
    Builder.add_pi b (Printf.sprintf "i%d" i)
  done;
  Builder.add_gate b ~out:"o" Gate.Or
    (List.init (Oracle.max_brute_force_pis + 1) (Printf.sprintf "i%d"));
  Builder.add_po b "o";
  let c = Builder.finish_exn b in
  Alcotest.check_raises "cap enforced"
    (Invalid_argument
       (Printf.sprintf "Oracle.brute_force: %d PIs exceeds the %d-PI cap"
          (Oracle.max_brute_force_pis + 1)
          Oracle.max_brute_force_pis))
    (fun () -> ignore (Oracle.brute_force c []))

let test_oracles_pass_on_c17 () =
  List.iter
    (fun (o : Oracle.t) ->
      match Oracle.run o { Oracle.circuit = c17; seed = 7 } with
      | Oracle.Fail m -> Alcotest.failf "oracle %s failed on c17: %s" o.Oracle.name m
      | Oracle.Pass | Oracle.Skip _ -> ())
    Oracle.all

(* ------------------------------------------------------------------ *)
(* Shrinking                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_to_property_core () =
  (* Property: the circuit still contains an AND gate.  The shrinker
     must cut c17-plus-extras down to a couple of nets around one. *)
  let b = Builder.create "sh" in
  List.iter (Builder.add_pi b) [ "a"; "b"; "c"; "d" ];
  Builder.add_gate b ~out:"n1" Gate.Nand [ "a"; "b" ];
  Builder.add_gate b ~out:"n2" Gate.And [ "n1"; "c" ];
  Builder.add_gate b ~out:"n3" Gate.Or [ "n2"; "d" ];
  Builder.add_gate b ~out:"n4" Gate.Not [ "n3" ];
  Builder.add_po b "n3";
  Builder.add_po b "n4";
  let c = Builder.finish_exn b in
  let has_and c =
    Array.exists (fun (g : Circuit.gate) -> g.Circuit.kind = Gate.And) c.Circuit.gates
  in
  check Alcotest.bool "property holds initially" true (has_and c);
  let shrunk = Shrink.shrink ~prop:has_and c in
  check Alcotest.bool "property preserved" true (has_and shrunk);
  check Alcotest.bool "strictly smaller" true
    (Shrink.size shrunk < Shrink.size c);
  check Alcotest.int "single gate remains" 1 (Circuit.num_gates shrunk);
  check Alcotest.(result unit string) "valid" (Ok ())
    (Circuit.validate shrunk)

let test_shrink_is_deterministic () =
  let prop c = Circuit.num_gates c >= 2 in
  let c =
    Pdf_synth.Generators.random_dag ~name:"det" ~seed:11
      {
        Pdf_synth.Generators.num_pis = 5;
        num_gates = 20;
        window = 8;
        max_fanout = 3;
        reuse_pct = 10;
        restart_pct = 10;
        fanin3_pct = 20;
        inverter_pct = 25;
        po_taps = 1;
      }
  in
  let a = Shrink.shrink ~prop c in
  let b = Shrink.shrink ~prop c in
  check Alcotest.int "same size" (Shrink.size a) (Shrink.size b);
  check Alcotest.int "two gates" 2 (Circuit.num_gates a);
  check Alcotest.string "same bench text"
    (Pdf_circuit.Bench_io.to_string a)
    (Pdf_circuit.Bench_io.to_string b)

(* ------------------------------------------------------------------ *)
(* Fuzz campaigns                                                       *)
(* ------------------------------------------------------------------ *)

let test_smoke_campaign_clean () =
  let s = Fuzz.run smoke_config in
  check Alcotest.int "all rounds ran" smoke_config.Fuzz.rounds
    s.Fuzz.rounds_run;
  check Alcotest.int "checks = rounds x oracles"
    (smoke_config.Fuzz.rounds * List.length Oracle.all)
    s.Fuzz.checks;
  check Alcotest.int "no violations" 0 (List.length s.Fuzz.violations);
  check Alcotest.bool "some passes" true (fst (Fuzz.totals s) > 0)

let tallies s =
  List.map
    (fun (t : Fuzz.oracle_tally) ->
      (t.Fuzz.oracle_name, t.Fuzz.passed, t.Fuzz.skipped))
    s.Fuzz.per_oracle

(* Checks are tallied per oracle.  justify-brute re-simulates its
   witnesses at any PI count, so it passes on the scale profile, whose
   circuits are all too wide for brute force; an oracle whose every
   check was skipped is reported idle. *)
let test_oracle_tallies () =
  let s =
    Fuzz.run
      {
        smoke_config with
        Fuzz.rounds = 2;
        profile = Option.get (Fuzz.profile_of_name "scale");
        oracles = [ "justify-brute"; "packed-sim" ];
      }
  in
  check
    Alcotest.(list (triple string int int))
    "tallies"
    [ ("justify-brute", 2, 0); ("packed-sim", 2, 0) ]
    (tallies s);
  check Alcotest.(list string) "none idle" [] (Fuzz.idle_oracles s);
  let skipped_all =
    {
      s with
      Fuzz.per_oracle =
        [
          { Fuzz.oracle_name = "justify-brute"; passed = 0; skipped = 2 };
          { Fuzz.oracle_name = "packed-sim"; passed = 2; skipped = 0 };
        ];
    }
  in
  check Alcotest.(list string) "idle" [ "justify-brute" ]
    (Fuzz.idle_oracles skipped_all);
  check Alcotest.(pair int int) "totals" (2, 2) (Fuzz.totals skipped_all)

let test_campaign_deterministic () =
  let a = Fuzz.run smoke_config in
  let b = Fuzz.run smoke_config in
  check
    Alcotest.(list (triple string int int))
    "tallies" (tallies a) (tallies b);
  check Alcotest.int "violations"
    (List.length a.Fuzz.violations)
    (List.length b.Fuzz.violations)

let test_campaign_ledger () =
  let mk () =
    let l = Pdf_obs.Ledger.create () in
    ignore (Fuzz.run ~ledger:l smoke_config);
    l
  in
  let a = mk () and b = mk () in
  check Alcotest.string "ledger bytes deterministic"
    (Pdf_obs.Ledger.to_jsonl a) (Pdf_obs.Ledger.to_jsonl b);
  check Alcotest.int "one header"
    1 (List.length (Pdf_obs.Ledger.find a ~kind:"fuzz_run" (fun _ -> true)));
  check Alcotest.int "one record per round" smoke_config.Fuzz.rounds
    (List.length (Pdf_obs.Ledger.find a ~kind:"fuzz_round" (fun _ -> true)))

(* The acceptance-criterion mutation test (DESIGN.md §10): with the
   deliberate packed-simulator bug injected, the differential oracles
   must flag a violation, the shrinker must cut the reproducer down to
   a handful of gates, and the emitted .repro file must replay. *)
let test_mutation_caught_and_shrunk () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pdf_check_mut_%d" (Unix.getpid ()))
  in
  let summary =
    with_injected_bug (fun () ->
        Fuzz.run
          {
            Fuzz.default_config with
            Fuzz.seed = 42;
            rounds = 20;
            out_dir = dir;
            max_violations = 1;
          })
  in
  match summary.Fuzz.violations with
  | [] -> Alcotest.fail "injected packed-simulator bug was not caught"
  | v :: _ ->
    check Alcotest.string "caught by the simulation oracle" "packed-sim"
      v.Fuzz.oracle;
    check Alcotest.bool "shrunk to <= 30 gates" true
      (Circuit.num_gates v.Fuzz.shrunk <= 30);
    check Alcotest.bool "shrunk no larger than original" true
      (Shrink.size v.Fuzz.shrunk <= Shrink.size v.Fuzz.circuit);
    check Alcotest.(result unit string) "shrunk circuit valid" (Ok ())
      (Circuit.validate v.Fuzz.shrunk);
    (match v.Fuzz.files with
    | None -> Alcotest.fail "no reproducer emitted"
    | Some (bench, repro) ->
      check Alcotest.bool "bench exists" true (Sys.file_exists bench);
      (* Replaying with the bug still injected reproduces the failure;
         with the bug fixed the oracle passes again. *)
      (match with_injected_bug (fun () -> Fuzz.replay repro) with
      | Ok (oracle, Oracle.Fail _) ->
        check Alcotest.string "replay runs the same oracle" "packed-sim"
          oracle
      | Ok (_, _) -> Alcotest.fail "replay did not reproduce the failure"
      | Error m -> Alcotest.failf "replay error: %s" m);
      (match Fuzz.replay repro with
      | Ok (_, Oracle.Pass) -> ()
      | Ok (_, Oracle.Fail m) ->
        Alcotest.failf "reproducer fails without the injected bug: %s" m
      | Ok (_, Oracle.Skip m) ->
        Alcotest.failf "reproducer skipped without the injected bug: %s" m
      | Error m -> Alcotest.failf "replay error: %s" m);
      Sys.remove bench;
      Sys.remove repro);
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* And for the structural justification engine: the deliberate PODEM
   implication bug (a multi-input gate's second-pattern implication
   reading its first fanin's first-pattern value) corrupts the engine's
   view of the circuit self-consistently, so only independent
   re-simulation of its answers — the justify-podem oracle's three-way
   differential — can expose it.  This campaign restricts itself to
   that oracle through the [oracles] filter, which doubles as the
   filter's test. *)
let test_podem_mutation_caught_and_shrunk () =
  let summary =
    with_podem_injected_bug (fun () ->
        Fuzz.run
          {
            smoke_config with
            Fuzz.rounds = 20;
            max_violations = 1;
            oracles = [ "justify-podem" ];
          })
  in
  check Alcotest.bool "filtered campaign ran only one oracle per round" true
    (summary.Fuzz.checks <= 20);
  match summary.Fuzz.violations with
  | [] -> Alcotest.fail "injected PODEM implication bug was not caught"
  | v :: _ ->
    check Alcotest.string "caught by the PODEM oracle" "justify-podem"
      v.Fuzz.oracle;
    check Alcotest.bool "shrunk to <= 30 gates" true
      (Circuit.num_gates v.Fuzz.shrunk <= 30);
    check Alcotest.bool "shrunk no larger than original" true
      (Shrink.size v.Fuzz.shrunk <= Shrink.size v.Fuzz.circuit);
    check Alcotest.(result unit string) "shrunk circuit valid" (Ok ())
      (Circuit.validate v.Fuzz.shrunk);
    let oracle = Option.get (Oracle.find "justify-podem") in
    let ctx = { Oracle.circuit = v.Fuzz.shrunk; seed = v.Fuzz.oracle_seed } in
    (match with_podem_injected_bug (fun () -> Oracle.run oracle ctx) with
    | Oracle.Fail _ -> ()
    | Oracle.Pass | Oracle.Skip _ ->
      Alcotest.fail "shrunk reproducer no longer fails with the bug");
    (match Oracle.run oracle ctx with
    | Oracle.Pass -> ()
    | Oracle.Fail m ->
      Alcotest.failf "shrunk reproducer fails without the injected bug: %s" m
    | Oracle.Skip m -> Alcotest.failf "reproducer skipped: %s" m)

let test_fuzz_unknown_oracle_rejected () =
  Alcotest.check_raises "unknown oracle name"
    (Invalid_argument "Fuzz.run: unknown oracle \"nope\"") (fun () ->
      ignore (Fuzz.run { smoke_config with Fuzz.oracles = [ "nope" ] }))

let test_replay_rejects_garbage () =
  (match Fuzz.replay "/nonexistent/file.repro" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file");
  let path = Filename.temp_file "pdf_check" ".repro" in
  let oc = open_out path in
  output_string oc "oracle: packed-sim\n";
  close_out oc;
  (match Fuzz.replay path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for missing fields");
  Sys.remove path

let () =
  Alcotest.run "pdf_check"
    [
      ( "oracle",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "brute force witness" `Quick
            test_brute_force_finds_witness;
          Alcotest.test_case "brute force PI cap" `Quick
            test_brute_force_pi_cap;
          Alcotest.test_case "all oracles pass on c17" `Quick
            test_oracles_pass_on_c17;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "shrinks to property core" `Quick
            test_shrink_to_property_core;
          Alcotest.test_case "deterministic" `Quick
            test_shrink_is_deterministic;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "smoke campaign clean" `Slow
            test_smoke_campaign_clean;
          Alcotest.test_case "campaign deterministic" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "campaign ledger" `Slow test_campaign_ledger;
          Alcotest.test_case "per-oracle tallies" `Slow test_oracle_tallies;
          Alcotest.test_case "mutation caught and shrunk" `Slow
            test_mutation_caught_and_shrunk;
          Alcotest.test_case "podem mutation caught and shrunk" `Slow
            test_podem_mutation_caught_and_shrunk;
          Alcotest.test_case "unknown oracle rejected" `Quick
            test_fuzz_unknown_oracle_rejected;
          Alcotest.test_case "replay rejects garbage" `Quick
            test_replay_rejects_garbage;
        ] );
    ]
