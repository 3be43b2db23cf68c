(* Tests for Pdf_faults: fault model, robust conditions A(p),
   undetectability filters, target-set selection. *)

module Bit = Pdf_values.Bit
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Builder = Pdf_circuit.Builder
module Path = Pdf_paths.Path
module Delay_model = Pdf_paths.Delay_model
module Fault = Pdf_faults.Fault
module Robust = Pdf_faults.Robust
module Undetectable = Pdf_faults.Undetectable
module Target_sets = Pdf_faults.Target_sets
module Ledger = Pdf_obs.Ledger

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let s27 = Pdf_synth.Iscas.s27 ()

let req_testable = Alcotest.testable Req.pp Req.equal

let net c name = Option.get (Circuit.find_net c name)

let hop_into c gate_out prev =
  match Circuit.gate_of_net c (net c gate_out) with
  | None -> assert false
  | Some g ->
    let fanins = (c : Circuit.t).gates.(g).Circuit.fanins in
    let pin = ref (-1) in
    Array.iteri (fun i f -> if f = net c prev then pin := i) fanins;
    assert (!pin >= 0);
    { Path.gate = g; pin = !pin }

let mk_path c names =
  match names with
  | [] -> assert false
  | src :: rest ->
    let p = ref (Path.source_only (net c src)) in
    let prev = ref src in
    List.iter
      (fun n ->
        p := Path.extend !p (hop_into c n !prev);
        prev := n)
      rest;
    !p

(* A little gate-chain circuit for direction-by-direction checks:
   y1 = AND(a, s1); y2 = OR(y1, s2); y3 = NAND(y2, s3); out = NOR(y3, s4) *)
let chain =
  let b = Builder.create "chain" in
  List.iter (Builder.add_pi b) [ "a"; "s1"; "s2"; "s3"; "s4" ];
  Builder.add_po b "out";
  Builder.add_gate b ~out:"y1" Gate.And [ "a"; "s1" ];
  Builder.add_gate b ~out:"y2" Gate.Or [ "y1"; "s2" ];
  Builder.add_gate b ~out:"y3" Gate.Nand [ "y2"; "s3" ];
  Builder.add_gate b ~out:"out" Gate.Nor [ "y3"; "s4" ];
  Builder.finish_exn b

let chain_path = mk_path chain [ "a"; "y1"; "y2"; "y3"; "out" ]

(* ------------------------------------------------------------------ *)
(* Fault                                                                *)
(* ------------------------------------------------------------------ *)

let test_fault_both () =
  match Fault.both chain_path with
  | [ r; f ] ->
    check Alcotest.bool "rising first" true (r.Fault.dir = Fault.Rising);
    check Alcotest.bool "falling second" true (f.Fault.dir = Fault.Falling);
    check Alcotest.bool "distinct" false (Fault.equal r f);
    check Alcotest.bool "same path" true (Path.equal r.Fault.path f.Fault.path)
  | _ -> Alcotest.fail "both should return two faults"

let test_fault_to_string () =
  let f = Fault.rising chain_path in
  check Alcotest.string "render" "slow-to-rise (a,y1,y2,y3,out)"
    (Fault.to_string chain f)

(* ------------------------------------------------------------------ *)
(* Robust conditions                                                    *)
(* ------------------------------------------------------------------ *)

(* Hand-derived conditions for the rising fault on (a,y1,y2,y3,out):
   - source a: 0x1
   - AND y1, on-path rising (ends non-controlling 1): side s1 needs final 1
   - OR y2, on-path rising at y1 (ends controlling 1): side s2 stable 0
   - NAND y3, on-path rising at y2 (ends controlling... NAND cv=0, rising
     ends at 1 = non-controlling): side s3 final 1; output falls
   - NOR out, on-path falling at y3 (NOR cv=1, falling ends at 0 =
     non-controlling): side s4 final 0 *)
let test_robust_rising_chain () =
  let f = Fault.rising chain_path in
  let reqs = Option.get (Robust.conditions chain f) in
  let expect name r =
    match List.assoc_opt (net chain name) reqs with
    | Some actual -> check req_testable name r actual
    | None -> Alcotest.failf "missing requirement on %s" name
  in
  check Alcotest.int "req count" 5 (List.length reqs);
  expect "a" Req.rising;
  expect "s1" (Req.final true);
  expect "s2" (Req.stable false);
  expect "s3" (Req.final true);
  expect "s4" (Req.final false)

(* Falling fault: every condition flips class. *)
let test_robust_falling_chain () =
  let f = Fault.falling chain_path in
  let reqs = Option.get (Robust.conditions chain f) in
  let expect name r =
    match List.assoc_opt (net chain name) reqs with
    | Some actual -> check req_testable name r actual
    | None -> Alcotest.failf "missing requirement on %s" name
  in
  expect "a" Req.falling;
  expect "s1" (Req.stable true);
  (* AND: falling ends controlling *)
  expect "s2" (Req.final false);
  expect "s3" (Req.stable true);
  (* NAND: falling at y2 ends controlling 0 *)
  expect "s4" (Req.stable false)
(* NOR: rising at y3 ends controlling 1 *)

let test_robust_output_direction () =
  (* Two inversions along the chain (NAND, NOR): direction is preserved. *)
  check Alcotest.bool "rising out" true
    (Robust.output_direction chain (Fault.rising chain_path) = Fault.Rising);
  (* One inversion: path (a,y1,y2,y3). *)
  let p3 = mk_path chain [ "a"; "y1"; "y2"; "y3" ] in
  check Alcotest.bool "falling at y3" true
    (Robust.output_direction chain (Fault.rising p3) = Fault.Falling)

let test_robust_paper_example () =
  (* The paper's s27 example: slow-to-rise through G12 (NOR) observed at
     G13 (NAND): side G7 stable 0, side G2 hazard-free 1. *)
  let f = Fault.rising (mk_path s27 [ "G1"; "G12"; "G13" ]) in
  let reqs = Option.get (Robust.conditions s27 f) in
  let expect name r =
    check req_testable name r (List.assoc (net s27 name) reqs)
  in
  expect "G1" Req.rising;
  expect "G7" (Req.stable false);
  expect "G2" (Req.stable true)

let test_robust_merges_repeated_lines () =
  (* A circuit where one side input feeds two gates of the path with
     compatible requirements: out1 = OR(a, s); out2 = OR(out1, s).
     Rising on (a,out1,out2): s must be stable 0 at both gates; merged to
     a single entry. *)
  let b = Builder.create "share" in
  List.iter (Builder.add_pi b) [ "a"; "s" ];
  Builder.add_po b "out2";
  Builder.add_gate b ~out:"out1" Gate.Or [ "a"; "s" ];
  Builder.add_gate b ~out:"out2" Gate.Or [ "out1"; "s" ];
  let c = Builder.finish_exn b in
  let f = Fault.rising (mk_path c [ "a"; "out1"; "out2" ]) in
  let raw = Robust.raw_conditions c f in
  check Alcotest.int "raw has two entries for s" 2
    (List.length (List.filter (fun (n, _) -> n = net c "s") raw));
  let merged = Option.get (Robust.conditions c f) in
  check Alcotest.int "merged has one entry for s" 1
    (List.length (List.filter (fun (n, _) -> n = net c "s") merged))

let test_robust_direct_conflict () =
  (* One side input needed stable 0 by an OR gate and stable 1 by an AND
     gate on the same path: and1 = AND(a, s); or1 = OR(and1, s).
     Falling on (a,and1,or1): AND side s stable 1; OR side: falling ends
     non-controlling 0 -> final 0... use rising to get the conflict:
     rising at a -> AND side s final 1; rising at and1 into OR (ends
     controlling 1) -> side s stable 0.  final1 vs stable0 conflict. *)
  let b = Builder.create "clash" in
  List.iter (Builder.add_pi b) [ "a"; "s" ];
  Builder.add_po b "or1";
  Builder.add_gate b ~out:"and1" Gate.And [ "a"; "s" ];
  Builder.add_gate b ~out:"or1" Gate.Or [ "and1"; "s" ];
  let c = Builder.finish_exn b in
  let f = Fault.rising (mk_path c [ "a"; "and1"; "or1" ]) in
  check Alcotest.bool "direct conflict" true (Robust.conditions c f = None);
  check Alcotest.bool "classified" true
    (Undetectable.classify c f = Undetectable.Direct_conflict)

let test_robust_xor_side_stable_zero () =
  let b = Builder.create "x" in
  List.iter (Builder.add_pi b) [ "a"; "s" ];
  Builder.add_po b "y";
  Builder.add_gate b ~out:"y" Gate.Xor [ "a"; "s" ];
  let c = Builder.finish_exn b in
  let f = Fault.rising (mk_path c [ "a"; "y" ]) in
  let reqs = Option.get (Robust.conditions c f) in
  check req_testable "xor side" (Req.stable false)
    (List.assoc (net c "s") reqs);
  (* XOR with a stable-0 side preserves direction; XNOR inverts. *)
  check Alcotest.bool "xor preserves" true
    (Robust.output_direction c f = Fault.Rising)

let test_robust_not_buff_no_sides () =
  let b = Builder.create "inv" in
  Builder.add_pi b "a";
  Builder.add_po b "y";
  Builder.add_gate b ~out:"n" Gate.Not [ "a" ];
  Builder.add_gate b ~out:"y" Gate.Buff [ "n" ];
  let c = Builder.finish_exn b in
  let f = Fault.rising (mk_path c [ "a"; "n"; "y" ]) in
  let reqs = Option.get (Robust.conditions c f) in
  check Alcotest.int "only the source condition" 1 (List.length reqs);
  check Alcotest.bool "inverted once" true
    (Robust.output_direction c f = Fault.Falling)

let test_merge_into () =
  let acc = Hashtbl.create 8 in
  check Alcotest.bool "first merge" true
    (Robust.merge_into acc [ (0, Req.rising); (1, Req.stable false) ]);
  check Alcotest.bool "compatible merge" true
    (Robust.merge_into acc [ (1, Req.final false) ]);
  (* Conflict leaves the accumulator untouched. *)
  let before = Hashtbl.length acc in
  check Alcotest.bool "conflicting merge fails" false
    (Robust.merge_into acc [ (2, Req.final true); (1, Req.stable true) ]);
  check Alcotest.int "unchanged on failure" before (Hashtbl.length acc);
  check Alcotest.bool "net 2 not added" true (Hashtbl.find_opt acc 2 = None)

(* Property: A(p) of a random s27 fault never constrains on-path internal
   nets except via side-input occurrences, and always contains the source
   transition. *)
let prop_conditions_contain_source =
  let model = Delay_model.lines s27 in
  let r = Pdf_paths.Enumerate.enumerate s27 model ~max_paths:100 in
  let all_faults =
    Array.of_list
      (List.concat_map (fun (p, _) -> Fault.both p) r.Pdf_paths.Enumerate.paths)
  in
  QCheck.Test.make ~name:"A(p) pins the source transition" ~count:100
    (QCheck.make (QCheck.Gen.int_bound (Array.length all_faults - 1)))
    (fun i ->
      let f = all_faults.(i) in
      match Robust.conditions s27 f with
      | None -> true
      | Some reqs -> (
        match List.assoc_opt f.Fault.path.Path.source reqs with
        | None -> false
        | Some r ->
          let expected =
            match f.Fault.dir with
            | Fault.Rising -> Req.rising
            | Fault.Falling -> Req.falling
          in
          (* The source may carry extra pinned components if it also
             appears as a side input; it must at least imply the
             transition. *)
          (match Req.merge r expected with
          | Some merged -> Req.equal merged r
          | None -> false)))


(* First-principles validation of the robust conditions: over every pair
   of controlled gate kinds and both fault directions, build the chain
   a -> g1 -> g2 -> out with one side input per gate, and check that every
   two-pattern test satisfying A(p) physically detects the slowed path
   under MANY different delay assignments to the rest of the circuit —
   the defining property of a robust test. *)
let test_robust_conditions_first_principles () =
  let kinds = [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor ] in
  List.iter
    (fun k1 ->
      List.iter
        (fun k2 ->
          let b = Builder.create "pair" in
          List.iter (Builder.add_pi b) [ "a"; "s1"; "s2" ];
          Builder.add_po b "out";
          Builder.add_gate b ~out:"y" k1 [ "a"; "s1" ];
          Builder.add_gate b ~out:"out" k2 [ "y"; "s2" ];
          let c = Builder.finish_exn b in
          let path = mk_path c [ "a"; "y"; "out" ] in
          List.iter
            (fun dir ->
              let fault = { Fault.path; dir } in
              match Robust.conditions c fault with
              | None -> () (* undetectable chain, nothing to check *)
              | Some reqs ->
                (* Try every two-pattern test over the 3 inputs. *)
                for v1 = 0 to 7 do
                  for v3 = 0 to 7 do
                    let bits v = Array.init 3 (fun i -> (v lsr i) land 1 = 1) in
                    let t = Pdf_core.Test_pair.create (bits v1) (bits v3) in
                    if Pdf_core.Test_pair.satisfies c t reqs then begin
                      (* Robustness: detection must hold for every delay
                         model we throw at the rest of the circuit. *)
                      for seed = 1 to 6 do
                        let model =
                          Delay_model.random c (Pdf_util.Rng.create seed)
                            ~min:1 ~max:5
                        in
                        let period =
                          Pdf_core.Timing.nominal_period c model
                        in
                        let slack =
                          period - Delay_model.length model c path
                        in
                        let inject =
                          { Pdf_core.Timing.path; extra = slack + 1 }
                        in
                        if
                          not
                            (Pdf_core.Timing.detects c model
                               ~t_sample:period ~inject t)
                        then
                          Alcotest.failf
                            "robust test failed physically: %s %s/%s test %s \
                             seed %d"
                            (Fault.direction_name dir) (Gate.kind_name k1)
                            (Gate.kind_name k2)
                            (Pdf_core.Test_pair.to_string t)
                            seed
                      done
                    end
                  done
                done)
            [ Fault.Rising; Fault.Falling ])
        kinds)
    kinds

(* ------------------------------------------------------------------ *)
(* Undetectable filter                                                  *)
(* ------------------------------------------------------------------ *)

let test_filter_counts () =
  let model = Delay_model.lines s27 in
  let r = Pdf_paths.Enumerate.enumerate s27 model ~max_paths:1000 in
  let faults =
    List.concat_map (fun (p, _) -> Fault.both p) r.Pdf_paths.Enumerate.paths
  in
  let kept, stats = Undetectable.filter s27 faults in
  check Alcotest.int "kept matches list" (List.length kept) stats.Undetectable.kept;
  check Alcotest.int "partition"
    (List.length faults)
    (stats.Undetectable.kept + stats.Undetectable.direct_conflicts
   + stats.Undetectable.implication_conflicts);
  (* Every kept fault classifies as maybe-detectable. *)
  List.iter
    (fun f ->
      check Alcotest.bool "kept is maybe-detectable" true
        (Undetectable.classify s27 f = Undetectable.Maybe_detectable))
    kept

(* The filter's ledger records name the first conflict the implication
   schedule meets, so the schedule's visiting order is part of the
   output.  Pinned at N_P = 1000, N_P0 = 100, as [pdfatpg enrich] builds
   its target sets: a schedule that visits lower-index gates within a
   pass reaches the same verdicts but changes these records. *)
let test_undetectable_records_pinned () =
  List.iter
    (fun (name, count, digest) ->
      let profile = Option.get (Pdf_synth.Profiles.find name) in
      let c = Pdf_synth.Profiles.circuit profile in
      let ledger = Ledger.create () in
      ignore
        (Target_sets.build ~ledger c (Delay_model.lines c) ~n_p:1000 ~n_p0:100
          : Target_sets.t);
      let records = Ledger.create () in
      List.iter
        (fun (r : Ledger.record) ->
          Ledger.record records ~kind:"undetectable" r.Ledger.fields)
        (Ledger.find ledger ~kind:"undetectable" (fun _ -> true));
      check Alcotest.int (name ^ " undetectable records") count
        (Ledger.size records);
      check Alcotest.string (name ^ " undetectable digest") digest
        (Digest.to_hex (Digest.string (Ledger.to_jsonl records))))
    [
      ("s1488", 844, "5a53c2d22c06ec7df47bd833d7b2769b");
      ("b09", 910, "f0402bd0c82cc963ea81427ea57a6169");
    ]

let test_filter_soundness_s27 () =
  (* Soundness: a fault removed by the filter must have no robust test.
     Exhaustive check over all 2^14 two-pattern input pairs of s27. *)
  let model = Delay_model.lines s27 in
  let r = Pdf_paths.Enumerate.enumerate s27 model ~max_paths:60 in
  let faults =
    List.concat_map (fun (p, _) -> Fault.both p) r.Pdf_paths.Enumerate.paths
  in
  let removed =
    List.filter
      (fun f -> Undetectable.classify s27 f <> Undetectable.Maybe_detectable)
      faults
  in
  let detectable f =
    match Robust.conditions s27 f with
    | None -> false
    | Some reqs ->
      let found = ref false in
      for a = 0 to 127 do
        for b = 0 to 127 do
          if not !found then begin
            let v1 = Array.init 7 (fun i -> Bit.of_bool ((a lsr i) land 1 = 1)) in
            let v3 = Array.init 7 (fun i -> Bit.of_bool ((b lsr i) land 1 = 1)) in
            let pairs =
              Array.init 7 (fun i ->
                  { Pdf_sim.Two_pattern.b1 = v1.(i); b3 = v3.(i) })
            in
            let triples = Pdf_sim.Two_pattern.simulate s27 pairs in
            if Pdf_sim.Two_pattern.satisfies triples reqs then found := true
          end
        done
      done;
      !found
  in
  List.iter
    (fun f ->
      if detectable f then
        Alcotest.failf "filter removed detectable fault %s"
          (Fault.to_string s27 f))
    removed

(* The shared filter against the per-fault pass it replaced: the same
   kept list, in order, the same stats, and the same ledger records —
   with a ledger, whose records locate each conflict by the per-fault
   pass, and without one, where the stats' split comes from the direct
   clash check alone. *)
let same_as_per_fault ~criterion c faults =
  let l1 = Ledger.create () and l2 = Ledger.create () in
  let k1, s1 = Undetectable.per_fault ~criterion ~ledger:l1 c faults in
  let k2, s2 = Undetectable.filter ~criterion ~ledger:l2 c faults in
  let k3, s3 = Undetectable.filter ~criterion c faults in
  List.equal Fault.equal k1 k2
  && List.equal Fault.equal k1 k3
  && s1 = s2 && s1 = s3
  && String.equal (Ledger.to_jsonl l1) (Ledger.to_jsonl l2)

let both_criteria = [ Robust.Robust; Robust.Non_robust ]

let enumerated_faults c ~n_p =
  let r =
    Pdf_paths.Enumerate.enumerate c (Delay_model.lines c) ~max_paths:(n_p / 2)
  in
  List.concat_map (fun (p, _) -> Fault.both p) r.Pdf_paths.Enumerate.paths

(* A random circuit straight from [Builder]: every gate kind, XOR
   included, fan-ins drawn from all earlier nets with repeats allowed,
   and every net without fanout an output. *)
let builder_circuit seed =
  let rng = Pdf_util.Rng.create seed in
  let b = Builder.create "rand" in
  let num_pis = 2 + Pdf_util.Rng.int rng 4 in
  let name i = Printf.sprintf "n%d" i in
  for i = 0 to num_pis - 1 do
    Builder.add_pi b (name i)
  done;
  let num_gates = 4 + Pdf_util.Rng.int rng 20 in
  let kinds = Array.of_list Gate.all_kinds in
  let read = Array.make (num_pis + num_gates) false in
  for g = 0 to num_gates - 1 do
    let out = num_pis + g in
    let kind = kinds.(Pdf_util.Rng.int rng (Array.length kinds)) in
    let arity =
      match kind with
      | Gate.Not | Gate.Buff -> 1
      | _ -> 2 + Pdf_util.Rng.int rng 2
    in
    let fanins =
      List.init arity (fun _ ->
          (* Mostly recent nets, for depth. *)
          let lo = max 0 (out - 4) in
          let i =
            if Pdf_util.Rng.int rng 3 = 0 then Pdf_util.Rng.int rng out
            else lo + Pdf_util.Rng.int rng (out - lo)
          in
          read.(i) <- true;
          name i)
    in
    Builder.add_gate b ~out:(name out) kind fanins
  done;
  Array.iteri
    (fun i r -> if (not r) && i >= num_pis then Builder.add_po b (name i))
    read;
  Builder.finish_exn b

(* On any fault list: shuffled, with repeats, so that faults sharing all
   their chunks and branches in any order come up. *)
let prop_filter_is_per_fault =
  QCheck.Test.make ~name:"shared filter = per-fault pass (random circuits)"
    ~count:150
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let c = builder_circuit seed in
      let rng = Pdf_util.Rng.create (seed + 1) in
      let faults = enumerated_faults c ~n_p:200 in
      let a = Array.of_list faults in
      let n = Array.length a in
      let picks =
        faults @ List.init (n / 4) (fun _ -> a.(Pdf_util.Rng.int rng n))
      in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun f -> (Pdf_util.Rng.int rng 1_000_000, f)) picks))
      in
      List.for_all
        (fun criterion ->
          same_as_per_fault ~criterion c faults
          && same_as_per_fault ~criterion c shuffled)
        both_criteria)

let profile_circuit name =
  Pdf_synth.Profiles.circuit (Option.get (Pdf_synth.Profiles.find name))

(* b09 shares much (1,290 of its 1,498 faults at N_P = 1500 are
   eliminated, many below a shared conflict); dec6 shares nothing. *)
let test_filter_is_per_fault_profiles () =
  List.iter
    (fun name ->
      let c = profile_circuit name in
      let faults = enumerated_faults c ~n_p:1500 in
      List.iter
        (fun criterion ->
          check Alcotest.bool
            (Printf.sprintf "%s %s" name
               (match criterion with
               | Robust.Robust -> "robust"
               | Robust.Non_robust -> "non-robust"))
            true
            (same_as_per_fault ~criterion c faults))
        both_criteria)
    [ "b09"; "dec6" ]

let test_filter_shares_work () =
  let c = profile_circuit "b09" in
  let faults = enumerated_faults c ~n_p:1500 in
  let count f =
    let a0 = Undetectable.assignments () in
    ignore (f () : Fault.t list * Undetectable.stats);
    Undetectable.assignments () - a0
  in
  let per_fault = count (fun () -> Undetectable.per_fault c faults) in
  let shared = count (fun () -> Undetectable.filter c faults) in
  if shared >= per_fault then
    Alcotest.failf "b09: the filter assigned %d values, the per-fault pass %d"
      shared per_fault

(* ------------------------------------------------------------------ *)
(* Target sets                                                          *)
(* ------------------------------------------------------------------ *)

let test_target_sets_partition () =
  let model = Delay_model.lines s27 in
  let ts = Target_sets.build s27 model ~n_p:40 ~n_p0:10 in
  let p = ts.Target_sets.p and p0 = ts.Target_sets.p0 and p1 = ts.Target_sets.p1 in
  check Alcotest.int "partition" (List.length p)
    (List.length p0 + List.length p1);
  List.iter
    (fun (e : Target_sets.entry) ->
      check Alcotest.bool "P0 length >= cutoff" true
        (e.Target_sets.length >= ts.Target_sets.cutoff_length))
    p0;
  List.iter
    (fun (e : Target_sets.entry) ->
      check Alcotest.bool "P1 length < cutoff" true
        (e.Target_sets.length < ts.Target_sets.cutoff_length))
    p1;
  check Alcotest.bool "P0 at least threshold (when feasible)" true
    (List.length p0 >= min 10 (List.length p));
  (* P sorted by decreasing length. *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Target_sets.length >= b.Target_sets.length && sorted rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "sorted" true (sorted p)

let test_target_sets_includes_longest () =
  let model = Delay_model.lines s27 in
  let ts = Target_sets.build s27 model ~n_p:40 ~n_p0:10 in
  (* Both faults of every longest path must be in P0. *)
  let longest =
    match ts.Target_sets.p with e :: _ -> e.Target_sets.length | [] -> 0
  in
  List.iter
    (fun (e : Target_sets.entry) ->
      if e.Target_sets.length = longest then
        check Alcotest.bool "longest in P0" true
          (List.exists
             (fun (e0 : Target_sets.entry) ->
               Fault.equal e0.Target_sets.fault e.Target_sets.fault)
             ts.Target_sets.p0))
    ts.Target_sets.p

let test_target_sets_small_threshold () =
  let model = Delay_model.lines s27 in
  (* Threshold bigger than everything: all faults end up in P0. *)
  let ts = Target_sets.build s27 model ~n_p:40 ~n_p0:10_000 in
  check Alcotest.int "P1 empty" 0 (List.length ts.Target_sets.p1)

let test_target_sets_bad_args () =
  let model = Delay_model.lines s27 in
  Alcotest.check_raises "n_p" (Invalid_argument "Target_sets.build: n_p < 2")
    (fun () -> ignore (Target_sets.build s27 model ~n_p:1 ~n_p0:1))

let test_target_sets_paper_scale () =
  (* The paper's constants must be usable end-to-end on a real profile:
     enumeration and selection at N_P = 10000 / N_P0 = 1000. *)
  let profile = Option.get (Pdf_synth.Profiles.find "b03") in
  let c = Pdf_synth.Profiles.circuit profile in
  let model = Pdf_paths.Delay_model.lines c in
  let ts =
    Target_sets.build c model ~n_p:Target_sets.paper_n_p
      ~n_p0:Target_sets.paper_n_p0
  in
  check Alcotest.bool "P bounded" true
    (List.length ts.Target_sets.p <= Target_sets.paper_n_p);
  check Alcotest.bool "P0 meets threshold when P is large enough" true
    (List.length ts.Target_sets.p0 >= min Target_sets.paper_n_p0
                                        (List.length ts.Target_sets.p));
  check Alcotest.bool "not truncated" false
    ts.Target_sets.enumeration.Pdf_paths.Enumerate.truncated

let test_target_sets_constants () =
  check Alcotest.int "N_P" 10_000 Target_sets.paper_n_p;
  check Alcotest.int "N_P0" 1_000 Target_sets.paper_n_p0


(* ------------------------------------------------------------------ *)
(* Non-robust criterion                                                 *)
(* ------------------------------------------------------------------ *)

let test_non_robust_weaker () =
  (* Non-robust side conditions never pin the middle component, and every
     requirement set a robust test satisfies is also satisfied
     non-robustly (robust => non-robust). *)
  let f = Fault.rising chain_path in
  let robust = Option.get (Robust.conditions chain f) in
  let nonrobust =
    Option.get (Robust.conditions ~criterion:Robust.Non_robust chain f)
  in
  List.iter
    (fun (n, r) ->
      if n <> chain_path.Path.source then begin
        check Alcotest.bool "middle unpinned" true (r.Req.r2 = Req.Any);
        check Alcotest.bool "initial unpinned" true (r.Req.r1 = Req.Any)
      end)
    nonrobust;
  (* Every non-robust requirement is implied by the robust one. *)
  List.iter
    (fun (n, nr) ->
      match List.assoc_opt n robust with
      | None -> Alcotest.failf "net %d missing from robust set" n
      | Some r -> (
        match Req.merge r nr with
        | Some merged -> check req_testable "robust implies non-robust" r merged
        | None -> Alcotest.fail "robust conflicts with non-robust"))
    nonrobust

let test_non_robust_detects_more () =
  (* The direct-conflict example becomes detectable non-robustly: the OR
     side wants stable 0 robustly but only final 0 non-robustly, which no
     longer clashes with the AND side's final 1... on the same net it
     still clashes (xx1 vs xx0).  Check instead that non-robust keeps at
     least as many faults on s27. *)
  let model = Pdf_paths.Delay_model.lines s27 in
  let r = Pdf_paths.Enumerate.enumerate s27 model ~max_paths:60 in
  let faults =
    List.concat_map (fun (p, _) -> Fault.both p) r.Pdf_paths.Enumerate.paths
  in
  let _, rob = Undetectable.filter s27 faults in
  let _, non = Undetectable.filter ~criterion:Robust.Non_robust s27 faults in
  check Alcotest.bool "non-robust keeps at least as many" true
    (non.Undetectable.kept >= rob.Undetectable.kept)

(* The one name table: each criterion's name parses back to it, in any
   case; the hyphenated spelling the ablation tables print parses too,
   and an unknown name does not. *)
let test_criterion_names () =
  List.iter
    (fun c ->
      let name = Robust.criterion_name c in
      check Alcotest.bool ("roundtrip " ^ name) true
        (Robust.criterion_of_name name = Some c);
      check Alcotest.bool ("upper case " ^ name) true
        (Robust.criterion_of_name (String.uppercase_ascii name) = Some c))
    [ Robust.Robust; Robust.Non_robust ];
  check Alcotest.string "robust" "robust" (Robust.criterion_name Robust.Robust);
  check Alcotest.string "nonrobust" "nonrobust"
    (Robust.criterion_name Robust.Non_robust);
  check Alcotest.bool "non-robust" true
    (Robust.criterion_of_name "Non-Robust" = Some Robust.Non_robust);
  check Alcotest.bool "unknown" true (Robust.criterion_of_name "strong" = None);
  check Alcotest.bool "empty" true (Robust.criterion_of_name "" = None)

(* ------------------------------------------------------------------ *)
(* Multi-set split                                                      *)
(* ------------------------------------------------------------------ *)

let test_split_multi_partition () =
  let model = Pdf_paths.Delay_model.lines s27 in
  let ts = Target_sets.build s27 model ~n_p:60 ~n_p0:8 in
  let slices = Target_sets.split_multi ts ~thresholds:[ 8; 20 ] in
  check Alcotest.int "three slices" 3 (List.length slices);
  let total = List.fold_left (fun a s -> a + List.length s) 0 slices in
  check Alcotest.int "partition" (List.length ts.Target_sets.p) total;
  (match slices with
  | [ s0; s1; s2 ] ->
    check Alcotest.bool "first slice adequate" true (List.length s0 >= min 8 total);
    (* Slices are ordered by length: min of earlier >= max of later. *)
    let min_len s =
      List.fold_left (fun a (e : Target_sets.entry) -> min a e.Target_sets.length)
        max_int s
    in
    let max_len s =
      List.fold_left (fun a (e : Target_sets.entry) -> max a e.Target_sets.length)
        min_int s
    in
    if s1 <> [] then
      check Alcotest.bool "s0 longer than s1" true (min_len s0 > max_len s1);
    if s2 <> [] then
      check Alcotest.bool "s1 longer than s2" true
        (s1 = [] || min_len s1 > max_len s2)
  | _ -> Alcotest.fail "expected three slices");
  (* First slice must agree with the two-way P0 when thresholds match. *)
  let slices2 = Target_sets.split_multi ts ~thresholds:[ 8 ] in
  (match slices2 with
  | [ s0; s1 ] ->
    check Alcotest.int "s0 = P0" (List.length ts.Target_sets.p0) (List.length s0);
    check Alcotest.int "s1 = P1" (List.length ts.Target_sets.p1) (List.length s1)
  | _ -> Alcotest.fail "expected two slices")

let test_split_multi_bad_thresholds () =
  let model = Pdf_paths.Delay_model.lines s27 in
  let ts = Target_sets.build s27 model ~n_p:60 ~n_p0:8 in
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Target_sets.split_multi: thresholds must increase")
    (fun () -> ignore (Target_sets.split_multi ts ~thresholds:[ 10; 10 ]))

let test_split_multi_huge_threshold () =
  let model = Pdf_paths.Delay_model.lines s27 in
  let ts = Target_sets.build s27 model ~n_p:60 ~n_p0:8 in
  match Target_sets.split_multi ts ~thresholds:[ 100_000 ] with
  | [ s0; s1 ] ->
    check Alcotest.int "everything in first slice"
      (List.length ts.Target_sets.p) (List.length s0);
    check Alcotest.int "second empty" 0 (List.length s1)
  | _ -> Alcotest.fail "expected two slices"

let () =
  Alcotest.run "pdf_faults"
    [
      ( "fault",
        [
          Alcotest.test_case "both" `Quick test_fault_both;
          Alcotest.test_case "to_string" `Quick test_fault_to_string;
        ] );
      ( "robust",
        [
          Alcotest.test_case "rising chain" `Quick test_robust_rising_chain;
          Alcotest.test_case "falling chain" `Quick test_robust_falling_chain;
          Alcotest.test_case "output direction" `Quick test_robust_output_direction;
          Alcotest.test_case "paper example (s27)" `Quick test_robust_paper_example;
          Alcotest.test_case "merges repeated lines" `Quick
            test_robust_merges_repeated_lines;
          Alcotest.test_case "direct conflict" `Quick test_robust_direct_conflict;
          Alcotest.test_case "xor side stable zero" `Quick
            test_robust_xor_side_stable_zero;
          Alcotest.test_case "not/buff no sides" `Quick test_robust_not_buff_no_sides;
          Alcotest.test_case "merge_into" `Quick test_merge_into;
          qcheck prop_conditions_contain_source;
          Alcotest.test_case "first principles (all gate pairs)" `Slow
            test_robust_conditions_first_principles;
        ] );
      ( "undetectable",
        [
          Alcotest.test_case "filter counts" `Quick test_filter_counts;
          Alcotest.test_case "filter soundness (exhaustive s27)" `Slow
            test_filter_soundness_s27;
          Alcotest.test_case "ledger records pinned (s1488, b09)" `Slow
            test_undetectable_records_pinned;
          qcheck prop_filter_is_per_fault;
          Alcotest.test_case "shared = per-fault (b09, dec6)" `Quick
            test_filter_is_per_fault_profiles;
          Alcotest.test_case "shares implication work (b09)" `Quick
            test_filter_shares_work;
        ] );
      ( "criterion",
        [
          Alcotest.test_case "non-robust weaker" `Quick test_non_robust_weaker;
          Alcotest.test_case "non-robust detects more" `Quick
            test_non_robust_detects_more;
          Alcotest.test_case "names" `Quick test_criterion_names;
        ] );
      ( "split_multi",
        [
          Alcotest.test_case "partition" `Quick test_split_multi_partition;
          Alcotest.test_case "bad thresholds" `Quick test_split_multi_bad_thresholds;
          Alcotest.test_case "huge threshold" `Quick test_split_multi_huge_threshold;
        ] );
      ( "target_sets",
        [
          Alcotest.test_case "partition" `Quick test_target_sets_partition;
          Alcotest.test_case "includes longest" `Quick
            test_target_sets_includes_longest;
          Alcotest.test_case "huge threshold" `Quick test_target_sets_small_threshold;
          Alcotest.test_case "bad args" `Quick test_target_sets_bad_args;
          Alcotest.test_case "paper scale" `Slow test_target_sets_paper_scale;
          Alcotest.test_case "paper constants" `Quick test_target_sets_constants;
        ] );
    ]
