(* Tests for Pdf_sim: logic simulation, two-pattern simulation, and the
   implication engine (checked against brute force on small circuits). *)

module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Builder = Pdf_circuit.Builder
module Logic_sim = Pdf_sim.Logic_sim
module Two_pattern = Pdf_sim.Two_pattern
module Implication = Pdf_sim.Implication

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let bit = Alcotest.testable Bit.pp Bit.equal

let c17 = Pdf_synth.Iscas.c17 ()
let s27 = Pdf_synth.Iscas.s27 ()

(* Reference model of c17 (from the netlist). *)
let c17_reference n1 n2 n3 n6 n7 =
  let nand a b = not (a && b) in
  let n10 = nand n1 n3 and n11 = nand n3 n6 in
  let n16 = nand n2 n11 and n19 = nand n11 n7 in
  (nand n10 n16, nand n16 n19)

let test_logic_sim_c17_exhaustive () =
  for v = 0 to 31 do
    let b i = (v lsr i) land 1 = 1 in
    let pis = [| b 0; b 1; b 2; b 3; b 4 |] in
    let values = Logic_sim.simulate_bool c17 pis in
    let e22, e23 = c17_reference (b 0) (b 1) (b 2) (b 3) (b 4) in
    check Alcotest.bool "N22" e22 values.(c17.Circuit.pos.(0));
    check Alcotest.bool "N23" e23 values.(c17.Circuit.pos.(1))
  done

let test_logic_sim_x_inputs () =
  (* All-X inputs leave every gate output X in c17 (no constant logic). *)
  let values = Logic_sim.simulate c17 (Array.make 5 Bit.X) in
  Array.iter (fun po -> check bit "X out" Bit.X values.(po)) c17.Circuit.pos

let test_logic_sim_partial_definite () =
  (* N3=0 forces N10 = N11 = 1 regardless of the other inputs. *)
  let pis = Array.make 5 Bit.X in
  pis.(2) <- Bit.Zero;
  (* N3 is the third declared input *)
  let values = Logic_sim.simulate c17 pis in
  let n10 = Option.get (Circuit.find_net c17 "N10") in
  let n11 = Option.get (Circuit.find_net c17 "N11") in
  check bit "N10 forced" Bit.One values.(n10);
  check bit "N11 forced" Bit.One values.(n11)

let test_logic_sim_wrong_arity () =
  Alcotest.check_raises "wrong PI count"
    (Invalid_argument "Logic_sim.simulate: wrong number of PI values")
    (fun () -> ignore (Logic_sim.simulate c17 (Array.make 3 Bit.X)))

(* Monotonicity: refining X inputs to definite values never changes an
   already-definite internal value. *)
let prop_logic_sim_monotone =
  let gen =
    QCheck.Gen.(
      pair
        (array_size (return 5) (oneofl [ Bit.Zero; Bit.One; Bit.X ]))
        (array_size (return 5) bool))
  in
  QCheck.Test.make ~name:"three-valued sim is monotone" ~count:300
    (QCheck.make gen)
    (fun (partial, refinement) ->
      let refined =
        Array.mapi
          (fun i v ->
            match v with
            | Bit.X -> Bit.of_bool refinement.(i)
            | (Bit.Zero | Bit.One) as d -> d)
          partial
      in
      let v1 = Logic_sim.simulate c17 partial in
      let v2 = Logic_sim.simulate c17 refined in
      Array.for_all2
        (fun a b -> (not (Bit.is_definite a)) || Bit.equal a b)
        v1 v2)

(* ------------------------------------------------------------------ *)
(* Two-pattern simulation                                               *)
(* ------------------------------------------------------------------ *)

let pairs_of v1 v3 =
  Array.init (Array.length v1) (fun i ->
      { Two_pattern.b1 = v1.(i); b3 = v3.(i) })

let test_two_pattern_ends_match_single () =
  let rng = Pdf_util.Rng.create 123 in
  for _ = 1 to 50 do
    let v1 = Array.init 5 (fun _ -> Bit.of_bool (Pdf_util.Rng.bool rng)) in
    let v3 = Array.init 5 (fun _ -> Bit.of_bool (Pdf_util.Rng.bool rng)) in
    let triples = Two_pattern.simulate c17 (pairs_of v1 v3) in
    let s1 = Logic_sim.simulate c17 v1 in
    let s3 = Logic_sim.simulate c17 v3 in
    Array.iteri
      (fun net t ->
        check bit "v1 component" s1.(net) t.Triple.v1;
        check bit "v3 component" s3.(net) t.Triple.v3)
      triples
  done

let test_two_pattern_stable_inputs_stable_everywhere () =
  let v = Array.init 5 (fun i -> Bit.of_bool (i mod 2 = 0)) in
  let triples = Two_pattern.simulate c17 (pairs_of v v) in
  Array.iter
    (fun t -> check Alcotest.bool "stable" true (Triple.is_stable t))
    triples

let test_two_pattern_middle_x_on_change () =
  let v1 = Array.make 5 Bit.Zero and v3 = Array.make 5 Bit.One in
  let triples = Two_pattern.simulate c17 (pairs_of v1 v3) in
  (* Every changing PI must carry an X middle value. *)
  for pi = 0 to 4 do
    check bit "middle x" Bit.X triples.(pi).Triple.v2
  done

let test_middle_of_pair () =
  check bit "stable 0" Bit.Zero (Two_pattern.middle_of_pair Bit.Zero Bit.Zero);
  check bit "stable 1" Bit.One (Two_pattern.middle_of_pair Bit.One Bit.One);
  check bit "changing" Bit.X (Two_pattern.middle_of_pair Bit.Zero Bit.One);
  check bit "half specified" Bit.X (Two_pattern.middle_of_pair Bit.X Bit.One)

let test_satisfies_and_violation () =
  let v = Array.make 5 Bit.One in
  let triples = Two_pattern.simulate c17 (pairs_of v v) in
  let n10 = Option.get (Circuit.find_net c17 "N10") in
  (* N10 = NAND(1,1) = 0 stable. *)
  check Alcotest.bool "satisfied" true
    (Two_pattern.satisfies triples [ (n10, Req.stable false) ]);
  check Alcotest.bool "violated" false
    (Two_pattern.satisfies triples [ (n10, Req.stable true) ]);
  match Two_pattern.first_violation triples [ (n10, Req.final true) ] with
  | Some (net, _) -> check Alcotest.int "violating net" n10 net
  | None -> Alcotest.fail "expected a violation"

(* The middle component is conservative: if it is definite, then the value
   is also the v1/v3 value (no glitch possible). *)
let prop_two_pattern_middle_conservative =
  let gen =
    QCheck.Gen.(pair (array_size (return 5) bool) (array_size (return 5) bool))
  in
  QCheck.Test.make ~name:"definite middle implies stable ends" ~count:300
    (QCheck.make gen)
    (fun (b1, b3) ->
      let v1 = Array.map Bit.of_bool b1 and v3 = Array.map Bit.of_bool b3 in
      let triples = Two_pattern.simulate c17 (pairs_of v1 v3) in
      Array.for_all
        (fun t ->
          (not (Bit.is_definite t.Triple.v2))
          || (Bit.equal t.Triple.v1 t.Triple.v2
              && Bit.equal t.Triple.v2 t.Triple.v3))
        triples)

(* ------------------------------------------------------------------ *)
(* Implication                                                          *)
(* ------------------------------------------------------------------ *)

(* Brute-force satisfiability is shared with the fuzz harness: the same
   enumeration the differential oracles use (Pdf_check.Oracle) backs the
   implication soundness check here. *)
let brute_force_satisfiable reqs =
  Pdf_check.Oracle.brute_force_satisfiable c17 reqs

let test_brute_force_partial_reqs_both_polarities () =
  (* Requirement sets that leave components unconstrained ([X] in the
     requirement), in both polarities: the brute-force witness must
     exist and really satisfy the set. *)
  let n10 = Option.get (Circuit.find_net c17 "N10") in
  let n22 = Option.get (Circuit.find_net c17 "N22") in
  List.iter
    (fun (label, reqs) ->
      match Pdf_check.Oracle.brute_force c17 reqs with
      | None -> Alcotest.failf "%s: no witness found" label
      | Some t ->
        check Alcotest.bool
          (Printf.sprintf "%s: witness satisfies" label)
          true
          (Pdf_core.Test_pair.satisfies c17 t reqs))
    [
      ("initial 0", [ (n10, Req.initial false) ]);
      ("initial 1", [ (n10, Req.initial true) ]);
      ("final 0", [ (n10, Req.final false) ]);
      ("final 1", [ (n10, Req.final true) ]);
      ("rising", [ (n10, Req.rising) ]);
      ("falling", [ (n10, Req.falling) ]);
      ( "mixed polarities",
        [ (n10, Req.initial true); (n22, Req.final false) ] );
      ( "opposite transitions",
        [ (n10, Req.rising); (n22, Req.falling) ] );
    ]

let test_brute_force_unsatisfiable () =
  (* A direct contradiction has no witness, whichever polarity is
     pinned first. *)
  let n10 = Option.get (Circuit.find_net c17 "N10") in
  List.iter
    (fun (label, reqs) ->
      check Alcotest.bool label false
        (Pdf_check.Oracle.brute_force_satisfiable c17 reqs))
    [
      ("0 and 1", [ (n10, Req.stable false); (n10, Req.stable true) ]);
      ("1 and 0", [ (n10, Req.stable true); (n10, Req.stable false) ]);
      ( "rise and fall",
        [ (n10, Req.rising); (n10, Req.falling) ] );
    ]

let test_implication_soundness_c17 () =
  (* If implication reports a conflict, the requirements really are
     unsatisfiable.  Probe many random requirement sets. *)
  let rng = Pdf_util.Rng.create 77 in
  let kinds = [| Req.stable false; Req.stable true; Req.final false;
                 Req.final true; Req.rising; Req.falling |] in
  let num_nets = Circuit.num_nets c17 in
  for _ = 1 to 200 do
    let n_reqs = 1 + Pdf_util.Rng.int rng 3 in
    let reqs =
      List.init n_reqs (fun _ ->
          ( Pdf_util.Rng.int rng num_nets,
            kinds.(Pdf_util.Rng.int rng (Array.length kinds)) ))
    in
    match Implication.infer c17 reqs with
    | Implication.Consistent _ -> ()
    | Implication.Conflict _ ->
      if brute_force_satisfiable reqs then
        Alcotest.failf "implication claimed conflict on satisfiable reqs"
  done

let test_implication_detects_direct_conflict () =
  let n10 = Option.get (Circuit.find_net c17 "N10") in
  match
    Implication.infer c17 [ (n10, Req.stable true); (n10, Req.stable false) ]
  with
  | Implication.Conflict _ -> ()
  | Implication.Consistent _ -> Alcotest.fail "expected conflict"

let test_implication_forward_backward () =
  (* Requiring N22 = stable 0 forces N10 = N16 = stable 1 (NAND backward),
     which in turn forces N1 = N3 = stable... N10 = NAND(N1,N3) = 1 does
     not pin its inputs.  But N16 = 1 and N22 = 0 pin nothing more; check
     the forced values only. *)
  let n22 = Option.get (Circuit.find_net c17 "N22") in
  let n10 = Option.get (Circuit.find_net c17 "N10") in
  let n16 = Option.get (Circuit.find_net c17 "N16") in
  match Implication.infer c17 [ (n22, Req.stable false) ] with
  | Implication.Conflict _ -> Alcotest.fail "unexpected conflict"
  | Implication.Consistent values ->
    check bit "N10 v2 forced to 1" Bit.One values.(n10).Triple.v2;
    check bit "N16 v2 forced to 1" Bit.One values.(n16).Triple.v2;
    check bit "N10 v1 forced too" Bit.One values.(n10).Triple.v1

let test_implication_pi_coupling () =
  (* A stable requirement on a PI's middle value pins both patterns. *)
  let n1 = Option.get (Circuit.find_net c17 "N1") in
  match
    Implication.infer c17
      [ (n1, { Req.r1 = Req.Any; r2 = Req.Must true; r3 = Req.Any }) ]
  with
  | Implication.Conflict _ -> Alcotest.fail "unexpected conflict"
  | Implication.Consistent values ->
    check bit "v1 pinned" Bit.One values.(n1).Triple.v1;
    check bit "v3 pinned" Bit.One values.(n1).Triple.v3

let test_implication_transition_vs_stable () =
  (* Asking a PI to both rise and stay stable is a conflict found through
     the PI coupling rule. *)
  let n1 = Option.get (Circuit.find_net c17 "N1") in
  match
    Implication.infer c17 [ (n1, Req.rising); (n1, Req.stable true) ]
  with
  | Implication.Conflict _ -> ()
  | Implication.Consistent _ -> Alcotest.fail "expected conflict"

let test_implication_consistent_helper () =
  let n22 = Option.get (Circuit.find_net c17 "N22") in
  check Alcotest.bool "consistent" true
    (Implication.consistent c17 [ (n22, Req.final true) ]);
  let n1 = Option.get (Circuit.find_net c17 "N1") in
  check Alcotest.bool "inconsistent" false
    (Implication.consistent c17 [ (n1, Req.rising); (n1, Req.falling) ])

(* Completeness-ish sanity on s27: the robust conditions of every fault
   kept by the undetectability filter must be implication-consistent (by
   construction of the filter), and a justified test must satisfy them. *)
let test_implication_agrees_with_filter () =
  let model = Pdf_paths.Delay_model.lines s27 in
  let r = Pdf_paths.Enumerate.enumerate s27 model ~max_paths:50 in
  let faults =
    List.concat_map (fun (p, _) -> Pdf_faults.Fault.both p) r.Pdf_paths.Enumerate.paths
  in
  List.iter
    (fun f ->
      match Pdf_faults.Robust.conditions s27 f with
      | None -> ()
      | Some reqs ->
        let filter_says =
          Pdf_faults.Undetectable.classify s27 f = Pdf_faults.Undetectable.Maybe_detectable
        in
        let implication_says = Implication.consistent s27 reqs in
        check Alcotest.bool "filter = implication on merged conditions"
          implication_says filter_says)
    faults

(* ------------------------------------------------------------------ *)
(* Implication state: reset, extension, brute force                     *)
(* ------------------------------------------------------------------ *)

let req_kinds =
  [| Req.stable false; Req.stable true; Req.initial false; Req.initial true;
     Req.final false; Req.final true; Req.rising; Req.falling |]

(* One to four parts of one to three requirements on random nets. *)
let arb_parts c =
  let req =
    QCheck.Gen.(pair (int_bound (Circuit.num_nets c - 1)) (oneofa req_kinds))
  in
  let show_part p =
    String.concat ","
      (List.map
         (fun (net, r) ->
           Printf.sprintf "%s=%s" (Circuit.net_name c net) (Req.to_string r))
         p)
  in
  QCheck.make
    ~print:(fun parts -> String.concat " | " (List.map show_part parts))
    QCheck.Gen.(list_size (int_range 1 4) (list_size (int_range 1 3) req))

let extend_parts st parts =
  List.fold_left
    (fun acc part ->
      match acc with Some _ -> acc | None -> Implication.extend st part)
    None parts

let state_values c st =
  Array.init (Circuit.num_nets c) (fun net ->
      Triple.make
        (Implication.value st ~component:1 net)
        (Implication.value st ~component:2 net)
        (Implication.value st ~component:3 net))

let all_x values =
  Array.for_all
    (fun (t : Triple.t) ->
      Bit.equal t.Triple.v1 Bit.X && Bit.equal t.Triple.v2 Bit.X
      && Bit.equal t.Triple.v3 Bit.X)
    values

(* After any extensions, conflicting or not, [reset] leaves every net X,
   and the reset state answers like a fresh one — conflict line
   included, as the undetectability filter relies on. *)
let prop_reset_restores (name, c) =
  QCheck.Test.make ~name:("reset restores every net to X on " ^ name)
    ~count:300 (arb_parts c) (fun parts ->
      let st = Implication.create c in
      ignore (extend_parts st parts : Implication.conflict option);
      Implication.reset st;
      all_x (state_values c st)
      &&
      let reqs = List.concat parts in
      match (Implication.extend st reqs, Implication.infer c reqs) with
      | None, Implication.Consistent want -> state_values c st = want
      | Some got, Implication.Conflict want ->
        got.Implication.net = want.net
        && got.Implication.component = want.component
      | None, Implication.Conflict _ | Some _, Implication.Consistent _ ->
        false)

(* Implied values are the least fixpoint of the seeds, so extending part
   by part gives the one-shot values of the concatenation when it is
   consistent, and a conflict when it is not. *)
let prop_extend_equals_infer (name, c) =
  QCheck.Test.make ~name:("extend in parts = infer on " ^ name) ~count:300
    (arb_parts c) (fun parts ->
      let st = Implication.create c in
      let conflict = extend_parts st parts in
      match Implication.infer c (List.concat parts) with
      | Implication.Consistent want ->
        conflict = None && state_values c st = want
      | Implication.Conflict _ -> conflict <> None)

(* [undo] to a mark restores exactly the values at the mark, also after
   a conflicting extension, whose conflict it clears; the restored state
   then answers the same extensions as a fresh state brought to the
   mark, conflict line included. *)
let prop_undo_restores (name, c) =
  QCheck.Test.make ~name:("undo restores the mark on " ^ name) ~count:300
    (arb_parts c) (fun parts ->
      let first, rest =
        match parts with [] -> ([], []) | p :: rest -> (p, rest)
      in
      let st = Implication.create c in
      match Implication.extend st first with
      | Some _ ->
        Implication.undo st 0;
        Implication.failed st = None && all_x (state_values c st)
      | None -> (
        let at_mark = state_values c st and m = Implication.mark st in
        ignore (extend_parts st rest : Implication.conflict option);
        Implication.undo st m;
        Implication.failed st = None
        && state_values c st = at_mark
        &&
        let fresh = Implication.create c in
        ignore (Implication.extend fresh first : Implication.conflict option);
        match (extend_parts st rest, extend_parts fresh rest) with
        | None, None -> state_values c st = state_values c fresh
        | Some got, Some want -> got = want
        | None, Some _ | Some _, None -> false))

(* Per net: whether it lies in the fan-in cone of [nets]. *)
let fanin_cone c nets =
  let within = Array.make (Circuit.num_nets c) false in
  let rec visit net =
    if not within.(net) then begin
      within.(net) <- true;
      match Circuit.gate_of_net c net with
      | Some g -> Array.iter visit c.Circuit.gates.(g).Circuit.fanins
      | None -> ()
    end
  in
  List.iter visit nets;
  within

(* Restricted to the fan-in cone of the required nets, a state reaches
   the whole-circuit state's conflict verdict and its values on every
   cone net, and leaves every other net X. *)
let restricted_agrees c parts =
  let within = fanin_cone c (List.map fst (List.concat parts)) in
  let cone = Implication.create ~within c and whole = Implication.create c in
  match (extend_parts cone parts, extend_parts whole parts) with
  | None, None ->
    let got = state_values c cone and want = state_values c whole in
    Array.for_all Fun.id
      (Array.mapi
         (fun net (t : Triple.t) ->
           if within.(net) then t = want.(net) else all_x [| t |])
         got)
  | Some _, Some _ -> true
  | None, Some _ | Some _, None -> false

let prop_restricted_equals_whole (name, c) =
  QCheck.Test.make ~name:("restricted = whole on " ^ name) ~count:300
    (arb_parts c) (restricted_agrees c)

(* The same over random DAGs of the fuzz [xor] profile, a third of
   whose logic gates are XOR/XNOR: no controlling value, so their
   forward and backward rules are the ones no other random circuit
   reaches. *)
let prop_restricted_equals_whole_xor =
  let profile = Option.get (Pdf_check.Fuzz.profile_of_name "xor") in
  let grid = Array.of_list profile.Pdf_check.Fuzz.grid in
  let circuit seed =
    Pdf_synth.Generators.random_dag ~xor_pct:profile.Pdf_check.Fuzz.xor_pct
      ~name:"xor" ~seed
      grid.(seed mod Array.length grid)
  in
  let gen =
    QCheck.Gen.(
      int_range 0 100_000 >>= fun seed ->
      map (fun parts -> (seed, parts)) (QCheck.gen (arb_parts (circuit seed))))
  in
  QCheck.Test.make ~name:"restricted = whole on random XOR DAGs" ~count:300
    (QCheck.make
       ~print:(fun (seed, parts) ->
         Printf.sprintf "seed=%d parts=%d" seed (List.length parts))
       gen)
    (fun (seed, parts) -> restricted_agrees (circuit seed) parts)

(* Implication is sound but incomplete: whenever brute force finds a test
   for the set, [consistent] holds and every implied value is the
   test's. *)
let prop_consistent_vs_brute_force (name, c) =
  QCheck.Test.make ~name:("consistent vs brute force on " ^ name)
    ~count:60 (arb_parts c) (fun parts ->
      let reqs = List.concat parts in
      match Pdf_check.Oracle.brute_force c reqs with
      | None -> true
      | Some t -> (
        Implication.consistent c reqs
        &&
        match Implication.infer c reqs with
        | Implication.Conflict _ -> false
        | Implication.Consistent implied ->
          let sim = Pdf_core.Test_pair.simulate c t in
          let agrees want got = Bit.equal want Bit.X || Bit.equal want got in
          Array.for_all2
            (fun (i : Triple.t) (v : Triple.t) ->
              agrees i.Triple.v1 v.Triple.v1
              && agrees i.Triple.v2 v.Triple.v2
              && agrees i.Triple.v3 v.Triple.v3)
            implied sim))

let state_circuits = [ ("c17", c17); ("s27", s27) ]

let () =
  Alcotest.run "pdf_sim"
    [
      ( "logic_sim",
        [
          Alcotest.test_case "c17 exhaustive" `Quick test_logic_sim_c17_exhaustive;
          Alcotest.test_case "x inputs" `Quick test_logic_sim_x_inputs;
          Alcotest.test_case "partial definite" `Quick test_logic_sim_partial_definite;
          Alcotest.test_case "wrong arity" `Quick test_logic_sim_wrong_arity;
          qcheck prop_logic_sim_monotone;
        ] );
      ( "two_pattern",
        [
          Alcotest.test_case "ends match single-pattern sims" `Quick
            test_two_pattern_ends_match_single;
          Alcotest.test_case "stable inputs stay stable" `Quick
            test_two_pattern_stable_inputs_stable_everywhere;
          Alcotest.test_case "middle x on change" `Quick
            test_two_pattern_middle_x_on_change;
          Alcotest.test_case "middle_of_pair" `Quick test_middle_of_pair;
          Alcotest.test_case "satisfies / first_violation" `Quick
            test_satisfies_and_violation;
          qcheck prop_two_pattern_middle_conservative;
        ] );
      ( "implication",
        [
          Alcotest.test_case "brute-force witnesses, both polarities" `Quick
            test_brute_force_partial_reqs_both_polarities;
          Alcotest.test_case "brute-force unsatisfiable" `Quick
            test_brute_force_unsatisfiable;
          Alcotest.test_case "soundness vs brute force (c17)" `Slow
            test_implication_soundness_c17;
          Alcotest.test_case "direct conflict" `Quick
            test_implication_detects_direct_conflict;
          Alcotest.test_case "forward/backward" `Quick
            test_implication_forward_backward;
          Alcotest.test_case "PI coupling" `Quick test_implication_pi_coupling;
          Alcotest.test_case "transition vs stable" `Quick
            test_implication_transition_vs_stable;
          Alcotest.test_case "consistent helper" `Quick
            test_implication_consistent_helper;
          Alcotest.test_case "agrees with undetectability filter" `Quick
            test_implication_agrees_with_filter;
        ] );
      ( "impl_state",
        List.concat_map
          (fun c ->
            [
              qcheck (prop_reset_restores c);
              qcheck (prop_undo_restores c);
              qcheck (prop_extend_equals_infer c);
              qcheck (prop_restricted_equals_whole c);
              qcheck (prop_consistent_vs_brute_force c);
            ])
          state_circuits
        @ [ qcheck prop_restricted_equals_whole_xor ] );
    ]
