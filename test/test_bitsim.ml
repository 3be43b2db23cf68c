(* Tests for Pdf_bitsim and the packed fault-simulation paths: the
   scalar simulator is the reference, and every packed result — planes,
   satisfaction masks, literal reads, detection flags, dictionaries —
   must agree with it bit for bit, at any jobs count. *)

module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req
module Word = Pdf_values.Word
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Wsim = Pdf_bitsim.Wsim
module Wreq = Pdf_bitsim.Wreq
module Pool = Pdf_par.Pool
module Atpg = Pdf_core.Atpg
module Fault_sim = Pdf_core.Fault_sim
module Test_pair = Pdf_core.Test_pair
module Diagnose = Pdf_core.Diagnose
module Cone_sim = Pdf_core.Cone_sim
module Target_sets = Pdf_faults.Target_sets
module Delay_model = Pdf_paths.Delay_model
module Generators = Pdf_synth.Generators
module Profiles = Pdf_synth.Profiles

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let s27 =
  match Profiles.find "s27" with
  | Some p -> Profiles.circuit p
  | None -> assert false

let dag_params =
  { Generators.num_pis = 6; num_gates = 25; window = 15; max_fanout = 3;
    reuse_pct = 5; restart_pct = 0; fanin3_pct = 10; inverter_pct = 25;
    po_taps = 1 }

(* A randomized circuit plus per-lane PI pairs, possibly with X bits. *)
let gen_case =
  QCheck.Gen.(
    int_range 0 100_000 >>= fun seed ->
    int_range 1 Word.lanes >>= fun lanes ->
    let c = Generators.random_dag ~name:"rand" ~seed dag_params in
    let np = c.Circuit.num_pis in
    let bits = oneofl [ Bit.Zero; Bit.One; Bit.X ] in
    pair
      (array_size (return lanes) (array_size (return np) bits))
      (array_size (return lanes) (array_size (return np) bits))
    >>= fun (b1, b3) -> return (seed, lanes, b1, b3))

let arb_case =
  QCheck.make
    ~print:(fun (seed, lanes, _, _) ->
      Printf.sprintf "seed=%d lanes=%d" seed lanes)
    gen_case

let circuit_of_seed seed =
  Generators.random_dag ~name:"rand" ~seed dag_params

let pack_planes c lanes b1 b3 =
  let np = c.Circuit.num_pis in
  let w1 = Array.init np (fun pi -> Word.init lanes (fun l -> b1.(l).(pi))) in
  let w3 = Array.init np (fun pi -> Word.init lanes (fun l -> b3.(l).(pi))) in
  Wsim.simulate c ~w1 ~w3 ~lanes

let scalar_lane c b1 b3 =
  Two_pattern.simulate c
    (Array.init (Array.length b1) (fun pi ->
         { Two_pattern.b1 = b1.(pi); b3 = b3.(pi) }))

(* Packed simulation equals the scalar simulator on every lane, every
   net, every component — including X lanes. *)
let prop_wsim_matches_scalar =
  QCheck.Test.make ~name:"Wsim.simulate = Two_pattern.simulate per lane"
    ~count:60 arb_case
    (fun (seed, lanes, b1, b3) ->
      let c = circuit_of_seed seed in
      let planes = pack_planes c lanes b1 b3 in
      let ok = ref true in
      for l = 0 to lanes - 1 do
        let scalar = scalar_lane c b1.(l) b3.(l) in
        for net = 0 to Circuit.num_nets c - 1 do
          if not (Triple.equal scalar.(net) (Wsim.triple planes ~net ~lane:l))
          then ok := false
        done
      done;
      !ok)

(* Packed requirement checking, over each fault's literal array, equals
   the scalar satisfied_by fold over its requirement list per lane, on
   the real condition sets of the circuit's faults.  Each requirement is
   also checked alone, over its own literals: a whole set is rarely
   satisfied by random lanes, a single requirement often, so a component
   the encoding loses (a hazard-free middle one, say) shows. *)
let prop_satisfied_mask_matches_scalar =
  QCheck.Test.make
    ~name:"Wreq.satisfied_mask = Req.satisfied_by per lane" ~count:40
    arb_case
    (fun (seed, lanes, b1, b3) ->
      let c = circuit_of_seed seed in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:15 ~n_p0:5 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let planes = pack_planes c lanes b1 b3 in
      let scalars = Array.init lanes (fun l -> scalar_lane c b1.(l) b3.(l)) in
      let per_lane lits reqs =
        let m = Wreq.satisfied_mask planes lits in
        List.for_all
          (fun l ->
            List.for_all
              (fun (net, req) -> Req.satisfied_by scalars.(l).(net) req)
              reqs
            = (m land (1 lsl l) <> 0))
          (List.init lanes Fun.id)
      in
      Array.for_all
        (fun (p : Fault_sim.prepared) ->
          per_lane p.Fault_sim.lits p.Fault_sim.reqs
          && List.for_all
               (fun r -> per_lane (Wreq.literals [ r ]) [ r ])
               p.Fault_sim.reqs)
        faults)

(* Each prepared fault's literals decode, in order, to the pinned
   components of its requirement list: literal [(net lsl 3) lor (2k+b)]
   is component [k] of [net] pinned to [b]. *)
let prop_literals_encode_reqs =
  QCheck.Test.make ~name:"literals encode A(p)" ~count:40
    (QCheck.make ~print:(Printf.sprintf "seed=%d")
       QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let c = circuit_of_seed seed in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:15 ~n_p0:5 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      Array.for_all
        (fun (p : Fault_sim.prepared) ->
          let pinned =
            List.concat_map
              (fun (net, (r : Req.t)) ->
                List.filter_map
                  (fun (k, comp) ->
                    match comp with
                    | Req.Any -> None
                    | Req.Must b -> Some (net, k, b))
                  [ (0, r.Req.r1); (1, r.Req.r2); (2, r.Req.r3) ])
              p.Fault_sim.reqs
          in
          let decoded =
            List.map
              (fun l -> (l lsr 3, (l land 7) / 2, l land 1 = 1))
              (Array.to_list p.Fault_sim.lits)
          in
          decoded = pinned
          && Array.length p.Fault_sim.lits
             = List.fold_left
                 (fun n (_, r) -> n + Req.count_pinned r)
                 0 p.Fault_sim.reqs)
        faults)

(* The scalar reader: a whole-circuit [Cone_sim] state driven through a
   random sequence of assignments, some with X input bits, as [Atpg]
   drives it from test to test.  After each pass, [Wreq.satisfied] on
   every prepared fault's literals equals the [Req.satisfied_by] fold
   over its requirements on the same three components; so does each
   requirement alone, over its own literals, which a random state
   satisfies far more often than a whole set. *)
let prop_satisfied_matches_scalar =
  let gen =
    QCheck.Gen.(
      int_range 0 100_000 >>= fun seed ->
      let np = (circuit_of_seed seed).Circuit.num_pis in
      let step =
        oneofl [ 0; 0; 15 ] >>= fun x_pct ->
        let bit =
          int_range 0 99 >>= fun r ->
          if r < x_pct then return Bit.X else map Bit.of_bool bool
        in
        pair (array_size (return np) bit) (array_size (return np) bit)
      in
      pair (return seed) (list_size (int_range 1 8) step))
  in
  QCheck.Test.make ~name:"Wreq.satisfied = Req.satisfied_by" ~count:40
    (QCheck.make
       ~print:(fun (seed, steps) ->
         Printf.sprintf "seed=%d steps=%d" seed (List.length steps))
       gen)
    (fun (seed, steps) ->
      let c = circuit_of_seed seed in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:15 ~n_p0:5 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let sim = Cone_sim.create c in
      let s = Cone_sim.values sim in
      let agrees lits reqs =
        Wreq.satisfied s lits
        = List.for_all
            (fun (net, req) ->
              Req.satisfied_by
                (Triple.make s.(0).(net) s.(1).(net) s.(2).(net))
                req)
            reqs
      in
      List.for_all
        (fun (b1, b3) ->
          Array.iteri (fun pi v1 -> Cone_sim.set_pi sim pi ~v1 ~v3:b3.(pi)) b1;
          Cone_sim.propagate sim;
          Array.for_all
            (fun (p : Fault_sim.prepared) ->
              agrees p.Fault_sim.lits p.Fault_sim.reqs
              && List.for_all
                   (fun r -> agrees (Wreq.literals [ r ]) [ r ])
                   p.Fault_sim.reqs)
            faults)
        steps)

(* [n_Delta] the way [Req.merge] defines it: the components a
   requirement list pins on top of [acc] (one requirement per net,
   [Req.any] where none), a net listed twice merging with its first
   listing; [None] on a direct conflict. *)
let merge_count (acc : Req.t array) reqs =
  let cur = Hashtbl.create 8 in
  List.fold_left
    (fun n (net, req) ->
      match n with
      | None -> None
      | Some n -> (
        let c =
          match Hashtbl.find_opt cur net with Some r -> r | None -> acc.(net)
        in
        match Req.merge c req with
        | None -> None
        | Some m ->
          Hashtbl.replace cur net m;
          Some (n + Req.count_pinned m - Req.count_pinned c)))
    (Some 0) reqs

let opposite (r : Req.t) =
  let flip = function Req.Any -> Req.Any | Req.Must b -> Req.Must (not b) in
  { Req.r1 = flip r.Req.r1; r2 = flip r.Req.r2; r3 = flip r.Req.r3 }

(* The literal count against per-net bits equals [merge_count] over the
   requirement list, conflicts included.  The accumulated set merges
   the conditions of random faults, each only when it stays consistent,
   as an ATPG test's set grows; the candidates are every fault's own
   list, lists that repeat nets (two faults' lists concatenated, one
   list twice) and lists that contradict themselves (a requirement
   followed by its opposite on the same net).  One pair of scratch
   arrays serves every count, each under a fresh stamp, as in the
   ATPG run. *)
let prop_count_new_matches_merge =
  QCheck.Test.make ~name:"Wreq.count_new = n_Delta by Req.merge" ~count:60
    (QCheck.make
       ~print:(fun (seed, picks) ->
         Printf.sprintf "seed=%d picks=[%s]" seed
           (String.concat ";" (List.map string_of_int picks)))
       QCheck.Gen.(
         pair (int_range 0 100_000) (list_size (int_range 0 6) (int_range 0 999))))
    (fun (seed, picks) ->
      let c = circuit_of_seed seed in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:15 ~n_p0:5 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let nf = Array.length faults and nn = Circuit.num_nets c in
      QCheck.assume (nf > 0);
      let acc = Array.make nn Req.any in
      List.iter
        (fun k ->
          let reqs = faults.(k mod nf).Fault_sim.reqs in
          if merge_count acc reqs <> None then
            List.iter
              (fun (net, r) -> acc.(net) <- Option.get (Req.merge acc.(net) r))
              reqs)
        picks;
      let acc_bits = Array.map Req.bits acc in
      let seen = Array.make nn 0 and pinned = Array.make nn 0 and stamp = ref 0 in
      let agrees ?lits reqs =
        incr stamp;
        let lits =
          match lits with Some l -> l | None -> Wreq.literals reqs
        in
        let got = Wreq.count_new ~seen ~pinned ~stamp:!stamp acc_bits lits in
        match merge_count acc reqs with None -> got = -1 | Some n -> got = n
      in
      List.for_all
        (fun i ->
          let reqs = faults.(i).Fault_sim.reqs in
          let next = faults.((i + 1) mod nf).Fault_sim.reqs in
          agrees ~lits:faults.(i).Fault_sim.lits reqs
          && agrees (reqs @ next)
          && agrees (reqs @ reqs)
          &&
          match reqs with
          | (net, r) :: _ -> agrees (reqs @ [ (net, opposite r) ])
          | [] -> true)
        (List.init nf Fun.id))

(* Hand-made lists that repeat a net: a repeat merges with the first
   listing (and counts only what it adds), a contradicting repeat is a
   conflict even where the accumulated set holds nothing, and the
   accumulated bits count as pinned. *)
let test_count_new_repeats () =
  let acc = Array.make 4 0 in
  acc.(2) <- Req.bits (Req.initial false);
  let seen = Array.make 4 0 and pinned = Array.make 4 0 and stamp = ref 0 in
  let count reqs =
    incr stamp;
    Wreq.count_new ~seen ~pinned ~stamp:!stamp acc (Wreq.literals reqs)
  in
  check Alcotest.int "final then stable" 3
    (count [ (1, Req.final true); (1, Req.stable true) ]);
  check Alcotest.int "same twice" 2 (count [ (1, Req.rising); (1, Req.rising) ]);
  check Alcotest.int "repeat contradicts" (-1)
    (count [ (1, Req.rising); (3, Req.final true); (1, Req.falling) ]);
  check Alcotest.int "on top of acc" 2
    (count [ (2, Req.final false); (2, Req.stable false) ]);
  check Alcotest.int "contradicts acc" (-1) (count [ (2, Req.falling) ]);
  check Alcotest.int "nothing new" 0 (count [ (2, Req.initial false) ]);
  check Alcotest.int "no literal" 0 (count [])

(* An X component satisfies no literal, whichever value it is pinned
   to; a definite one satisfies exactly the literal of its value, and
   no literal at all is always satisfied. *)
let test_satisfied_x () =
  let values =
    [| [| Bit.X; Bit.Zero |]; [| Bit.X; Bit.One |]; [| Bit.X; Bit.Zero |] |]
  in
  let lit net k b = (net lsl 3) lor ((2 * k) + Bool.to_int b) in
  for k = 0 to 2 do
    List.iter
      (fun b ->
        check Alcotest.bool
          (Printf.sprintf "X component %d pinned to %b" k b)
          false
          (Wreq.satisfied values [| lit 0 k b |]);
        check Alcotest.bool
          (Printf.sprintf "definite component %d pinned to %b" k b)
          (Bit.equal values.(k).(1) (Bit.of_bool b))
          (Wreq.satisfied values [| lit 1 k b |]))
      [ false; true ]
  done;
  check Alcotest.bool "one X among definite literals" false
    (Wreq.satisfied values [| lit 1 0 false; lit 0 1 true; lit 1 2 false |]);
  check Alcotest.bool "a final-value requirement on an X net" false
    (Wreq.satisfied values (Wreq.literals [ (0, Req.final true) ]));
  check Alcotest.bool "no literal" true (Wreq.satisfied values [||])

(* A full pass allocates its six plane arrays and nothing per gate.  On
   s9234* (1700 gates, 1840 nets) the planes are major-heap blocks, so
   the minor words one call adds must stay below the gate count: a
   per-gate record or tuple alone would exceed it.  Simulating again
   into the same buffer, as the batch entry points do for every word
   batch, allocates nothing at all: no major words (a fresh plane array
   would be one) and no minor ones. *)
let s9234 () =
  match Profiles.find "s9234*" with
  | Some p -> Profiles.circuit p
  | None -> assert false

(* Seeded random PI words of the two patterns, every lane definite. *)
let random_pi_words c =
  let rng = Pdf_util.Rng.create 9234 in
  let word () =
    Word.init Word.lanes (fun _ ->
        if Pdf_util.Rng.bool rng then Bit.One else Bit.Zero)
  in
  let np = c.Circuit.num_pis in
  let w1 = Array.init np (fun _ -> word ()) in
  let w3 = Array.init np (fun _ -> word ()) in
  (w1, w3)

let test_simulate_allocation () =
  let c = s9234 () in
  let w1, w3 = random_pi_words c in
  let before = Gc.minor_words () in
  let planes = Wsim.simulate c ~w1 ~w3 ~lanes:Word.lanes in
  let words = Gc.minor_words () -. before in
  let gates = Circuit.num_gates c in
  if words >= float_of_int gates then
    Alcotest.failf "Wsim.simulate on %s: %.0f minor words for %d gates"
      c.Circuit.name words gates;
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  Wsim.simulate_into c planes ~lanes:40;
  let minor = Gc.minor_words () -. minor0 in
  let _, _, major1 = Gc.counters () in
  let major = major1 -. major0 in
  ignore (Sys.opaque_identity planes);
  check (Alcotest.float 0.) "major words of a reused buffer" 0. major;
  check (Alcotest.float 0.) "minor words of a reused buffer" 0. minor

(* The mask pass a batch runs over every fault allocates nothing: on
   s9234*, one [Wreq.satisfied_mask] per prepared fault against one
   simulated batch adds no minor and no major words. *)
let test_mask_allocation () =
  let c = s9234 () in
  let ts = Target_sets.build c (Delay_model.lines c) ~n_p:400 ~n_p0:40 in
  let faults = Fault_sim.prepare c ts.Target_sets.p in
  let w1, w3 = random_pi_words c in
  let planes = Wsim.simulate c ~w1 ~w3 ~lanes:Word.lanes in
  let hits = ref 0 in
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for i = 0 to Array.length faults - 1 do
    if Wreq.satisfied_mask planes faults.(i).Fault_sim.lits <> 0 then
      incr hits
  done;
  let minor = Gc.minor_words () -. minor0 in
  let _, _, major1 = Gc.counters () in
  let major = major1 -. major0 in
  ignore (Sys.opaque_identity !hits);
  check Alcotest.bool "faults prepared" true (Array.length faults > 0);
  check (Alcotest.float 0.) "major words of a mask pass" 0. major;
  check (Alcotest.float 0.) "minor words of a mask pass" 0. minor

(* ------------------------------------------------------------------ *)
(* Incremental simulation: Cone_sim vs the full pass                   *)
(* ------------------------------------------------------------------ *)

module Rng = Pdf_util.Rng

(* Drive one randomized flip sequence over a persistent [Cone_sim]
   state over the whole circuit and fail on the first divergence from
   [Two_pattern.simulate].  Step 0 installs fresh values on every PI,
   step 1 is a zero-flip no-op, later steps flip a few random PIs (v1
   only, v3 only, or both; X values included). *)
let check_flip_sequence what c ~seed ~steps =
  let rng = Rng.create seed in
  let n = c.Circuit.num_pis in
  let rand_bit () =
    if Rng.int rng 5 = 0 then Bit.X
    else if Rng.bool rng then Bit.One
    else Bit.Zero
  in
  let a1 = Array.init n (fun _ -> rand_bit ()) in
  let a3 = Array.init n (fun _ -> rand_bit ()) in
  let sim = Cone_sim.create c in
  let s = Cone_sim.values sim in
  for step = 0 to steps - 1 do
    if step >= 2 then begin
      let flips = 1 + Rng.int rng 3 in
      for _ = 1 to flips do
        let pi = Rng.int rng n in
        match Rng.int rng 3 with
        | 0 -> a1.(pi) <- rand_bit ()
        | 1 -> a3.(pi) <- rand_bit ()
        | _ ->
          a1.(pi) <- rand_bit ();
          a3.(pi) <- rand_bit ()
      done
    end;
    for pi = 0 to n - 1 do
      Cone_sim.set_pi sim pi ~v1:a1.(pi) ~v3:a3.(pi)
    done;
    Cone_sim.propagate sim;
    let scalar =
      Two_pattern.simulate c
        (Array.init n (fun pi -> { Two_pattern.b1 = a1.(pi); b3 = a3.(pi) }))
    in
    for net = 0 to Circuit.num_nets c - 1 do
      if
        not
          (Triple.equal scalar.(net)
             (Triple.make s.(0).(net) s.(1).(net) s.(2).(net)))
      then Alcotest.failf "%s: step %d net %d diverges" what step net
    done
  done

(* Fixed topology grid from tiny to a 2000-gate DAG: depth,
   reconvergence and width all drive different dirty-set shapes. *)
let inc_topologies =
  [
    ("tiny", { dag_params with Generators.num_pis = 4; num_gates = 10; window = 6 });
    ("deep", { dag_params with Generators.num_gates = 40; window = 6; restart_pct = 5 });
    ("reconv", { dag_params with Generators.num_pis = 8; num_gates = 40; reuse_pct = 30; max_fanout = 4 });
    ( "large",
      { dag_params with
        Generators.num_pis = 64;
        num_gates = 2_000;
        window = 200;
        max_fanout = 6;
        po_taps = 4 } );
  ]

let test_inc_flip_sequences () =
  List.iter
    (fun (name, params) ->
      let c = Generators.random_dag ~name ~seed:77 params in
      check_flip_sequence (name ^ "/seed 1") c ~seed:1 ~steps:10;
      check_flip_sequence (name ^ "/seed 2") c ~seed:2 ~steps:6)
    inc_topologies

(* Randomized circuits: the same flip-sequence property as a QCheck law
   over the generator grid. *)
let prop_inc_matches_full =
  QCheck.Test.make ~name:"Cone_sim = full passes" ~count:40
    (QCheck.make ~print:(Printf.sprintf "seed=%d")
       QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let c = circuit_of_seed seed in
      check_flip_sequence "random" c ~seed ~steps:8;
      true)

(* Whole enrichment runs are byte-identical at any jobs count: same
   tests, same flags, same abort counts, same provenance-ledger bytes.
   The ledger's digest is pinned to the bytes of the full-pass
   resimulation that the event-driven one replaced: a pass that missed
   a changed gate, or charged one it should not, changes them. *)
let test_enrich_jobs_identity () =
  let { Pdf_core.Job.faults; p0; p1; _ } =
    Pdf_core.Job.analyse s27 ~n_p:40 ~n_p0:10
  in
  let run ~jobs =
    let before = Pool.default_jobs () in
    Pool.set_default_jobs jobs;
    Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) @@ fun () ->
    let ledger = Pdf_obs.Ledger.create () in
    let res =
      Atpg.enrich ~ledger ~justify:Pdf_core.Justify.Sim s27 ~seed:5 ~faults
        ~p0 ~p1
    in
    (res, Pdf_obs.Ledger.to_jsonl ledger)
  in
  let r_ref, j_ref = run ~jobs:1 in
  check Alcotest.string "ledger digest" "3060bc23221dd9d4a88a942c35bba68a"
    (Digest.to_hex (Digest.string j_ref));
  let r, j = run ~jobs:4 in
  check Alcotest.string "jobs=4 ledger bytes" j_ref j;
  check Alcotest.(array bool) "jobs=4 detected" r_ref.Atpg.detected
    r.Atpg.detected;
  check Alcotest.int "jobs=4 aborts" r_ref.Atpg.primary_aborts
    r.Atpg.primary_aborts

(* ------------------------------------------------------------------ *)
(* Batch entry points against per-test scalar rows                     *)
(* ------------------------------------------------------------------ *)

let random_tests c ~n ~seed =
  let rng = Pdf_util.Rng.create seed in
  List.init n (fun _ ->
      let pat () =
        Array.init c.Circuit.num_pis (fun _ -> Pdf_util.Rng.bool rng)
      in
      Test_pair.create (pat ()) (pat ()))

let s27_workload () =
  let ts = Target_sets.build s27 (Delay_model.lines s27) ~n_p:40 ~n_p0:10 in
  let faults = Fault_sim.prepare s27 ts.Target_sets.p in
  (* Enough tests for two word batches, the second partially filled. *)
  let tests = random_tests s27 ~n:100 ~seed:42 in
  (faults, tests)

(* The scalar reference: one [detected_by_test] row per test, and their
   union. *)
let scalar_rows tests faults =
  Array.of_list
    (List.map (fun t -> Fault_sim.detected_by_test s27 t faults) tests)

let scalar_union tests faults =
  let rows = scalar_rows tests faults in
  Array.init (Array.length faults) (fun i ->
      Array.exists (fun row -> row.(i)) rows)

let test_detected_by_tests_jobs () =
  let faults, tests = s27_workload () in
  let reference = scalar_union tests faults in
  List.iter
    (fun jobs ->
      check
        Alcotest.(array bool)
        (Printf.sprintf "jobs=%d" jobs)
        reference
        (Pool.with_pool ~jobs (fun pool ->
             Fault_sim.detected_by_tests ~pool s27 tests faults)))
    [ 1; 4 ]

let test_detect_matrix_jobs () =
  let faults, tests = s27_workload () in
  let reference = scalar_rows tests faults in
  List.iter
    (fun jobs ->
      let m =
        Pool.with_pool ~jobs (fun pool ->
            Fault_sim.detect_matrix ~pool s27 tests faults)
      in
      check Alcotest.int "one row per test" (List.length tests)
        (Array.length m);
      Array.iteri
        (fun t row ->
          check
            Alcotest.(array bool)
            (Printf.sprintf "row %d jobs=%d" t jobs)
            reference.(t) row)
        m)
    [ 1; 4 ]

(* Rows of detect_matrix are exactly detected_by_test rows. *)
let test_detect_matrix_vs_single () =
  let faults, tests = s27_workload () in
  let m = Fault_sim.detect_matrix s27 tests faults in
  List.iteri
    (fun t test ->
      check
        Alcotest.(array bool)
        (Printf.sprintf "row %d" t)
        (Fault_sim.detected_by_test s27 test faults)
        m.(t))
    tests

(* Diagnosis dictionaries ride on detect_matrix; both agree with the
   per-test scalar rows, over the robust conditions and over the
   non-robust ones (all-false for a fault without them). *)
let test_dictionaries_packed_vs_scalar () =
  let faults, tests = s27_workload () in
  let strong = Diagnose.dictionary s27 tests faults in
  let weak = Diagnose.weak_dictionary s27 tests faults in
  let criterion = Pdf_faults.Robust.Non_robust in
  let weak_ids =
    Array.of_list
      (List.filter
         (fun i ->
           Option.is_some
             (Fault_sim.conditions ~criterion s27 faults.(i).Fault_sim.fault))
         (List.init (Array.length faults) Fun.id))
  in
  let weak_faults =
    Fault_sim.prepare ~criterion s27
      (List.map
         (fun i ->
           let p = faults.(i) in
           { Target_sets.fault = p.Fault_sim.fault; length = p.Fault_sim.length })
         (Array.to_list weak_ids))
  in
  check Alcotest.int "every weak fault prepared" (Array.length weak_ids)
    (Array.length weak_faults);
  List.iteri
    (fun t test ->
      check Alcotest.(array bool) "strong row"
        (Fault_sim.detected_by_test s27 test faults)
        strong.(t);
      let expect = Array.make (Array.length faults) false in
      let row = Fault_sim.detected_by_test s27 test weak_faults in
      Array.iteri (fun j i -> expect.(i) <- row.(j)) weak_ids;
      check Alcotest.(array bool) "weak row" expect weak.(t))
    tests

(* The conditions cache returns exactly what Robust.conditions computes,
   from any domain. *)
let test_conditions_cache () =
  let ts = Target_sets.build s27 (Delay_model.lines s27) ~n_p:40 ~n_p0:10 in
  let entries = ts.Target_sets.p in
  let direct =
    List.map
      (fun (e : Target_sets.entry) ->
        Pdf_faults.Robust.conditions s27 e.Target_sets.fault)
      entries
  in
  let check_all () =
    List.iter2
      (fun (e : Target_sets.entry) expect ->
        check Alcotest.bool "cached = direct" true
          (Fault_sim.conditions s27 e.Target_sets.fault = expect))
      entries direct
  in
  check_all ();
  (* Second pass hits the cache; also exercise it from pool domains. *)
  check_all ();
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.map pool
           (fun (e : Target_sets.entry) ->
             Fault_sim.conditions s27 e.Target_sets.fault)
           entries))

(* Req.intern maps the 27 requirements to 27 shared values, each equal
   to its argument; the condition cache hands out interned requirements
   only, under both criteria. *)
let test_req_intern () =
  let comps = [ Req.Any; Req.Must false; Req.Must true ] in
  let all =
    List.concat_map
      (fun r1 ->
        List.concat_map
          (fun r2 -> List.map (fun r3 -> { Req.r1; r2; r3 }) comps)
          comps)
      comps
  in
  check Alcotest.int "27 requirements" 27 (List.length all);
  List.iter
    (fun r ->
      (* A fresh copy, so [==] cannot hold by accident. *)
      let copy = Option.get (Req.of_string (Req.to_string r)) in
      let i = Req.intern r in
      check Alcotest.bool (Req.to_string r ^ ": equal") true (Req.equal i r);
      check Alcotest.bool (Req.to_string r ^ ": shared") true
        (i == Req.intern copy && i == Req.intern i))
    all;
  (* Their pinned components are shared values too. *)
  let comps = List.concat_map (fun (r : Req.t) -> [ r.Req.r1; r.Req.r2; r.Req.r3 ])
      (List.map Req.intern all) in
  List.iter
    (fun b ->
      let musts = List.filter (fun c -> c = Req.Must b) comps in
      check Alcotest.bool "Must components shared" true
        (List.for_all (fun c -> c == List.hd musts) musts))
    [ false; true ];
  let ts = Target_sets.build s27 (Delay_model.lines s27) ~n_p:40 ~n_p0:10 in
  List.iter
    (fun criterion ->
      List.iter
        (fun (e : Target_sets.entry) ->
          match Fault_sim.conditions ~criterion s27 e.Target_sets.fault with
          | None -> ()
          | Some reqs ->
            List.iter
              (fun (_, r) ->
                check Alcotest.bool "cached requirement interned" true
                  (Req.intern r == r))
              reqs)
        ts.Target_sets.p)
    Pdf_faults.Robust.[ Robust; Non_robust ]

(* batch_bounds at the word-size boundaries: 0, 1, Word.lanes - 1,
   Word.lanes and Word.lanes + 1 tests (i.e. 0, 1, 62, 63, 64). *)
let test_batch_bounds_edges () =
  check Alcotest.int "word size" 63 Word.lanes;
  let bounds n = Array.to_list (Wsim.batch_bounds n) in
  check
    Alcotest.(list (pair int int))
    "0 tests" [] (bounds 0);
  check
    Alcotest.(list (pair int int))
    "1 test" [ (0, 1) ] (bounds 1);
  check
    Alcotest.(list (pair int int))
    "62 tests" [ (0, 62) ] (bounds 62);
  check
    Alcotest.(list (pair int int))
    "63 tests" [ (0, 63) ] (bounds 63);
  check
    Alcotest.(list (pair int int))
    "64 tests"
    [ (0, 63); (63, 64) ]
    (bounds 64);
  (* Batches always cut at fixed multiples of the word size and cover
     0..n-1 without gaps. *)
  List.iter
    (fun n ->
      let bs = bounds n in
      let covered =
        List.fold_left
          (fun next (lo, hi) ->
            check Alcotest.int "contiguous" next lo;
            check Alcotest.bool "multiple of lanes" true
              (lo mod Word.lanes = 0);
            check Alcotest.bool "non-empty" true (hi > lo);
            hi)
          0 bs
      in
      check Alcotest.int "covers all" n covered)
    [ 1; 62; 63; 64; 125; 126; 127; 200 ]

(* The batch entry points agree with the scalar reference at the word
   boundaries: no test, one lane, a word but one, one full word and one
   word plus a second, one-lane batch. *)
let test_detection_at_word_boundaries () =
  let faults, all_tests = s27_workload () in
  List.iter
    (fun n ->
      let tests = List.filteri (fun i _ -> i < n) all_tests in
      check Alcotest.(array bool)
        (Printf.sprintf "flags at %d tests" n)
        (scalar_union tests faults)
        (Fault_sim.detected_by_tests s27 tests faults))
    [ 0; 1; 62; 63; 64 ]

(* One engine at every set size: each test is a lane of a fixed 63-lane
   word batch, so a sub-word set is one partly filled batch and an
   empty one none (all-false flags, no rows).  Both batch entry points
   follow the same rule. *)
let test_packed_every_size () =
  let faults, all_tests = s27_workload () in
  let batches = Pdf_obs.Metrics.counter "fault_sim.word_batches" in
  let lanes = Pdf_obs.Metrics.counter "fault_sim.lanes_used" in
  let nf = Array.length faults in
  List.iter
    (fun (what, run) ->
      List.iter
        (fun (n, want_batches) ->
          let tests = List.filteri (fun i _ -> i < n) all_tests in
          let b0 = Pdf_obs.Metrics.value batches in
          let l0 = Pdf_obs.Metrics.value lanes in
          run n tests;
          check Alcotest.int
            (Printf.sprintf "%s: word batches at %d tests" what n)
            want_batches
            (Pdf_obs.Metrics.value batches - b0);
          check Alcotest.int
            (Printf.sprintf "%s: lanes at %d tests" what n)
            n
            (Pdf_obs.Metrics.value lanes - l0))
        [ (0, 0); (1, 1); (40, 1); (62, 1); (63, 1); (64, 2) ])
    [
      ( "detected_by_tests",
        fun n tests ->
          let flags = Fault_sim.detected_by_tests s27 tests faults in
          if n = 0 then
            check Alcotest.(array bool) "no tests: all-false flags"
              (Array.make nf false) flags );
      ( "detect_matrix",
        fun n tests ->
          let rows = Fault_sim.detect_matrix s27 tests faults in
          check Alcotest.int
            (Printf.sprintf "rows at %d tests" n)
            n (Array.length rows) );
    ]

(* Over random set sizes from empty to past two words, on random
   circuits, at 1 and 3 jobs: union flags, matrix rows and the
   [fault_sim.detections] each call adds equal the per-test scalar rows
   and their detection counts. *)
let prop_batches_match_scalar_rows =
  QCheck.Test.make ~name:"batch entry points = per-test rows at any size"
    ~count:25
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d tests=%d" seed n)
       QCheck.Gen.(pair (int_range 0 100_000) (int_range 0 130)))
    (fun (seed, n) ->
      let c = circuit_of_seed seed in
      let ts = Target_sets.build c (Delay_model.lines c) ~n_p:30 ~n_p0:10 in
      let faults = Fault_sim.prepare c ts.Target_sets.p in
      let tests = random_tests c ~n ~seed in
      let rows =
        Array.of_list
          (List.map (fun t -> Fault_sim.detected_by_test c t faults) tests)
      in
      let union =
        Array.init (Array.length faults) (fun i ->
            Array.exists (fun row -> row.(i)) rows)
      in
      let row_count =
        Array.fold_left (fun acc row -> acc + Fault_sim.count row) 0 rows
      in
      let detections = Pdf_obs.Metrics.counter "fault_sim.detections" in
      let delta f =
        let d0 = Pdf_obs.Metrics.value detections in
        let r = f () in
        (r, Pdf_obs.Metrics.value detections - d0)
      in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let flags, d_flags =
                delta (fun () ->
                    Fault_sim.detected_by_tests ~pool c tests faults)
              in
              let matrix, d_matrix =
                delta (fun () -> Fault_sim.detect_matrix ~pool c tests faults)
              in
              flags = union
              && d_flags = Fault_sim.count union
              && matrix = rows && d_matrix = row_count))
        [ 1; 3 ])

let () =
  Alcotest.run "pdf_bitsim"
    [
      ( "planes",
        [
          qcheck prop_wsim_matches_scalar;
          qcheck prop_satisfied_mask_matches_scalar;
          qcheck prop_literals_encode_reqs;
          qcheck prop_satisfied_matches_scalar;
          qcheck prop_count_new_matches_merge;
          Alcotest.test_case "count_new: repeated nets" `Quick
            test_count_new_repeats;
          Alcotest.test_case "X satisfies no literal" `Quick test_satisfied_x;
          Alcotest.test_case "simulate allocates only planes" `Quick
            test_simulate_allocation;
          Alcotest.test_case "mask pass allocates nothing" `Quick
            test_mask_allocation;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "flip sequences on topology grid" `Quick
            test_inc_flip_sequences;
          qcheck prop_inc_matches_full;
          Alcotest.test_case "enrich identity across jobs" `Quick
            test_enrich_jobs_identity;
        ] );
      ( "fault_sim",
        [
          Alcotest.test_case "detected_by_tests across jobs" `Quick
            test_detected_by_tests_jobs;
          Alcotest.test_case "detect_matrix across jobs" `Quick
            test_detect_matrix_jobs;
          Alcotest.test_case "detect_matrix = per-test rows" `Quick
            test_detect_matrix_vs_single;
          Alcotest.test_case "conditions cache" `Quick test_conditions_cache;
          Alcotest.test_case "Req.intern: 27 shared values" `Quick
            test_req_intern;
          Alcotest.test_case "batch_bounds edges" `Quick
            test_batch_bounds_edges;
          Alcotest.test_case "detection at word boundaries" `Quick
            test_detection_at_word_boundaries;
          Alcotest.test_case "packed at every set size" `Quick
            test_packed_every_size;
          qcheck prop_batches_match_scalar_rows;
        ] );
      ( "atpg",
        [
          Alcotest.test_case "dictionaries packed = scalar" `Quick
            test_dictionaries_packed_vs_scalar;
        ] );
    ]
