module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Wsim = Pdf_bitsim.Wsim
module Wreq = Pdf_bitsim.Wreq
module Fault = Pdf_faults.Fault
module Job = Pdf_core.Job
module Delay_model = Pdf_paths.Delay_model
module Fault_sim = Pdf_core.Fault_sim
module Cone_sim = Pdf_core.Cone_sim
module Req_cone = Pdf_core.Req_cone
module Test_pair = Pdf_core.Test_pair
module Atpg = Pdf_core.Atpg
module Justify = Pdf_core.Justify
module Podem = Pdf_core.Podem
module Timing = Pdf_core.Timing
module Ordering = Pdf_core.Ordering
module Ledger = Pdf_obs.Ledger
module Pool = Pdf_par.Pool
module Rng = Pdf_util.Rng

type ctx = { circuit : Circuit.t; seed : int }

type outcome = Pass | Fail of string | Skip of string

type t = { name : string; doc : string; check : ctx -> outcome }

(* ------------------------------------------------------------------ *)
(* Shared reference oracles                                             *)
(* ------------------------------------------------------------------ *)

let max_brute_force_pis = 10

let brute_force c reqs =
  let n = c.Circuit.num_pis in
  if n > max_brute_force_pis then
    invalid_arg
      (Printf.sprintf "Oracle.brute_force: %d PIs exceeds the %d-PI cap" n
         max_brute_force_pis);
  let bits v =
    let a = Array.make n false in
    for i = 0 to n - 1 do
      a.(i) <- v land (1 lsl i) <> 0
    done;
    a
  in
  let limit = 1 lsl n in
  let found = ref None in
  let v1 = ref 0 in
  while !found = None && !v1 < limit do
    let b1 = bits !v1 in
    let v3 = ref 0 in
    while !found = None && !v3 < limit do
      let t = Test_pair.create b1 (bits !v3) in
      if Test_pair.satisfies c t reqs then found := Some t;
      incr v3
    done;
    incr v1
  done;
  !found

let brute_force_satisfiable c reqs = Option.is_some (brute_force c reqs)

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let with_default_jobs jobs f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) f

let random_pattern rng n =
  let a = Array.make n false in
  for i = 0 to n - 1 do
    a.(i) <- Rng.bool rng
  done;
  a

let random_tests rng c n =
  let pis = c.Circuit.num_pis in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let v1 = random_pattern rng pis in
      let v3 = random_pattern rng pis in
      go (Test_pair.create v1 v3 :: acc) (k - 1)
  in
  go [] n

(* Small target sets keep every oracle subsecond on the generator grid
   while still exercising multi-pool enrichment.  The budget must reach
   well past the longest paths: in deep reconvergent circuits those are
   mostly robustly untestable, and a tight budget would leave every
   fault-based oracle with an empty pool (a permanent Skip). *)
let target_faults c =
  let model = Delay_model.lines c in
  (model, Job.analyse c ~n_p:240 ~n_p0:40)

(* The robust conditions of every enumerated fault without a direct
   conflict — the undetectability filter's input. *)
let fault_conditions c =
  let enumeration =
    Pdf_paths.Enumerate.enumerate c (Delay_model.lines c) ~max_paths:120
  in
  List.concat_map
    (fun (path, _) ->
      List.filter_map (Pdf_faults.Robust.conditions c) (Fault.both path))
    enumeration.Pdf_paths.Enumerate.paths
  |> Array.of_list

let describe_test c t = Printf.sprintf "%s on %s" (Test_pair.to_string t) c.Circuit.name

let bool_arrays_diff a b =
  if Array.length a <> Array.length b then Some (-1)
  else
    let d = ref None in
    Array.iteri (fun i x -> if !d = None && x <> b.(i) then d := Some i) a;
    !d

(* ------------------------------------------------------------------ *)
(* packed-sim: Wsim vs Two_pattern, lane for lane                       *)
(* ------------------------------------------------------------------ *)

let check_packed_sim { circuit = c; seed } =
  let rng = Rng.create seed in
  let n = c.Circuit.num_pis in
  let lanes = Word.lanes in
  (* Roughly one lane in five carries an X on each pattern bit, so both
     polarities of partially specified tests are exercised. *)
  let rand_bit () =
    if Rng.int rng 5 = 0 then Bit.X
    else if Rng.bool rng then Bit.One
    else Bit.Zero
  in
  let b1 = Array.init n (fun _ -> Array.make lanes Bit.X) in
  let b3 = Array.init n (fun _ -> Array.make lanes Bit.X) in
  for pi = 0 to n - 1 do
    for l = 0 to lanes - 1 do
      b1.(pi).(l) <- rand_bit ();
      b3.(pi).(l) <- rand_bit ()
    done
  done;
  let w1 = Array.map Word.of_bits b1 in
  let w3 = Array.map Word.of_bits b3 in
  let planes = Wsim.simulate c ~w1 ~w3 ~lanes in
  let violation = ref None in
  for l = 0 to lanes - 1 do
    if !violation = None then begin
      let pairs =
        Array.init n (fun pi ->
            { Two_pattern.b1 = b1.(pi).(l); b3 = b3.(pi).(l) })
      in
      let scalar = Two_pattern.simulate c pairs in
      for net = 0 to Circuit.num_nets c - 1 do
        if !violation = None then begin
          let packed = Wsim.triple planes ~net ~lane:l in
          if not (Triple.equal scalar.(net) packed) then
            violation :=
              Some
                (Printf.sprintf
                   "packed simulation diverges on %s: net %s lane %d: \
                    scalar %s, packed %s"
                   c.Circuit.name (Circuit.net_name c net) l
                   (Triple.to_string scalar.(net))
                   (Triple.to_string packed))
        end
      done
    end
  done;
  match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* inc-sim: the event-driven scalar engine vs the full-pass reference   *)
(* ------------------------------------------------------------------ *)

(* A randomized flip sequence over one persistent [Cone_sim] state over
   the whole circuit: step 0 installs random values on every PI, step
   1 flips nothing (a no-op pass), and each remaining step flips a few
   random PIs (first pattern only, second pattern only, or both — X at
   the usual one-in-five rate).  After every step the state must equal
   a from-scratch [Two_pattern.simulate] of the same inputs, net for
   net.  A pass that misses a changed input or gate leaves a stale
   value here.  The same state then serves cone trials
   ([check_cone_trials]). *)
let inc_sim_steps = 8

(* Cone trials on one reused state, the way a justification engine
   drives it: the state is retargeted to the cone of a few random
   faults' robust conditions (a target-fault cone), which must leave
   it all-X like a fresh one; then random [set_pi]/[propagate] steps on
   cone inputs, each followed by trials of random (input, first,
   second pattern) values and re-trials of every earlier key of the
   cone, so memo hits and invalidations both occur.  Every trial's
   conflict and evaluation count must be the ascending scan's
   ({!Trial_ref}); a stale memo slot returns an earlier answer. *)
let cone_sim_cones = 4
let cone_sim_steps = 6

let check_cone_trials c rng sim =
  let conds = fault_conditions c in
  let np = c.Circuit.num_pis and n = Circuit.num_nets c in
  let s = Cone_sim.values sim in
  let cone = Req_cone.create c in
  let violation = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun m -> if !violation = None then violation := Some m)
      fmt
  in
  let rand_bit () =
    match Rng.int rng 3 with 0 -> Bit.X | 1 -> Bit.Zero | _ -> Bit.One
  in
  let bit_char b = match b with Bit.Zero -> '0' | Bit.One -> '1' | Bit.X -> 'x' in
  for cone_i = 1 to (if Array.length conds = 0 then 0 else cone_sim_cones) do
    let reqs =
      List.concat
        (List.init (1 + Rng.int rng 3) (fun _ ->
             conds.(Rng.int rng (Array.length conds))))
    in
    match Req_cone.merge reqs with
    | None -> ()
    | Some merged when !violation = None ->
      Req_cone.load cone merged;
      Cone_sim.retarget sim cone;
      for net = 0 to n - 1 do
        for k = 0 to 2 do
          if not (Bit.equal s.(k).(net) Bit.X) then
            fail "retarget leaves net %s component %d at %c on %s, not X"
              (Circuit.net_name c net) k (bit_char s.(k).(net)) c.Circuit.name
        done
      done;
      let pis = Array.sub cone.Req_cone.pis 0 cone.Req_cone.n_pis in
      let a1 = Array.make np Bit.X and a3 = Array.make np Bit.X in
      let simulate () =
        Two_pattern.simulate c
          (Array.init np (fun pi -> { Two_pattern.b1 = a1.(pi); b3 = a3.(pi) }))
      in
      let keys = ref [] in
      for step = 1 to cone_sim_steps do
        if !violation = None && Array.length pis > 0 then begin
          for _ = 0 to Rng.int rng 3 do
            let pi = pis.(Rng.int rng (Array.length pis)) in
            if Rng.bool rng then a1.(pi) <- rand_bit ();
            if Rng.bool rng then a3.(pi) <- rand_bit ();
            Cone_sim.set_pi sim pi ~v1:a1.(pi) ~v3:a3.(pi)
          done;
          Cone_sim.propagate sim;
          let before = simulate () in
          let fresh =
            List.init 2 (fun _ ->
                (pis.(Rng.int rng (Array.length pis)), rand_bit (), rand_bit ()))
          in
          keys := !keys @ fresh;
          List.iter
            (fun (pi, v1, v3) ->
              let o1 = a1.(pi) and o3 = a3.(pi) in
              a1.(pi) <- v1;
              a3.(pi) <- v3;
              let after = simulate () in
              a1.(pi) <- o1;
              a3.(pi) <- o3;
              let want_net, want_evals =
                Trial_ref.scan c cone ~before ~after ~pi
              in
              let evals0 = Cone_sim.trial_evals sim
              and hits0 = Cone_sim.memo_hits sim in
              let net = Cone_sim.trial sim pi ~v1 ~v3 in
              let evals = Cone_sim.trial_evals sim - evals0 in
              if net <> want_net || evals <> want_evals then
                fail
                  "cone trial diverges from the ascending scan on %s: cone \
                   %d, step %d, input %s tried at %c%c (%s): conflict %s \
                   after %d evaluations, the scan's %s after %d"
                  c.Circuit.name cone_i step (Circuit.net_name c pi)
                  (bit_char v1) (bit_char v3)
                  (if Cone_sim.memo_hits sim > hits0 then "memo hit"
                   else "evaluated")
                  (if net < 0 then "none" else Circuit.net_name c net)
                  evals
                  (if want_net < 0 then "none" else Circuit.net_name c want_net)
                  want_evals)
            !keys
        end
      done
    | Some _ -> ()
  done;
  !violation

let check_inc_sim { circuit = c; seed } =
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
  let violation = ref None in
  let check step =
    let scalar =
      Two_pattern.simulate c
        (Array.init n (fun pi -> { Two_pattern.b1 = a1.(pi); b3 = a3.(pi) }))
    in
    for net = 0 to Circuit.num_nets c - 1 do
      if
        !violation = None
        && not
             (Triple.equal scalar.(net)
                (Triple.make s.(0).(net) s.(1).(net) s.(2).(net)))
      then
        violation :=
          Some
            (Printf.sprintf
               "incremental scalar simulation diverges from the reference \
                on %s: step %d, net %s"
               c.Circuit.name step (Circuit.net_name c net))
    done
  in
  for step = 0 to inc_sim_steps - 1 do
    if !violation = None then begin
      (* Step 0 touches every PI (fresh values are already drawn);
         step 1 flips nothing — the no-op pass must also converge. *)
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
      check step
    end
  done;
  if !violation = None then violation := check_cone_trials c rng sim;
  match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* packed-detect / packed-matrix: Fault_sim batches vs per-test rows    *)
(* ------------------------------------------------------------------ *)

(* The set size is drawn from the oracle seed, one of four shapes of
   word batches: a sub-word set (one partly filled word), exactly one
   word, a word plus a one-lane batch, or three batches, the last one
   partly filled. *)
let n_detect_tests rng =
  match Rng.int rng 4 with
  | 0 -> 1 + Rng.int rng (Word.lanes - 1)
  | 1 -> Word.lanes
  | 2 -> Word.lanes + 1
  | _ -> (2 * Word.lanes) + 1 + Rng.int rng (Word.lanes - 1)

(* The scalar reference: one [detected_by_test] row per test. *)
let scalar_rows c tests faults =
  Array.of_list
    (List.map (fun t -> Fault_sim.detected_by_test c t faults) tests)

(* The faults some row detects. *)
let rows_union rows nf =
  Array.init nf (fun i -> Array.exists (fun row -> row.(i)) rows)

let check_packed_detect { circuit = c; seed } =
  let _, { Job.faults; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let rng = Rng.create seed in
    let tests = random_tests rng c (n_detect_tests rng) in
    let packed = Fault_sim.detected_by_tests c tests faults in
    let scalar =
      rows_union (scalar_rows c tests faults) (Array.length faults)
    in
    match bool_arrays_diff packed scalar with
    | Some i ->
      Fail
        (Printf.sprintf
           "detected_by_tests diverges on %s: fault %d %s: packed %b, \
            scalar %b"
           c.Circuit.name i
           (Fault.to_string c faults.(i).Fault_sim.fault)
           packed.(i) scalar.(i))
    | None ->
      (* The reader leg: Atpg's free check and drop scan read each
         fault's literals ([Wreq.satisfied]) against one whole-circuit
         [Cone_sim] state, driven from one test to the next as [Atpg]
         drives it; every read must equal [detects_values] of the
         test's own scalar simulation. *)
      let sim = Cone_sim.create c in
      let violation = ref None in
      List.iteri
        (fun t (test : Test_pair.t) ->
          if !violation = None then begin
            for pi = 0 to c.Circuit.num_pis - 1 do
              Cone_sim.set_pi sim pi
                ~v1:(Bit.of_bool test.Test_pair.v1.(pi))
                ~v3:(Bit.of_bool test.Test_pair.v3.(pi))
            done;
            Cone_sim.propagate sim;
            let values = Test_pair.simulate c test in
            Array.iteri
              (fun i (p : Fault_sim.prepared) ->
                let want = Fault_sim.detects_values values p in
                if
                  !violation = None
                  && Wreq.satisfied (Cone_sim.values sim) p.Fault_sim.lits
                     <> want
                then
                  violation :=
                    Some
                      (Printf.sprintf
                         "Wreq.satisfied diverges on %s: test %d fault %d \
                          %s: reader %b, detects_values %b"
                         c.Circuit.name t i
                         (Fault.to_string c p.Fault_sim.fault)
                         (not want) want))
              faults
          end)
        tests;
      (match !violation with Some m -> Fail m | None -> Pass)

let check_packed_matrix { circuit = c; seed } =
  let _, { Job.faults; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let rng = Rng.create seed in
    let tests = random_tests rng c (n_detect_tests rng) in
    let packed = Fault_sim.detect_matrix c tests faults in
    let scalar = scalar_rows c tests faults in
    let violation = ref None in
    Array.iteri
      (fun t row ->
        if !violation = None then
          match bool_arrays_diff row scalar.(t) with
          | None -> ()
          | Some i ->
            violation :=
              Some
                (Printf.sprintf
                   "detect_matrix diverges on %s: test %d fault %d: packed \
                    %b, scalar %b"
                   c.Circuit.name t i row.(i) scalar.(t).(i)))
      packed;
    match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* jobs-det: pool parallelism must not change detection results         *)
(* ------------------------------------------------------------------ *)

(* The first test that alone detects some fault, by the scalar rows. *)
let sole_detector rows nf =
  let detectors = Array.make nf 0 in
  Array.iter
    (Array.iteri (fun i d -> if d then detectors.(i) <- detectors.(i) + 1))
    rows;
  let rec find t =
    if t = Array.length rows then None
    else if Array.exists2 (fun d n -> d && n = 1) rows.(t) detectors then
      Some t
    else find (t + 1)
  in
  find 0

let check_jobs_det { circuit = c; seed } =
  let _, { Job.faults; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let rng = Rng.create seed in
    let tests = random_tests rng c (n_detect_tests rng) in
    let rows = scalar_rows c tests faults in
    (* A test that alone detects a fault goes last: in the last word
       batch, and so in the last chunk at 3 jobs, a lost chunk then
       loses a detection no other chunk makes. *)
    let tests =
      match sole_detector rows (Array.length faults) with
      | None -> tests
      | Some t ->
        List.filteri (fun k _ -> k <> t) tests @ [ List.nth tests t ]
    in
    let scalar = rows_union rows (Array.length faults) in
    let seq_flags, seq_matrix =
      Pool.with_pool ~jobs:1 (fun pool ->
          ( Fault_sim.detected_by_tests ~pool c tests faults,
            Fault_sim.detect_matrix ~pool c tests faults ))
    in
    let par_flags, par_matrix =
      Pool.with_pool ~jobs:3 (fun pool ->
          ( Fault_sim.detected_by_tests ~pool c tests faults,
            Fault_sim.detect_matrix ~pool c tests faults ))
    in
    match
      (bool_arrays_diff seq_flags par_flags, bool_arrays_diff par_flags scalar)
    with
    | Some i, _ ->
      Fail
        (Printf.sprintf
           "detected_by_tests depends on jobs on %s: fault %d: 1-job %b, \
            3-job %b"
           c.Circuit.name i seq_flags.(i) par_flags.(i))
    | None, Some i ->
      Fail
        (Printf.sprintf
           "detected_by_tests at 3 jobs diverges from the scalar rows on \
            %s: fault %d: 3-job %b, scalar %b"
           c.Circuit.name i par_flags.(i) scalar.(i))
    | None, None ->
      let violation = ref None in
      Array.iteri
        (fun t row ->
          if !violation = None then
            match bool_arrays_diff row par_matrix.(t) with
            | None -> ()
            | Some i ->
              violation :=
                Some
                  (Printf.sprintf
                     "detect_matrix depends on jobs on %s: test %d fault %d"
                     c.Circuit.name t i))
        seq_matrix;
      (match !violation with Some m -> Fail m | None -> Pass)

(* ------------------------------------------------------------------ *)
(* atpg-jobs: whole enrichment runs must be identical across pool       *)
(* sizes, down to the ledger bytes                                      *)
(* ------------------------------------------------------------------ *)

let enrich_run c seed { Job.faults; p0; p1; _ } =
  let ledger = Ledger.create () in
  let res = Atpg.enrich ~ledger c ~seed ~faults ~p0 ~p1 in
  (res, Ledger.to_jsonl ledger)

let compare_runs what c (a : Atpg.result) ja (b : Atpg.result) jb =
  if List.length a.Atpg.tests <> List.length b.Atpg.tests then
    Fail
      (Printf.sprintf "%s on %s: test counts differ (%d vs %d)" what
         c.Circuit.name
         (List.length a.Atpg.tests)
         (List.length b.Atpg.tests))
  else if not (List.for_all2 Test_pair.equal a.Atpg.tests b.Atpg.tests) then
    Fail (Printf.sprintf "%s on %s: test patterns differ" what c.Circuit.name)
  else
    match bool_arrays_diff a.Atpg.detected b.Atpg.detected with
    | Some i ->
      Fail
        (Printf.sprintf "%s on %s: detection flag of fault %d differs" what
           c.Circuit.name i)
    | None ->
      if a.Atpg.primary_aborts <> b.Atpg.primary_aborts then
        Fail
          (Printf.sprintf "%s on %s: abort counts differ (%d vs %d)" what
             c.Circuit.name a.Atpg.primary_aborts b.Atpg.primary_aborts)
      else if not (String.equal ja jb) then
        Fail
          (Printf.sprintf "%s on %s: ledger JSONL bytes differ" what
             c.Circuit.name)
      else Pass

let check_atpg_jobs { circuit = c; seed } =
  let _, job = target_faults c in
  if Array.length job.Job.faults = 0 then Skip "no detectable target faults"
  else if job.Job.p0 = [] then Skip "empty P0"
  else
    let r1, j1 = with_default_jobs 1 (fun () -> enrich_run c seed job) in
    let r3, j3 = with_default_jobs 3 (fun () -> enrich_run c seed job) in
    compare_runs "1-job vs 3-job enrichment" c r1 j1 r3 j3

(* ------------------------------------------------------------------ *)
(* justify-brute: justification claims vs exhaustive enumeration        *)
(* ------------------------------------------------------------------ *)

let max_justify_pis = 8

(* Every returned test is re-simulated, at any PI count; only a proof of
   unsatisfiability needs brute force, so only that claim is limited to
   circuits of at most [max_justify_pis] PIs. *)
let check_justify_brute { circuit = c; seed } =
  let _, { Job.faults; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else begin
    let rng = Rng.create seed in
    let engine = Justify.create c in
    let small = c.Circuit.num_pis <= max_justify_pis in
    let violation = ref None in
    let n_checked = min 12 (Array.length faults) in
    for i = 0 to n_checked - 1 do
      if !violation = None then begin
        let reqs = faults.(i).Fault_sim.reqs in
        let fname = Fault.to_string c faults.(i).Fault_sim.fault in
        (match Justify.run engine ~rng ~reqs with
        | Some t when not (Test_pair.satisfies c t reqs) ->
          violation :=
            Some
              (Printf.sprintf
                 "justification returned an unsound test for %s on %s: %s"
                 fname c.Circuit.name (describe_test c t))
        | _ -> ());
        if !violation = None then
          match Justify.run_complete ~max_backtracks:2000 engine ~reqs with
          | Justify.Found t when not (Test_pair.satisfies c t reqs) ->
            violation :=
              Some
                (Printf.sprintf
                   "complete justification returned an unsound test for %s \
                    on %s"
                   fname c.Circuit.name)
          | Justify.Proved_unsatisfiable
            when small && brute_force_satisfiable c reqs ->
            violation :=
              Some
                (Printf.sprintf
                   "complete justification claimed %s unsatisfiable on %s but \
                    brute force found a test"
                   fname c.Circuit.name)
          | _ -> ()
      end
    done;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* justify-podem: the structural engine vs the simulation engine vs     *)
(* brute force, three ways                                              *)
(* ------------------------------------------------------------------ *)

(* Both complete engines make hard claims (Found / Proved_unsatisfiable)
   about the same satisfiability question, so any Found/Proved pair
   across them is a bug in one of them — no reference needed.  On small
   circuits brute-force enumeration arbitrates which.  Found tests are
   re-simulated through the independent scalar simulator; PODEM never
   re-checks its own answer, so this is what catches the
   [Podem.set_injected_bug] implication mutation.  [Gave_up] makes no
   claim and is never a violation. *)
let check_justify_podem { circuit = c; seed } =
  let _, { Job.faults; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else begin
    let pod = Podem.create c in
    let sim = Justify.create c in
    let portfolio = Justify.Engine.create ~kind:Justify.Portfolio c in
    let rng = Rng.create seed in
    let small = c.Circuit.num_pis <= max_justify_pis in
    let violation = ref None in
    let fail fmt = Printf.ksprintf (fun m -> violation := Some m) fmt in
    let n_checked = min 12 (Array.length faults) in
    for i = 0 to n_checked - 1 do
      if !violation = None then begin
        let reqs = faults.(i).Fault_sim.reqs in
        let fname = Fault.to_string c faults.(i).Fault_sim.fault in
        let pr = Podem.run pod ~reqs in
        (match pr with
        | Podem.Found t when not (Test_pair.satisfies c t reqs) ->
          fail "PODEM returned an unsound test for %s on %s: %s" fname
            c.Circuit.name (describe_test c t)
        | _ -> ());
        if !violation = None then begin
          let sr = Justify.run_complete ~max_backtracks:2000 sim ~reqs in
          match (pr, sr) with
          | Podem.Found _, Justify.Proved_unsatisfiable ->
            fail
              "PODEM found a test for %s on %s but the simulation engine \
               proved it unsatisfiable"
              fname c.Circuit.name
          | Podem.Proved_unsatisfiable, Justify.Found _ ->
            fail
              "PODEM proved %s unsatisfiable on %s but the simulation \
               engine found a test"
              fname c.Circuit.name
          | Podem.Proved_unsatisfiable, _
            when small && brute_force_satisfiable c reqs ->
            fail
              "PODEM proved %s unsatisfiable on %s but brute force found a \
               test"
              fname c.Circuit.name
          | Podem.Found _, _
            when small && not (brute_force_satisfiable c reqs) ->
            fail
              "PODEM found a test for %s on %s but brute force says the \
               requirements are unsatisfiable"
              fname c.Circuit.name
          | _ -> ()
        end;
        (* The portfolio must be as sound as its members. *)
        if !violation = None then
          match Justify.Engine.run portfolio ~rng ~reqs with
          | Some t when not (Test_pair.satisfies c t reqs) ->
            fail "portfolio returned an unsound test for %s on %s: %s" fname
              c.Circuit.name (describe_test c t)
          | _ -> ()
      end
    done;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* robust-timing: robust detection implies physical detection           *)
(* ------------------------------------------------------------------ *)

let max_timing_pairs = 80

let check_robust_timing { circuit = c; seed } =
  let model, { Job.faults; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else begin
    let period = Timing.nominal_period c model in
    (* ATPG tests detect their targets by construction, so they supply
       far more (fault, test) detection pairs than random patterns. *)
    let res =
      Atpg.basic c { Atpg.ordering = Ordering.Length_based; seed } ~faults
    in
    let rng = Rng.create seed in
    let tests = res.Atpg.tests @ random_tests rng c 8 in
    let checked = ref 0 in
    let violation = ref None in
    List.iter
      (fun t ->
        if !violation = None && !checked < max_timing_pairs then
          let triples = Test_pair.simulate c t in
          Array.iter
            (fun (f : Fault_sim.prepared) ->
              if
                !violation = None
                && !checked < max_timing_pairs
                && Fault_sim.detects_values triples f
              then begin
                incr checked;
                let slack = period - f.Fault_sim.length in
                let inject =
                  { Timing.path = f.Fault_sim.fault.Fault.path;
                    extra = slack + 1 }
                in
                if not (Timing.detects c model ~t_sample:period ~inject t)
                then
                  violation :=
                    Some
                      (Printf.sprintf
                         "robust detection of %s on %s not confirmed by \
                          timing simulation (slack %d, test %s)"
                         (Fault.to_string c f.Fault_sim.fault)
                         c.Circuit.name slack (Test_pair.to_string t))
              end)
            faults)
      tests;
    match !violation with
    | Some m -> Fail m
    | None -> if !checked = 0 then Skip "no robust detections to check" else Pass
  end

(* ------------------------------------------------------------------ *)
(* enrich-p0: a-posteriori invariants of one enrichment run             *)
(* ------------------------------------------------------------------ *)

(* A naive cross-run "enrichment covers at least what uncomp covers"
   comparison is unsound: the randomized justification draws different
   streams in the two runs, so per-fault outcomes legitimately differ.
   The machine-checkable forms of the paper's non-regression claim are
   (a) every justifiable primary stays detected, i.e. P0 coverage is at
   least |P0| - primary_aborts (aborted primaries may still be detected
   accidentally by later tests, so this is a lower bound, not an
   equality); (b) the incrementally maintained flags equal a
   from-scratch re-simulation of the final test set; and (c) the ledger
   dispositions agree with the flags.  See DESIGN.md §10. *)
let check_enrich_p0 { circuit = c; seed } =
  let _, { Job.faults; p0; p1; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let n0 = List.length p0 in
    if n0 = 0 then Skip "empty P0"
    else begin
      let ledger = Ledger.create () in
      let res = Atpg.enrich ~ledger c ~seed ~faults ~p0 ~p1 in
      let covered = Atpg.count_detected res ~ids:p0 in
      if covered < n0 - res.Atpg.primary_aborts then
        Fail
          (Printf.sprintf
             "P0 coverage invariant violated on %s: %d covered < |P0| = %d \
              minus %d abort(s)"
             c.Circuit.name covered n0 res.Atpg.primary_aborts)
      else
        let resim = Fault_sim.detected_by_tests c res.Atpg.tests faults in
        match bool_arrays_diff res.Atpg.detected resim with
        | Some i ->
          Fail
            (Printf.sprintf
               "incremental detection flags disagree with batch \
                re-simulation on %s: fault %d: incremental %b, batch %b"
               c.Circuit.name i res.Atpg.detected.(i) resim.(i))
        | None ->
          let bad = ref None in
          List.iter
            (fun r ->
              if !bad = None then
                match (Ledger.get_int r "id", Ledger.get_string r "disposition")
                with
                | Some id, Some d ->
                  let flag = res.Atpg.detected.(id) in
                  if flag <> String.equal d "detected" then
                    bad :=
                      Some
                        (Printf.sprintf
                           "ledger disposition %S of fault %d contradicts \
                            detection flag %b on %s"
                           d id flag c.Circuit.name)
                | _ -> bad := Some "fault record missing id or disposition")
            (Ledger.find ledger ~kind:"fault" (fun _ -> true));
          (match !bad with Some m -> Fail m | None -> Pass)
    end

(* ------------------------------------------------------------------ *)
(* attrib: effort conservation — per-net attribution sums equal the     *)
(* sheet totals, which equal the global justify.*/sim.inc.*/atpg.*      *)
(* metric deltas, at 1 and 3 jobs; the merged sheets are identical      *)
(* ------------------------------------------------------------------ *)

module Attrib = Pdf_obs.Attrib
module Metrics = Pdf_obs.Metrics

(* Every counter the attribution layer mirrors.  The first component
   names the metric, the second reads the matching sheet total, the
   third sums the matching per-net array (None for metrics with no
   per-net breakdown). *)
let attrib_ledger_lines (s : Attrib.sheet) =
  let sum a = Array.fold_left ( + ) 0 a in
  [
    ("justify.runs", s.Attrib.t_runs, None);
    ("justify.trials", s.Attrib.t_trials, Some (sum s.Attrib.trials));
    ("justify.trial_evals", s.Attrib.t_trial_evals,
     Some (sum s.Attrib.trial_evals));
    ("justify.resim_gates", s.Attrib.t_resim_gates,
     Some (sum s.Attrib.resim_cone));
    ("justify.conflict_hits", s.Attrib.t_conflicts,
     Some (sum s.Attrib.conflicts));
    ("justify.backtracks", s.Attrib.t_backtracks,
     Some (sum s.Attrib.backtracks));
    ("atpg.delta_evals", s.Attrib.t_cand_scans, None);
    ("sim.inc.resim_gates", s.Attrib.t_inc_resims,
     Some (sum s.Attrib.inc_resims));
  ]

let check_attrib { circuit = c; seed } =
  let _, { Job.faults; p0; p1; _ } = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else if p0 = [] then Skip "empty P0"
  else begin
    let metric name = Metrics.value (Metrics.counter name) in
    let run_with jobs =
      with_default_jobs jobs (fun () ->
          let attrib = Attrib.create ~nets:(Circuit.num_nets c) in
          let names = List.map (fun (n, _, _) -> n) (attrib_ledger_lines (Attrib.snapshot attrib)) in
          let before = List.map metric names in
          let res = Atpg.enrich ~attrib c ~seed ~faults ~p0 ~p1 in
          (* A batch fault-sim pass inside the conservation window:
             it charges no sheet, so it must move no mirrored
             counter either. *)
          ignore (Fault_sim.detected_by_tests c res.Atpg.tests faults);
          let after = List.map metric names in
          (Attrib.snapshot attrib, List.map2 ( - ) after before))
    in
    let s1, d1 = run_with 1 in
    let s3, d3 = run_with 3 in
    let violation = ref None in
    let check_run jobs (s : Attrib.sheet) deltas =
      List.iter2
        (fun (name, total, per_net) delta ->
          if !violation = None then
            if total <> delta then
              violation :=
                Some
                  (Printf.sprintf
                     "effort not conserved on %s (%d jobs): sheet total \
                      %d <> %s delta %d"
                     c.Circuit.name jobs total name delta)
            else
              match per_net with
              | Some sum when sum <> total ->
                violation :=
                  Some
                    (Printf.sprintf
                       "per-net attribution of %s does not sum to its \
                        total on %s (%d jobs): %d <> %d"
                       name c.Circuit.name jobs sum total)
              | _ -> ())
        (attrib_ledger_lines s) deltas
    in
    check_run 1 s1 d1;
    check_run 3 s3 d3;
    if !violation = None then begin
      (* Merged sheets must be jobs-invariant, the engine-variant
         [inc_resims] included: every sheet is charged by one run on
         one domain. *)
      let arrays (s : Attrib.sheet) =
        [ s.Attrib.trials; s.Attrib.trial_evals; s.Attrib.resim_cone;
          s.Attrib.conflicts; s.Attrib.backtracks; s.Attrib.cand_evals;
          s.Attrib.inc_resims ]
      in
      List.iter2
        (fun a b ->
          if !violation = None && a <> b then
            violation :=
              Some
                (Printf.sprintf
                   "merged attribution depends on the pool size on %s"
                   c.Circuit.name))
        (arrays s1) (arrays s3)
    end;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* implication: the event-driven engine vs the reference sweep          *)
(* ------------------------------------------------------------------ *)

module Implication = Pdf_sim.Implication

let m_impl_sets = Metrics.counter "check.implication.sets"
let m_impl_conflicts = Metrics.counter "check.implication.conflicts"
let m_impl_extensions = Metrics.counter "check.implication.extensions"

let implication_unions = 400

(* A union's parts: 2–4 draws from [pool], repeats allowed. *)
let draw_union rng pool =
  List.init (2 + Rng.int rng 3) (fun _ ->
      pool.(Rng.int rng (Array.length pool)))

(* The condition sets are the robust conditions of every enumerated fault
   — the undetectability filter's input — and random unions of 2–4 of
   them, drawn from the faults whose own set is consistent so that not
   every union conflicts.  Each set is checked five ways against the
   sweep: [infer] must give the same values, or the same conflicting
   [net] and [component] (the filter writes both into the ledger); one
   state, reused across all sets and reset before each, must give the
   same conflict for a single fault's set, as the filter uses it;
   extending that state part by part must give the sweep's values for a
   consistent union and a conflict for a conflicting one; undoing it to
   a mark taken after a consistent first part must give the sweep's
   values for that part, and extending it again the union's answer
   once more (PODEM's mark/undo); and a second reused state restricted
   to the union's requirement cone must give the sweep's verdict, its
   values on every cone net and X elsewhere (PODEM's restriction). *)
let check_implication { circuit = c; seed } =
  let conds = fault_conditions c in
  if Array.length conds = 0 then Skip "no fault without a direct conflict"
  else begin
    let rng = Rng.create seed in
    let st = Implication.create c in
    let cone = Req_cone.create c in
    let restricted = Implication.create ~within:cone.Req_cone.in_cone c in
    let violation = ref None in
    let fail fmt = Printf.ksprintf (fun m -> violation := Some m) fmt in
    let describe = function
      | None -> "consistent"
      | Some (net, component) ->
        Printf.sprintf "conflict on %s component %d" (Circuit.net_name c net)
          component
    in
    let check_values what (want : Triple.t array) read =
      Array.iteri
        (fun net w ->
          if !violation = None && not (Triple.equal w (read net)) then
            fail "%s on %s: net %s is %s, the sweep says %s" what
              c.Circuit.name (Circuit.net_name c net)
              (Triple.to_string (read net)) (Triple.to_string w))
        want
    in
    let state_values st net =
      Triple.make
        (Implication.value st ~component:1 net)
        (Implication.value st ~component:2 net)
        (Implication.value st ~component:3 net)
    in
    let extend_parts st parts =
      List.fold_left
        (fun acc part ->
          match acc with
          | Some _ -> acc
          | None ->
            Option.map
              (fun { Implication.net; component } -> (net, component))
              (Implication.extend st part))
        None parts
    in
    (* Returns whether the set is consistent. *)
    let check_set what parts =
      Metrics.incr m_impl_sets;
      let reqs = List.concat parts in
      let want = Implication_ref.infer c reqs in
      let want_conflict =
        match want with
        | Implication_ref.Consistent _ -> None
        | Implication_ref.Conflict { net; component } -> Some (net, component)
      in
      (match Implication.infer c reqs with
      | Implication.Consistent g -> (
        match want with
        | Implication_ref.Consistent w ->
          check_values ("implication of " ^ what) w (Array.get g)
        | Implication_ref.Conflict _ ->
          fail "implication of %s on %s is consistent, the sweep says %s"
            what c.Circuit.name (describe want_conflict))
      | Implication.Conflict { net; component } ->
        if want_conflict = Some (net, component) then
          Metrics.incr m_impl_conflicts
        else
          fail "implication of %s on %s: %s, the sweep says %s" what
            c.Circuit.name
            (describe (Some (net, component)))
            (describe want_conflict));
      (* The set's answer from [st]: the sweep's values, or a
         conflict. *)
      let check_extended how conflict =
        match want with
        | Implication_ref.Conflict _ ->
          if conflict = None then
            fail "%s %s on %s finds no conflict, the sweep says %s" how
              what c.Circuit.name (describe want_conflict)
        | Implication_ref.Consistent w ->
          if conflict <> None then
            fail "%s %s on %s: %s, the sweep is consistent" how what
              c.Circuit.name (describe conflict)
          else check_values (how ^ " " ^ what) w (state_values st)
      in
      if !violation = None then begin
        Implication.reset st;
        match parts with
        | [] -> ()
        | first :: rest -> (
          let conflict = extend_parts st [ first ] in
          let mark = Implication.mark st in
          let conflict =
            match conflict with Some _ -> conflict | None -> extend_parts st rest
          in
          if rest <> [] && conflict = None && want_conflict = None then
            Metrics.incr m_impl_extensions;
          check_extended "extending part by part" conflict;
          if
            !violation = None && rest = [] && want_conflict <> None
            && conflict <> want_conflict
          then
            fail "the reused state for %s on %s: %s, the sweep says %s" what
              c.Circuit.name (describe conflict) (describe want_conflict);
          (* The undo leg: back to the consistent first part. *)
          if !violation = None && rest <> [] then
            match Implication_ref.infer c first with
            | Implication_ref.Conflict _ -> ()
            | Implication_ref.Consistent w ->
              Implication.undo st mark;
              if Implication.failed st <> None then
                fail "undo to a mark of %s on %s keeps a conflict" what
                  c.Circuit.name
              else begin
                check_values ("undoing to the first part of " ^ what) w
                  (state_values st);
                if !violation = None then
                  check_extended "extending again after an undo"
                    (extend_parts st rest)
              end)
      end;
      (* The restriction leg. *)
      (if !violation = None then
         match Req_cone.merge reqs with
         | None -> ()
         | Some merged -> (
           Implication.reset restricted;
           Req_cone.load cone merged;
           let conflict = extend_parts restricted parts in
           match (want, conflict) with
           | Implication_ref.Conflict _, Some _ -> ()
           | Implication_ref.Consistent w, None ->
             check_values ("the cone-restricted state for " ^ what)
               (Array.mapi
                  (fun net t ->
                    if cone.Req_cone.in_cone.(net) then t
                    else Triple.make Bit.X Bit.X Bit.X)
                  w)
               (state_values restricted)
           | Implication_ref.Conflict _, None ->
             fail "the cone-restricted state for %s on %s is consistent, \
                   the sweep says %s"
               what c.Circuit.name (describe want_conflict)
           | Implication_ref.Consistent _, Some _ ->
             fail "the cone-restricted state for %s on %s: %s, the sweep is \
                   consistent"
               what c.Circuit.name (describe conflict)));
      want_conflict = None
    in
    let consistent =
      List.filter
        (fun i ->
          !violation = None
          && check_set (Printf.sprintf "fault %d's conditions" i) [ conds.(i) ])
        (List.init (Array.length conds) Fun.id)
      |> Array.of_list
    in
    let pool =
      if Array.length consistent = 0 then Array.init (Array.length conds) Fun.id
      else consistent
    in
    for u = 1 to implication_unions do
      if !violation = None then begin
        let picks = draw_union rng pool in
        ignore
          (check_set
             (Printf.sprintf "union %d (faults %s)" u
                (String.concat "+" (List.map string_of_int picks)))
             (List.map (fun i -> conds.(i)) picks)
            : bool)
      end
    done;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* portfolio: the escalating engine vs running every member             *)
(* ------------------------------------------------------------------ *)

let m_pf_sets = Metrics.counter "check.portfolio.sets"
let m_pf_found = Metrics.counter "check.portfolio.found"

let portfolio_unions = 100

(* The requirement sets are drawn like the implication oracle's: every
   enumerated fault's robust conditions, and unions of 2–4 of those
   whose own set implies no conflict.  Many unions cannot be satisfied,
   which is where the engine stops at PODEM's proof instead of running
   the simulation members.  On each set the engine must return the
   reference's test and winner; both draw once per call from generators
   seeded alike, so the member seeds agree too. *)
let check_portfolio { circuit = c; seed } =
  let conds = fault_conditions c in
  if Array.length conds = 0 then Skip "no fault without a direct conflict"
  else begin
    let rng = Rng.create seed in
    let engine = Justify.Engine.create ~kind:Justify.Portfolio c in
    let reference = Portfolio_ref.create c in
    let engine_rng = Rng.create (seed + 1)
    and reference_rng = Rng.create (seed + 1) in
    let violation = ref None in
    let describe = function
      | None -> "no test"
      | Some (t, winner) ->
        Printf.sprintf "%s from %s" (Test_pair.to_string t) winner
    in
    let check_set what reqs =
      if !violation = None then begin
        Metrics.incr m_pf_sets;
        let got =
          Option.map
            (fun t -> (t, Justify.Engine.winner engine))
            (Justify.Engine.run engine ~rng:engine_rng ~reqs)
        in
        let want = Portfolio_ref.run reference ~rng:reference_rng ~reqs in
        match (got, want) with
        | None, None -> ()
        | Some (t, w), Some (t', w')
          when Test_pair.equal t t' && String.equal w w' ->
          Metrics.incr m_pf_found
        | _ ->
          violation :=
            Some
              (Printf.sprintf
                 "the portfolio on %s of %s returns %s; running every member \
                  returns %s"
                 what c.Circuit.name (describe got) (describe want))
      end
    in
    Array.iteri
      (fun i reqs -> check_set (Printf.sprintf "fault %d's conditions" i) reqs)
      conds;
    let consistent =
      List.filter
        (fun i -> Implication.consistent c conds.(i))
        (List.init (Array.length conds) Fun.id)
      |> Array.of_list
    in
    let pool =
      if Array.length consistent = 0 then Array.init (Array.length conds) Fun.id
      else consistent
    in
    for u = 1 to portfolio_unions do
      let picks = draw_union rng pool in
      check_set
        (Printf.sprintf "union %d (faults %s)" u
           (String.concat "+" (List.map string_of_int picks)))
        (List.concat_map (fun i -> conds.(i)) picks)
    done;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* undetectable: the shared filter vs the per-fault pass                *)
(* ------------------------------------------------------------------ *)

module Undetectable = Pdf_faults.Undetectable
module Robust = Pdf_faults.Robust

(* The undetectability filter shares the implication work of faults
   whose paths end alike; its reference classifies each fault from an
   empty state.  On the enumerated faults in enumeration order, and on
   a shuffle of them with repeats, under both criteria, the two must
   keep the same faults in the same order, with the same stats and —
   the filter's records take each conflict's location from the
   per-fault pass — the same ledger records; without a ledger too,
   where the stats' split comes from the filter's own direct-clash
   check. *)
let check_undetectable { circuit = c; seed } =
  let enumeration =
    Pdf_paths.Enumerate.enumerate c (Delay_model.lines c) ~max_paths:120
  in
  let faults =
    List.concat_map (fun (path, _) -> Fault.both path)
      enumeration.Pdf_paths.Enumerate.paths
  in
  if faults = [] then Skip "no path to a primary output"
  else begin
    let rng = Rng.create seed in
    let a = Array.of_list faults in
    let n = Array.length a in
    let shuffled =
      faults @ List.init (n / 4) (fun _ -> a.(Rng.int rng n))
      |> List.map (fun f -> (Rng.int rng max_int, f))
      |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
      |> List.map snd
    in
    let differ what criterion faults =
      let where how =
        Printf.sprintf "%s, %s%s on %s" what
          (match criterion with
          | Robust.Robust -> "robust"
          | Robust.Non_robust -> "non-robust")
          how c.Circuit.name
      in
      let ref_ledger = Ledger.create () and ledger = Ledger.create () in
      let want, want_stats =
        Undetectable.per_fault ~criterion ~ledger:ref_ledger c faults
      in
      let stats_string (s : Undetectable.stats) =
        Printf.sprintf "kept %d, direct %d, implication %d" s.Undetectable.kept
          s.Undetectable.direct_conflicts s.Undetectable.implication_conflicts
      in
      let missing l from =
        List.find_opt (fun f -> not (List.exists (Fault.equal f) from)) l
      in
      let check_run how (got, stats) =
        match (missing want got, missing got want) with
        | Some f, _ ->
          Some
            (Printf.sprintf "%s: the filter eliminates %s, the per-fault pass \
                             keeps it" (where how) (Fault.to_string c f))
        | None, Some f ->
          Some
            (Printf.sprintf "%s: the filter keeps %s, the per-fault pass \
                             eliminates it" (where how) (Fault.to_string c f))
        | None, None when not (List.equal Fault.equal want got) ->
          Some (where how ^ ": the kept faults are out of input order")
        | None, None when stats <> want_stats ->
          Some
            (Printf.sprintf "%s: stats %s, the per-fault pass's %s" (where how)
               (stats_string stats) (stats_string want_stats))
        | None, None -> None
      in
      let rec first_record i = function
        | x :: xs, y :: ys when String.equal x y -> first_record (i + 1) (xs, ys)
        | x :: _, y :: _ ->
          Some
            (Printf.sprintf "%s: ledger record %d is %s, the per-fault pass's \
                             %s" (where "") i x y)
        | [], [] -> None
        | _ ->
          Some
            (Printf.sprintf "%s: %d ledger records, the per-fault pass's %d"
               (where "") (Ledger.size ledger) (Ledger.size ref_ledger))
      in
      let lines l = String.split_on_char '\n' (Ledger.to_jsonl l) in
      match
        List.find_map
          (fun (how, run) -> check_run how run)
          [
            (" with a ledger", Undetectable.filter ~criterion ~ledger c faults);
            (" without a ledger", Undetectable.filter ~criterion c faults);
          ]
      with
      | Some _ as v -> v
      | None -> first_record 0 (lines ledger, lines ref_ledger)
    in
    let cases =
      List.concat_map
        (fun criterion ->
          [
            ("enumeration order", criterion, faults);
            ("shuffled with repeats", criterion, shuffled);
          ])
        [ Robust.Robust; Robust.Non_robust ]
    in
    match
      List.find_map
        (fun (what, criterion, faults) -> differ what criterion faults)
        cases
    with
    | Some m -> Fail m
    | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "packed-sim";
      doc = "bit-parallel simulation agrees with the scalar reference";
      check = check_packed_sim };
    { name = "inc-sim";
      doc = "event-driven scalar simulation equals a full pass after any \
             flip sequence, and every cone trial the ascending scan";
      check = check_inc_sim };
    { name = "packed-detect";
      doc = "detected_by_tests flags are the union of per-test scalar rows, \
             and every Wreq.satisfied read of a test driven through one \
             Cone_sim state equals detects_values";
      check = check_packed_detect };
    { name = "packed-matrix";
      doc = "detect_matrix rows are the per-test scalar rows";
      check = check_packed_matrix };
    { name = "jobs-det";
      doc = "detection results are independent of the pool size";
      check = check_jobs_det };
    { name = "atpg-jobs";
      doc = "enrichment is identical under 1 and 3 jobs, ledger included";
      check = check_atpg_jobs };
    { name = "justify-brute";
      doc = "justification claims agree with brute-force enumeration";
      check = check_justify_brute };
    { name = "justify-podem";
      doc = "PODEM, simulation-based and brute-force justification agree; \
             portfolio answers re-simulate";
      check = check_justify_podem };
    { name = "robust-timing";
      doc = "robust detection implies event-driven timing detection";
      check = check_robust_timing };
    { name = "enrich-p0";
      doc = "P0 coverage, detection flags and ledger dispositions cohere";
      check = check_enrich_p0 };
    { name = "attrib";
      doc = "per-net effort attribution is conserved against the global \
             counters and jobs-invariant";
      check = check_attrib };
    { name = "implication";
      doc = "event-driven implication reaches the reference sweep's values \
             and first conflict, also through reset, extension, undo and \
             a cone restriction";
      check = check_implication };
    { name = "portfolio";
      doc = "the escalating portfolio returns the test and winner of \
             running every member to completion";
      check = check_portfolio };
    { name = "undetectable";
      doc = "the shared undetectability filter keeps the faults, stats \
             and ledger records of classifying each fault on its own";
      check = check_undetectable };
  ]

let find name = List.find_opt (fun o -> String.equal o.name name) all

let names () = List.map (fun o -> o.name) all

let run o ctx =
  try o.check ctx
  with e ->
    Fail
      (Printf.sprintf "oracle %s raised %s on %s" o.name
         (Printexc.to_string e) ctx.circuit.Circuit.name)
