(* enrich-sim and enrich-portfolio: one client in a closed loop running
   Atpg.enrich with the sim or the portfolio justification backend over
   sub-second profiles.  See WORKLOADS.md. *)

open Common
module Atpg = Pdf_core.Atpg
module Justify = Pdf_core.Justify

(* (profile, N_P, N_P0) at reduced scales where every job has a
   non-empty P1.  N_P=1000 with N_P0=100 must not be used: P1 comes out
   empty and the job degenerates to basic ATPG. *)
let specs = function
  | Justify.Portfolio ->
    [ ("b03", 500, 8); ("b09", 500, 8); ("s1196", 500, 8); ("s1488", 500, 8) ]
  | Justify.Sim | Justify.Podem ->
    [ ("b03", 700, 12); ("b09", 700, 12); ("s1196", 800, 12); ("s1488", 800, 16) ]

let seeds_per_circuit = 6

type job = { a : analysis; seed : int; p0 : int list; p1 : int list }

let same (r : Atpg.result) (r' : Atpg.result) =
  List.equal Test_pair.equal r.Atpg.tests r'.Atpg.tests
  && r.Atpg.detected = r'.Atpg.detected

let enrich kind j =
  Atpg.enrich ~justify:kind j.a.circuit ~seed:j.seed ~faults:j.a.faults ~p0:j.p0
    ~p1:j.p1

let run ~kind ~seed ~seconds ~trace =
  let width = match kind with Justify.Portfolio -> 2 | _ -> 1 in
  Pdf_par.Pool.set_default_jobs width;
  say "pool width: %d domain(s)" width;
  let analyses, setup_s, live_mb = setup (fun st -> List.map (fun spec -> st.step (fun () -> analyse spec)) (specs kind)) in
  List.iter
    (fun a ->
      let n = Array.length a.faults in
      say "%s: |P| %d  |P0| %d  |P1| %d" a.name n a.n0 (n - a.n0);
      if a.n0 = 0 || a.n0 = n then
        failwith (a.name ^ ": P0 or P1 is empty at this scale"))
    analyses;
  let circuits = Array.of_list analyses in
  let nc = Array.length circuits in
  let n = seeds_per_circuit * nc in
  (* Every round draws fresh job seeds from the workload seed, so the
     samples behind the tail are distinct jobs.  With one set of jobs
     repeated every round, the tail sat on the slowest one or two jobs
     of the run and followed their seeds.  Slot [i] keeps its circuit,
     round-robin, so a drift episode hits every circuit alike. *)
  let rng = Rng.create seed in
  let draw_round () =
    let seeds = draw_seeds rng n in
    Array.init n (fun i ->
        let a = circuits.(i mod nc) in
        { a; seed = seeds.(i); p0 = p0_ids a; p1 = p1_ids a })
  in
  let untraced = Array.make n [] and traced = Array.make n [] in
  let results = ref [] and first = Array.make n None in
  let attempted = ref 0 and failed = ref 0 and rounds = ref 0 in
  let w0 = allocated_words () in
  let t_start = now () in
  (* Whole rounds only, so every slot runs equally often; the traced run
     alternates traced and untraced rounds. *)
  while !rounds < (if trace then 2 else 1) || now () -. t_start < seconds do
    Tracer.enabled := trace && !rounds mod 2 = 0;
    let jobs = draw_round () in
    let times = Array.make n nan in
    Array.iteri
      (fun i j ->
        incr attempted;
        calibrate ();
        let t0 = now () in
        match Tracer.span "job.enrich" (fun () -> enrich kind j) with
        | r ->
          times.(i) <- now () -. t0;
          results := (j, r) :: !results;
          if !rounds = 0 then first.(i) <- Some (j, r)
        | exception e ->
          incr failed;
          say "job %d on %s raised %s" i j.a.name (Printexc.to_string e))
      jobs;
    keep_round times (if !Tracer.enabled then traced else untraced);
    incr rounds
  done;
  let elapsed = now () -. t_start in
  let alloc_mw = (allocated_words () -. w0) /. float_of_int !rounds /. 1e6 in
  Tracer.enabled := trace;
  say "timed phase: %d rounds of %d jobs in %.2f s" !rounds n elapsed;
  (* Output checks, from the retained results: every job's tests are
     re-graded over P, and each circuit's first job runs again and must
     give the same tests and flags. *)
  List.iter
    (fun (j, r) ->
      if Fault_sim.detected_by_tests j.a.circuit r.Atpg.tests j.a.faults
         <> r.Atpg.detected
      then begin
        incr failed;
        say "job seed %d on %s: re-graded flags differ from Atpg.result.detected"
          j.seed j.a.name
      end)
    !results;
  let firsts = List.filter_map Fun.id (Array.to_list first) in
  List.iteri
    (fun i (j, r) ->
      if i < nc then
        match enrich kind j with
        | r' when same r r' -> ()
        | _ ->
          incr failed;
          say "job seed %d on %s: a repeat gave other tests or flags" j.seed j.a.name
        | exception e ->
          incr failed;
          say "job seed %d on %s: the repeat raised %s" j.seed j.a.name
            (Printexc.to_string e))
    firsts;
  (* The digest and counts cover the first round, which every run
     completes whatever the machine's speed. *)
  let digest = Buffer.create 4096 in
  let tests = ref 0 and d0 = ref 0 and d1 = ref 0 and n0 = ref 0 and n1 = ref 0 in
  List.iter
    (fun (j, r) ->
      Buffer.add_string digest (tests_string r.Atpg.tests);
      Buffer.add_string digest (flags_string r.Atpg.detected);
      tests := !tests + List.length r.Atpg.tests;
      d0 := !d0 + Atpg.count_detected r ~ids:j.p0;
      d1 := !d1 + Atpg.count_detected r ~ids:j.p1;
      n0 := !n0 + j.a.n0;
      n1 := !n1 + (Array.length j.a.faults - j.a.n0))
    firsts;
  let p50_ms, tail_ms = latency untraced in
  let slot_median i = Stat.median (Array.of_list untraced.(i)) in
  let faults_per_s =
    Stat.geomean
      (Array.init n (fun i ->
           float_of_int (Array.length circuits.(i mod nc).faults) /. slot_median i))
  in
  say "slot medians (ms): %s"
    (String.concat " "
       (List.init n (fun i ->
            Printf.sprintf "%s=%.1f" circuits.(i mod nc).name (slot_median i *. 1e3))));
  say "digest %s" (Digest.to_hex (Digest.string (Buffer.contents digest)));
  say "first round: tests %d  p0_coverage_pct %.3f  p1_coverage_pct %.3f" !tests
    (100. *. ratio !d0 !n0) (100. *. ratio !d1 !n1);
  say "faults_per_s %.1f  fail_pct %.3f" faults_per_s
    (100. *. ratio !failed !attempted);
  let layers =
    if not trace then []
    else begin
      let traced_p50, _ = latency traced in
      let justify, sim, port = Probes.justify ~seed analyses in
      let fsim, _ =
        Probes.fault_sim (List.map (fun (j, r) -> (j.a, r.Atpg.tests)) firsts)
      in
      let request (j : job) ~seed =
        Served.body "enrich" ~circuit:j.a.name
          (Served.params ~n_p:j.a.n_p ~n_p0:j.a.n_p0 ~seed
             ~justify:(Justify.kind_name kind))
      in
      let round0 = Array.of_list (List.map fst firsts) in
      let hits = List.init nc (fun c -> request round0.(c) ~seed:round0.(c).seed) in
      let misses =
        List.init 4 (fun i -> request round0.(i mod 2) ~seed:(round0.(i).seed + 1))
      in
      (* Justification's share of a job: trials per job times the probe's
         time per trial, over the mean traced job.  Trials, not calls, are
         the unit of work: the probe's calls start from the hardest P0
         faults and cost more than a job's average call. *)
      let b = match kind with Justify.Portfolio -> port | _ -> sim in
      let trials_per_job =
        Stat.mean
          (Array.of_list
             (List.map
                (fun (_, r) -> float_of_int r.Atpg.justification_trials)
                !results))
      in
      let job_s = Stat.mean (Array.of_list (List.concat (Array.to_list traced))) in
      Probes.front_end analyses
      @ Probes.atpg (List.map (fun (j, r) -> (j.a, r)) firsts)
      @ justify @ fsim
      @ Served.probe ~hits ~misses
      @ [
          trace_overhead ~traced:traced_p50 ~untraced:p50_ms;
          metric "layer.share_pct" "%"
            (100. *. trials_per_job *. b.Probes.mean_s /. b.Probes.trials /. job_s);
        ]
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    e2e = end_to_end ~setup_s ~live_mb ~p50_ms ~tail_ms ~alloc_mw;
    layers;
  }
