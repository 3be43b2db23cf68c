(* The paper's headline experiment (Tables 5 and 6 flavour) on one
   profile: generate a compact test set for P0 alone, count how many
   next-to-longest-path faults (P1) it detects *accidentally*, then run
   the enrichment procedure and show that explicitly targeting P1 as
   secondary faults detects far more of them with no extra tests.

   Run with: dune exec examples/enrichment_demo.exe [-- PROFILE] *)

module Ordering = Pdf_core.Ordering
module Atpg = Pdf_core.Atpg
module Fault_sim = Pdf_core.Fault_sim
module Target_sets = Pdf_faults.Target_sets
module Job = Pdf_core.Job

let () =
  let profile_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s641" in
  let profile =
    match Pdf_synth.Profiles.find profile_name with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown profile %s\n" profile_name;
      exit 1
  in
  let c = Pdf_synth.Profiles.circuit profile in
  let job = Job.analyse c ~n_p:1000 ~n_p0:100 in
  let { Job.sets = ts; faults; p0; p1 } = job in
  let n = Array.length faults in
  let n0 = List.length p0 in
  Printf.printf "circuit %s: |P0| = %d (length >= %d), |P1| = %d\n\n"
    profile_name n0 ts.Target_sets.cutoff_length (n - n0);

  (* Basic: target P0 only, then fault-simulate P0 u P1 under its tests. *)
  let basic =
    Atpg.basic c { Atpg.ordering = Ordering.Value_based; seed = 11 }
      ~faults:(Job.p0_faults job)
  in
  let accidental = Fault_sim.detected_by_tests c basic.Atpg.tests faults in
  let acc_p1 =
    List.fold_left (fun k i -> if accidental.(i) then k + 1 else k) 0 p1
  in
  Printf.printf
    "basic (P0 only):   %3d tests, %3d/%d of P0, accidentally %3d/%d of P1\n"
    (List.length basic.Atpg.tests)
    (Fault_sim.count basic.Atpg.detected)
    n0 acc_p1 (n - n0);

  (* Enrichment: same primaries, P1 as extra secondary targets. *)
  let enriched = Atpg.enrich c ~seed:11 ~faults ~p0 ~p1 in
  let enr_p1 =
    List.fold_left
      (fun k i -> if enriched.Atpg.detected.(i) then k + 1 else k)
      0 p1
  in
  Printf.printf
    "enriched (P0,P1):  %3d tests, %3d/%d of P0, explicitly    %3d/%d of P1\n"
    (List.length enriched.Atpg.tests)
    (Atpg.count_detected enriched ~ids:p0)
    n0 enr_p1 (n - n0);

  Printf.printf
    "\nP1 coverage improvement at (essentially) unchanged test count: %d -> %d\n"
    acc_p1 enr_p1
