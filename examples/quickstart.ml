(* Quickstart: load a circuit, pick target faults, generate an enriched
   test set, and fault-simulate it — the full pipeline in ~40 lines.

   Run with: dune exec examples/quickstart.exe *)

module Circuit = Pdf_circuit.Circuit
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Job = Pdf_core.Job
module Atpg = Pdf_core.Atpg
module Test_pair = Pdf_core.Test_pair

let () =
  (* 1. A circuit: the s27 of the paper's Figure 1 (or parse your own
     .bench file with Pdf_circuit.Bench_io.parse_file). *)
  let c = Pdf_synth.Iscas.s27 () in
  Printf.printf "circuit %s: %s\n\n" c.Circuit.name
    (Pdf_circuit.Stats.to_string (Pdf_circuit.Stats.compute c));

  (* 2. Target faults: enumerate the longest paths under the paper's
     line-counting delay model and split them into the critical set P0
     and the next-to-longest set P1, prepared for simulation with P0's
     faults first. *)
  let job = Job.analyse c ~n_p:40 ~n_p0:10 in
  let ts = job.Job.sets in
  Printf.printf "P0: %d faults on paths of length >= %d; P1: %d faults\n\n"
    (List.length ts.Target_sets.p0)
    ts.Target_sets.cutoff_length
    (List.length ts.Target_sets.p1);

  (* 3. Enriched test generation: P0 faults determine the test count,
     P1 faults ride along for free. *)
  let { Job.faults; p0; p1; _ } = job in
  let result = Atpg.enrich c ~seed:42 ~faults ~p0 ~p1 in

  Printf.printf "generated %d two-pattern tests:\n"
    (List.length result.Atpg.tests);
  List.iteri
    (fun i t -> Printf.printf "  t%-2d  %s\n" i (Test_pair.to_string t))
    result.Atpg.tests;

  (* 4. Coverage accounting. *)
  Printf.printf
    "\ndetected: %d/%d of P0, %d/%d of P0 u P1\n"
    (Atpg.count_detected result ~ids:p0)
    (List.length p0)
    (Fault_sim.count result.Atpg.detected)
    (Array.length faults)
