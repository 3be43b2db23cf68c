(* Per-layer probes for the traced run.  Each layer is measured from
   outside, by timing direct calls to its public entry point on the
   workload's own circuits and inputs.  Layers a workload does not reach
   are probed on its inputs all the same, as that workload's control
   reading. *)

open Common
module Atpg = Pdf_core.Atpg
module Justify = Pdf_core.Justify
module Enumerate = Pdf_paths.Enumerate
module Undetectable = Pdf_faults.Undetectable
module Fault = Pdf_faults.Fault
module Pool = Pdf_par.Pool

(* Paths, the undetectable-fault filter and fault preparation, re-run on
   the workload's circuits at its budgets. *)
let front_end analyses =
  let enum_s = ref 0. and undet_s = ref 0. and prep_s = ref 0. in
  let paths = ref 0 and kept = ref 0 and total = ref 0 in
  List.iter
    (fun (a : analysis) ->
      let c = a.circuit in
      let r, dt =
        timed "paths.enumerate" (fun () ->
            Enumerate.enumerate c (Pdf_paths.Delay_model.lines c)
              ~max_paths:(a.n_p / 2))
      in
      enum_s := !enum_s +. dt;
      paths := !paths + List.length r.Enumerate.paths;
      let faults =
        List.concat_map (fun (p, _) -> Fault.both p) r.Enumerate.paths
      in
      let (k, _), dt =
        timed "faults.undetectable" (fun () -> Undetectable.filter c faults)
      in
      undet_s := !undet_s +. dt;
      kept := !kept + List.length k;
      total := !total + List.length faults;
      let _, dt =
        timed "core.prepare" (fun () -> Fault_sim.prepare c a.ts.Target_sets.p)
      in
      prep_s := !prep_s +. dt)
    analyses;
  [
    metric "circuit.build_s" "s" !build_s;
    metric "paths.enumerate_s" "s" !enum_s;
    metric "paths.paths" "count" (float_of_int !paths);
    metric "faults.undetectable_s" "s" !undet_s;
    metric "faults.kept_ratio" "ratio" (ratio !kept !total);
    metric "core.prepare_s" "s" !prep_s;
  ]

(* Per-job means of the effort fields of Atpg.enrich results. *)
let atpg (runs : (analysis * Atpg.result) list) =
  let n = float_of_int (List.length runs) in
  let sum f = List.fold_left (fun acc (a, r) -> acc +. f a r) 0. runs in
  [
    metric "core.atpg.busy_s" "s" (sum (fun _ r -> r.Atpg.runtime_s) /. n);
    metric "core.atpg.justify_runs" "count"
      (sum (fun _ r -> float_of_int r.Atpg.justification_runs) /. n);
    metric "core.atpg.justify_trials" "count"
      (sum (fun _ r -> float_of_int r.Atpg.justification_trials) /. n);
    metric "core.atpg.abort_ratio" "ratio"
      (sum (fun _ r -> float_of_int r.Atpg.primary_aborts)
      /. sum (fun a _ -> float_of_int a.n0));
  ]

type backend = {
  calls : int;
  median_us : float;
  mean_s : float;
  alloc_kw : float;  (** per call, on the calling domain *)
  trials : float;  (** per call *)
  found : int;  (** calls that found a test *)
  gave_up : int;  (** PODEM budget exhaustions *)
  wins : (string * int) list;  (** successful calls by winning member *)
}

let with_jobs n f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* One Justify.Engine backend on the P0 requirement sets, the searches a
   job's primaries start from: up to [limit] sets per circuit, at least
   one, within [budget_s] seconds in all. *)
let backend kind ~jobs ~limit ~budget_s ~seed analyses =
  with_jobs jobs @@ fun () ->
  let name = "core.justify." ^ Justify.kind_name kind in
  let t_end = now () +. budget_s in
  let times = ref [] and words = ref 0. in
  let trials = ref 0 and found = ref 0 and gave_up = ref 0 in
  let wins = Hashtbl.create 4 in
  List.iter
    (fun (a : analysis) ->
      let engine = Justify.Engine.create ~kind a.circuit in
      let rng = Rng.create seed in
      let i = ref 0 in
      while !i < min limit a.n0 && (!i = 0 || now () < t_end) do
        let reqs = a.faults.(!i).Fault_sim.reqs in
        calibrate ();
        let w0 = Gc.minor_words () in
        let r, dt = timed name (fun () -> Justify.Engine.run engine ~rng ~reqs) in
        words := !words +. (Gc.minor_words () -. w0);
        times := dt :: !times;
        if Option.is_some r then begin
          incr found;
          let w = Justify.Engine.winner engine in
          Hashtbl.replace wins w
            (1 + Option.value ~default:0 (Hashtbl.find_opt wins w))
        end;
        incr i
      done;
      trials := !trials + Justify.Engine.trials engine;
      gave_up := !gave_up + Justify.Engine.aborts engine)
    analyses;
  let slow = slowness () in
  let times = Array.map (fun t -> t /. slow) (Array.of_list !times) in
  let calls = Array.length times in
  let per_call x = x /. float_of_int calls in
  {
    calls;
    median_us = Stat.median times *. 1e6;
    mean_s = Stat.mean times;
    alloc_kw = per_call !words /. 1e3;
    trials = per_call (float_of_int !trials);
    found = !found;
    gave_up = !gave_up;
    wins = List.sort compare (Hashtbl.fold (fun w n acc -> (w, n) :: acc) wins []);
  }

(* The three backends, each at the pool width of the workload it belongs
   to (the portfolio's is enrich-portfolio's two domains).  Returns the
   metrics and the sim and portfolio backends' figures. *)
let justify ~seed analyses =
  let sim = backend Justify.Sim ~jobs:1 ~limit:64 ~budget_s:3. ~seed analyses in
  let podem =
    backend Justify.Podem ~jobs:1 ~limit:16 ~budget_s:3. ~seed analyses
  in
  let port =
    backend Justify.Portfolio ~jobs:2 ~limit:8 ~budget_s:4. ~seed analyses
  in
  List.iter
    (fun (label, b) ->
      say "justify probe %-9s %4d calls  median %9.1f us  found %4d  wins %s"
        label b.calls b.median_us b.found
        (String.concat " "
           (List.map (fun (w, n) -> Printf.sprintf "%s=%d" w n) b.wins)))
    [ ("sim", sim); ("podem", podem); ("portfolio", port) ];
  let podem_wins = Option.value ~default:0 (List.assoc_opt "podem" port.wins) in
  ( [
      metric "core.justify.call_us" "us" sim.median_us;
      metric "core.justify.alloc_kw_per_call" "kw" sim.alloc_kw;
      metric "core.justify.trials_per_call" "count" sim.trials;
      metric "core.justify.found_ratio" "ratio" (ratio sim.found sim.calls);
      metric "core.podem.call_us" "us" podem.median_us;
      metric "core.podem.gave_up_ratio" "ratio" (ratio podem.gave_up podem.calls);
      metric "core.portfolio.call_us" "us" port.median_us;
      metric "core.portfolio.win_share" "ratio" (ratio podem_wins port.found);
    ],
    sim,
    port )

(* Union grading and matrix rows of each test set against its circuit's
   P, each timed as the median of three calls.  Returns the metrics and
   the summed medians. *)
let fault_sim (cases : (analysis * Test_pair.t list) list) =
  let union = ref [] and matrix = ref [] and det = ref 0 and total = ref 0 in
  let median3 name f =
    Stat.median (Array.init 3 (fun _ -> snd (timed name f)))
  in
  List.iter
    (fun ((a : analysis), tests) ->
      let union_call () = Fault_sim.detected_by_tests a.circuit tests a.faults in
      union := median3 "core.fault_sim.union" union_call :: !union;
      matrix :=
        median3 "core.fault_sim.matrix" (fun () ->
            Fault_sim.detect_matrix a.circuit tests a.faults)
        :: !matrix;
      let flags = union_call () in
      det := !det + Fault_sim.count flags;
      total := !total + Array.length flags)
    cases;
  let ms l = Stat.median (Array.of_list l) *. 1e3 in
  ( [
      metric "core.fault_sim.union_ms" "ms" (ms !union);
      metric "core.fault_sim.matrix_ms" "ms" (ms !matrix);
      metric "core.fault_sim.detect_ratio" "ratio" (ratio !det !total);
    ],
    List.fold_left ( +. ) 0. (!union @ !matrix) )
