module Circuit = Pdf_circuit.Circuit
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Job = Pdf_core.Job
module Attrib = Pdf_obs.Attrib
module Trace = Pdf_obs.Trace
module Table = Pdf_util.Table
module Json = Pdf_obs.Json_text

(* Structural effort profile of one enrichment run (DESIGN.md §14): the
   provenance workload re-run with a {!Pdf_obs.Attrib} store attached,
   then aggregated per net, per level and as a top-K hotspot table.
   Every exported figure is semantic (engine-invariant) and integral,
   so the rendered table, the JSON report and the Perfetto counter
   track are byte-identical across --jobs values and engine
   implementations. *)

type t = {
  circuit : Circuit.t;
  job : Job.params;
  tests : int;
  faults : int;
  detected : int;
  aborts : int;
  sheet : Attrib.sheet;
}

let profile (job : Job.params) c =
  let attrib = Attrib.create ~nets:(Circuit.num_nets c) in
  let { Job.faults; p0; p1; _ } =
    Job.analyse ~criterion:job.criterion c ~n_p:job.n_p ~n_p0:job.n_p0
  in
  let result =
    Atpg.enrich ~attrib ~justify:job.justify c ~seed:job.seed ~faults ~p0 ~p1
  in
  (* A verification fault-sim pass over the generated tests: its
     detection flags must agree with the generation loop's own
     bookkeeping. *)
  let flags = Fault_sim.detected_by_tests c result.Atpg.tests faults in
  assert (flags = result.Atpg.detected);
  {
    circuit = c;
    job;
    tests = List.length result.Atpg.tests;
    faults = Array.length faults;
    detected = Fault_sim.count result.Atpg.detected;
    aborts = result.Atpg.primary_aborts;
    sheet = Attrib.snapshot attrib;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Semantic effort summed per circuit level: index l holds the total
   charged to nets at level l. *)
let per_level t =
  let c = t.circuit in
  let n = Circuit.num_nets c in
  let max_level = ref 0 in
  for net = 0 to n - 1 do
    let l = Circuit.level c net in
    if l > !max_level then max_level := l
  done;
  let eff = Array.make (!max_level + 1) 0 in
  for net = 0 to n - 1 do
    let l = Circuit.level c net in
    eff.(l) <- eff.(l) + Attrib.semantic_total t.sheet net
  done;
  eff

type hot = {
  net : int;
  name : string;
  level : int;
  trials : int;
  trial_evals : int;
  resim : int;
  conflicts : int;
  backtracks : int;
  cand_evals : int;
  total : int;
}

(* Hottest nets by semantic effort, ties broken by net id — a total
   order, so the ranking is deterministic. *)
let top ?(k = 10) t =
  let c = t.circuit in
  let s = t.sheet in
  let all = ref [] in
  for net = Circuit.num_nets c - 1 downto 0 do
    let total = Attrib.semantic_total s net in
    if total > 0 then
      all :=
        {
          net;
          name = Circuit.net_name c net;
          level = Circuit.level c net;
          trials = s.Attrib.trials.(net);
          trial_evals = s.Attrib.trial_evals.(net);
          resim = s.Attrib.resim_cone.(net);
          conflicts = s.Attrib.conflicts.(net);
          backtracks = s.Attrib.backtracks.(net);
          cand_evals = s.Attrib.cand_evals.(net);
          total;
        }
        :: !all
  done;
  let sorted =
    List.sort
      (fun a b ->
        if a.total <> b.total then Int.compare b.total a.total
        else Int.compare a.net b.net)
      !all
  in
  List.filteri (fun i _ -> i < k) sorted

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let bar ~width value max_value =
  if max_value <= 0 || value <= 0 then ""
  else String.make (max 1 (value * width / max_value)) '#'

let render ?(k = 10) t =
  let s = t.sheet in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s: effort profile (n_p %d, n_p0 %d, seed %d)\n"
    t.circuit.Circuit.name t.job.n_p t.job.n_p0 t.job.seed;
  Printf.bprintf b "%d tests, %d/%d faults detected, %d primary abort(s)\n\n"
    t.tests t.detected t.faults t.aborts;
  Printf.bprintf b
    "justification totals: %d runs, %d trials, %d trial gate evals,\n"
    s.Attrib.t_runs s.Attrib.t_trials s.Attrib.t_trial_evals;
  Printf.bprintf b
    "  %d resims (%d full-pass gate evals), %d conflicts, %d backtracks,\n"
    s.Attrib.t_resim_calls s.Attrib.t_resim_gates s.Attrib.t_conflicts
    s.Attrib.t_backtracks;
  Printf.bprintf b "  %d candidate scans (%d requirement-net touches)\n\n"
    s.Attrib.t_cand_scans
    (Array.fold_left ( + ) 0 s.Attrib.cand_evals);
  let levels = per_level t in
  let max_eff = Array.fold_left max 0 levels in
  let lvl_table =
    Table.create [ ("level", Table.Right); ("effort", Table.Right);
                   ("", Table.Left) ]
  in
  Array.iteri
    (fun l eff ->
      Table.add_row lvl_table
        [ string_of_int l; string_of_int eff; bar ~width:32 eff max_eff ])
    levels;
  Printf.bprintf b "per-level effort:\n%s\n" (Table.render lvl_table);
  let hot_table =
    Table.create
      [
        ("net", Table.Right); ("name", Table.Left); ("level", Table.Right);
        ("trials", Table.Right); ("evals", Table.Right);
        ("resim", Table.Right); ("confl", Table.Right); ("bt", Table.Right);
        ("cand", Table.Right); ("total", Table.Right);
      ]
  in
  List.iter
    (fun h ->
      Table.add_row hot_table
        [
          string_of_int h.net; h.name; string_of_int h.level;
          string_of_int h.trials; string_of_int h.trial_evals;
          string_of_int h.resim; string_of_int h.conflicts;
          string_of_int h.backtracks; string_of_int h.cand_evals;
          string_of_int h.total;
        ])
    (top ~k t);
  Printf.bprintf b "hot nets (top %d by semantic effort):\n%s" k
    (Table.render hot_table);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let schema_id = "pdf-profile-report/1"

(* Integers and quoted names only — like the ledger, the report is
   float-free so the emitted bytes carry no formatting ambiguity. *)
let to_json ?(k = 10) t =
  let s = t.sheet in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n  \"schema\": %s,\n" (Json.quote schema_id);
  Printf.bprintf b "  \"circuit\": %s,\n"
    (Json.quote t.circuit.Circuit.name);
  Printf.bprintf b
    "  \"params\": {\"n_p\": %d, \"n_p0\": %d, \"seed\": %d},\n"
    t.job.n_p t.job.n_p0 t.job.seed;
  Printf.bprintf b "  \"nets\": %d,\n  \"gates\": %d,\n"
    (Circuit.num_nets t.circuit)
    (Circuit.num_gates t.circuit);
  Printf.bprintf b
    "  \"tests\": %d,\n  \"faults\": %d,\n  \"detected\": %d,\n  \"aborts\": %d,\n"
    t.tests t.faults t.detected t.aborts;
  Printf.bprintf b
    "  \"totals\": {\"runs\": %d, \"trials\": %d, \"trial_evals\": %d, \
     \"resim_calls\": %d, \"resim_gates\": %d, \"conflicts\": %d, \
     \"backtracks\": %d, \"cand_scans\": %d},\n"
    s.Attrib.t_runs s.Attrib.t_trials s.Attrib.t_trial_evals
    s.Attrib.t_resim_calls s.Attrib.t_resim_gates s.Attrib.t_conflicts
    s.Attrib.t_backtracks s.Attrib.t_cand_scans;
  let levels = per_level t in
  Buffer.add_string b "  \"per_level\": [";
  Array.iteri
    (fun l eff ->
      if l > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"level\": %d, \"effort\": %d}" l eff)
    levels;
  Buffer.add_string b "],\n  \"hot\": [\n";
  let hots = top ~k t in
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    {\"net\": %d, \"name\": %s, \"level\": %d, \"trials\": %d, \
         \"trial_evals\": %d, \"resim_gates\": %d, \"conflicts\": %d, \
         \"backtracks\": %d, \"cand_evals\": %d, \"total\": %d}"
        h.net (Json.quote h.name) h.level h.trials h.trial_evals h.resim
        h.conflicts h.backtracks h.cand_evals h.total)
    hots;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let write_json ?k t path =
  let oc = open_out path in
  output_string oc (to_json ?k t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Perfetto counter track                                              *)
(* ------------------------------------------------------------------ *)

(* One counter sample per circuit level, at a deterministic timestamp
   (ts = level, in µs): loaded next to the span timeline, the track
   draws the per-level effort histogram.  Samples are added in level
   order, so the trace bytes stay deterministic. *)
let counter_track t collector =
  let levels = per_level t in
  Array.iteri
    (fun l eff ->
      Trace.counter collector
        ~name:(t.circuit.Circuit.name ^ " effort/level")
        ~track:0 ~ts_us:(float_of_int l) ~value:eff ())
    levels
