module Circuit = Pdf_circuit.Circuit
module Bench_io = Pdf_circuit.Bench_io
module Generators = Pdf_synth.Generators
module Ledger = Pdf_obs.Ledger
module Metrics = Pdf_obs.Metrics
module Rng = Pdf_util.Rng

type profile = {
  profile_name : string;
  grid : Generators.dag_params list;
  xor_pct : int;
}

(* The grid spans the topology axes the oracles are sensitive to: depth
   (small windows), width (large windows, shallow logic), reconvergence
   (heavy reuse), and 3-input gates (the packed-simulation mutation hook
   only fires on >2-input AND/NAND gates). *)
let base =
  {
    Generators.num_pis = 6;
    num_gates = 30;
    window = 12;
    max_fanout = 3;
    reuse_pct = 10;
    restart_pct = 10;
    fanin3_pct = 20;
    inverter_pct = 25;
    po_taps = 1;
  }

let tiny =
  {
    profile_name = "tiny";
    grid =
      [
        { base with Generators.num_pis = 4; num_gates = 10; window = 6 };
        { base with Generators.num_pis = 5; num_gates = 14; window = 8 };
        { base with Generators.num_pis = 6; num_gates = 18; window = 8 };
      ];
    xor_pct = 0;
  }

(* Depth is capped near the robust-testability frontier: path length ~20
   already leaves only about half the circuits with any robustly
   testable fault among the 240 longest (the deeper the path, the more
   side-input stability conditions must hold simultaneously), and far
   deeper circuits would make every fault-based oracle skip forever. *)
let deep =
  {
    profile_name = "deep";
    grid =
      [
        { base with Generators.num_gates = 30; window = 5; restart_pct = 5 };
        { base with Generators.num_gates = 35; window = 6; restart_pct = 5 };
      ];
    xor_pct = 0;
  }

let wide =
  {
    profile_name = "wide";
    grid =
      [
        {
          base with
          Generators.num_pis = 12;
          num_gates = 50;
          window = 40;
          restart_pct = 40;
        };
        {
          base with
          Generators.num_pis = 16;
          num_gates = 70;
          window = 60;
          restart_pct = 50;
          po_taps = 3;
        };
      ];
    xor_pct = 0;
  }

let reconv =
  {
    profile_name = "reconv";
    grid =
      [
        { base with Generators.reuse_pct = 30; max_fanout = 4 };
        {
          base with
          Generators.num_pis = 8;
          num_gates = 40;
          reuse_pct = 30;
          max_fanout = 4;
          po_taps = 2;
        };
      ];
    xor_pct = 0;
  }

let fanin3 =
  {
    profile_name = "fanin3";
    grid =
      [
        {
          base with
          Generators.num_gates = 22;
          window = 10;
          fanin3_pct = 60;
          inverter_pct = 10;
        };
        {
          base with
          Generators.num_pis = 8;
          fanin3_pct = 60;
          inverter_pct = 10;
        };
      ];
    xor_pct = 0;
  }

(* Incremental-simulation stress (DESIGN.md §13): bigger, bushier DAGs
   where one flipped input's fanout cone is a small fraction of the
   netlist — the regime Cone_sim's event-driven passes optimize, and
   where a stale queue entry would go unnoticed on the tiny grids
   above.  Sized
   for the nightly time-budgeted campaign, deliberately not part of
   [default_profile]: the fault-based oracles take seconds per round
   at this scale. *)
let scale =
  {
    profile_name = "scale";
    grid =
      [
        {
          base with
          Generators.num_pis = 48;
          num_gates = 600;
          window = 300;
          restart_pct = 30;
          po_taps = 4;
        };
        {
          base with
          Generators.num_pis = 96;
          num_gates = 1_500;
          window = 800;
          max_fanout = 4;
          restart_pct = 30;
          po_taps = 4;
        };
      ];
    xor_pct = 0;
  }

(* XOR/XNOR gates, which the other profiles never draw: a third of the
   logic gates, on the default grid's small, deep and reconvergent
   shapes.  XOR has no controlling value, so its forward and backward
   implication rules and its simulation differ from every other kind's
   (DESIGN.md §5.1).  Not part of [default_profile], whose campaigns
   draw no XOR share. *)
let xor =
  {
    profile_name = "xor";
    grid = [ base; List.hd deep.grid; List.hd reconv.grid; List.nth tiny.grid 2 ];
    xor_pct = 33;
  }

let default_profile =
  {
    profile_name = "default";
    grid = tiny.grid @ deep.grid @ wide.grid @ reconv.grid @ fanin3.grid;
    xor_pct = 0;
  }

let profiles = [ default_profile; tiny; deep; wide; reconv; fanin3; xor; scale ]

let profile_of_name n =
  List.find_opt (fun p -> String.equal p.profile_name n) profiles

type config = {
  seed : int;
  rounds : int;
  profile : profile;
  time_budget_s : float option;
  out_dir : string;
  emit : bool;
  max_violations : int;
  max_shrink_attempts : int;
  oracles : string list;
}

let default_config =
  {
    seed = 0;
    rounds = 50;
    profile = default_profile;
    time_budget_s = None;
    out_dir = "_fuzz";
    emit = true;
    max_violations = 5;
    max_shrink_attempts = 300;
    oracles = [];
  }

(* An unknown oracle name is a configuration error, not an empty
   campaign: a CI step fuzzing a misspelt oracle would silently check
   nothing. *)
let selected_oracles cfg =
  match cfg.oracles with
  | [] -> Oracle.all
  | names ->
    List.map
      (fun n ->
        match Oracle.find n with
        | Some o -> o
        | None -> invalid_arg (Printf.sprintf "Fuzz.run: unknown oracle %S" n))
      names

type violation = {
  round : int;
  oracle : string;
  circuit_seed : int;
  oracle_seed : int;
  message : string;
  circuit : Circuit.t;
  shrunk : Circuit.t;
  files : (string * string) option;
}

type oracle_tally = { oracle_name : string; passed : int; skipped : int }

type summary = {
  rounds_run : int;
  checks : int;
  per_oracle : oracle_tally list;
  violations : violation list;
  elapsed_s : float;
}

let totals s =
  List.fold_left
    (fun (p, k) t -> (p + t.passed, k + t.skipped))
    (0, 0) s.per_oracle

let idle_oracles s =
  List.filter_map
    (fun t -> if t.passed = 0 then Some t.oracle_name else None)
    s.per_oracle

let m_rounds = Metrics.counter "fuzz.rounds"

let m_checks = Metrics.counter "fuzz.checks"

let m_skips = Metrics.counter "fuzz.skips"

let m_violations = Metrics.counter "fuzz.violations"

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

(* One reproducer: the shrunk circuit as .bench plus a replayable
   key/value sidecar.  Paths in the sidecar are relative to its own
   directory so the pair can be moved or attached to a CI artifact. *)
let emit_reproducer cfg (v : violation) =
  ensure_dir cfg.out_dir;
  let stem = Printf.sprintf "%s-r%d" v.oracle v.round in
  let bench_name = stem ^ ".bench" in
  let bench_path = Filename.concat cfg.out_dir bench_name in
  let repro_path = Filename.concat cfg.out_dir (stem ^ ".repro") in
  write_file bench_path (Bench_io.to_string v.shrunk);
  write_file repro_path
    (String.concat "\n"
       [
         "# pdf_check reproducer (see DESIGN.md \xc2\xa710)";
         Printf.sprintf "oracle: %s" v.oracle;
         Printf.sprintf "seed: %d" v.oracle_seed;
         Printf.sprintf "bench: %s" bench_name;
         Printf.sprintf "message: %s" (first_line v.message);
         Printf.sprintf "# replay with: pdfatpg fuzz --replay %s" repro_path;
         "";
       ]);
  (bench_path, repro_path)

let run ?ledger cfg =
  let t0 = Unix.gettimeofday () in
  let master = Rng.create cfg.seed in
  let grid_len = List.length cfg.profile.grid in
  if grid_len = 0 then invalid_arg "Fuzz.run: empty profile grid";
  let oracles = selected_oracles cfg in
  Option.iter
    (fun l ->
      Ledger.record l ~kind:"fuzz_run"
        [
          ("seed", Ledger.I cfg.seed);
          ("rounds", Ledger.I cfg.rounds);
          ("profile", Ledger.S cfg.profile.profile_name);
          ("oracles",
           Ledger.L (List.map (fun (o : Oracle.t) -> Ledger.S o.Oracle.name) oracles));
        ])
    ledger;
  let checks = ref 0 in
  let n_oracles = List.length oracles in
  let passed = Array.make n_oracles 0 and skipped = Array.make n_oracles 0 in
  let violations = ref [] in
  let rounds_run = ref 0 in
  let stop = ref false in
  let r = ref 0 in
  while (not !stop) && !r < cfg.rounds do
    (* Draw both seeds unconditionally so the stream never depends on
       the outcome of previous rounds. *)
    let circuit_seed = Rng.int master 0x3FFFFFFF in
    let oracle_seed = Rng.int master 0x3FFFFFFF in
    let budget_left =
      match cfg.time_budget_s with
      | None -> true
      | Some b -> Unix.gettimeofday () -. t0 < b
    in
    if not budget_left then stop := true
    else begin
      incr rounds_run;
      Metrics.incr m_rounds;
      let params = List.nth cfg.profile.grid (!r mod grid_len) in
      let circuit =
        Generators.random_dag ~xor_pct:cfg.profile.xor_pct
          ~name:(Printf.sprintf "fuzz_r%d" !r)
          ~seed:circuit_seed params
      in
      Option.iter
        (fun l ->
          Ledger.record l ~kind:"fuzz_round"
            [
              ("round", Ledger.I !r);
              ("circuit_seed", Ledger.I circuit_seed);
              ("pis", Ledger.I circuit.Circuit.num_pis);
              ("gates", Ledger.I (Circuit.num_gates circuit));
            ])
        ledger;
      List.iteri
        (fun i (o : Oracle.t) ->
          if not !stop then begin
            incr checks;
            Metrics.incr m_checks;
            let seed = oracle_seed + i in
            match Oracle.run o { Oracle.circuit; seed } with
            | Oracle.Pass -> passed.(i) <- passed.(i) + 1
            | Oracle.Skip _ ->
              skipped.(i) <- skipped.(i) + 1;
              Metrics.incr m_skips
            | Oracle.Fail message ->
              Metrics.incr m_violations;
              let prop c =
                match Oracle.run o { Oracle.circuit = c; seed } with
                | Oracle.Fail _ -> true
                | Oracle.Pass | Oracle.Skip _ -> false
              in
              let shrunk =
                Shrink.shrink ~max_attempts:cfg.max_shrink_attempts ~prop
                  circuit
              in
              let v =
                {
                  round = !r;
                  oracle = o.Oracle.name;
                  circuit_seed;
                  oracle_seed = seed;
                  message;
                  circuit;
                  shrunk;
                  files = None;
                }
              in
              let v =
                if cfg.emit then { v with files = Some (emit_reproducer cfg v) }
                else v
              in
              Option.iter
                (fun l ->
                  Ledger.record l ~kind:"fuzz_violation"
                    [
                      ("round", Ledger.I v.round);
                      ("oracle", Ledger.S v.oracle);
                      ("circuit_seed", Ledger.I v.circuit_seed);
                      ("oracle_seed", Ledger.I v.oracle_seed);
                      ("message", Ledger.S (first_line v.message));
                      ("shrunk_gates", Ledger.I (Circuit.num_gates v.shrunk));
                    ])
                ledger;
              violations := v :: !violations;
              if List.length !violations >= cfg.max_violations then
                stop := true
          end)
        oracles
    end;
    incr r
  done;
  {
    rounds_run = !rounds_run;
    checks = !checks;
    per_oracle =
      List.mapi
        (fun i (o : Oracle.t) ->
          { oracle_name = o.Oracle.name; passed = passed.(i);
            skipped = skipped.(i) })
        oracles;
    violations = List.rev !violations;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

let parse_repro path =
  let ic = open_in path in
  let fields = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ':' with
            | Some i ->
              let key = String.trim (String.sub line 0 i) in
              let value =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              Hashtbl.replace fields key value
            | None -> ()
        done;
        assert false
      with End_of_file -> fields)

let replay path =
  match
    (try Ok (parse_repro path) with Sys_error m -> Error m)
  with
  | Error m -> Error (Printf.sprintf "cannot read %s: %s" path m)
  | Ok fields -> (
    let get k = Hashtbl.find_opt fields k in
    match (get "oracle", get "seed", get "bench") with
    | Some oracle_name, Some seed_s, Some bench -> (
      match (Oracle.find oracle_name, int_of_string_opt seed_s) with
      | None, _ -> Error (Printf.sprintf "unknown oracle %S" oracle_name)
      | _, None -> Error (Printf.sprintf "bad seed %S" seed_s)
      | Some oracle, Some seed -> (
        let bench_path =
          if Filename.is_relative bench then
            Filename.concat (Filename.dirname path) bench
          else bench
        in
        match Bench_io.parse_file bench_path with
        | Error e ->
          Error
            (Printf.sprintf "cannot parse %s: %s" bench_path
               (Bench_io.error_to_string e))
        | Ok circuit ->
          Ok (oracle_name, Oracle.run oracle { Oracle.circuit; seed })))
    | _ -> Error "missing oracle:, seed: or bench: field")
