(* grade: a closed loop of union grading (Fault_sim.detected_by_tests)
   and diagnosis rows (Fault_sim.detect_matrix) over seeded random test
   sets on large-P profiles.  Target-set building is its set-up.  See
   WORKLOADS.md. *)

open Common
module Atpg = Pdf_core.Atpg

let specs =
  [ ("s641", 1500, 150); ("s953", 1500, 150); ("s1423*", 1500, 150);
    ("s9234*", 1500, 150); ("b09", 1500, 150) ]

(* A sub-word set takes the scalar path, 16 words the packed one.  Each
   size is drawn [sets_per_size] times per circuit, so no one draw sets
   the figures. *)
let set_sizes = [ 40; 1008 ]

let sets_per_size = 2

type kind = Union | Matrix

type op = {
  a : analysis;
  set : int;  (** which draw: union and matrix ops of one draw share it *)
  tests : Test_pair.t list;
  kind : kind;
  size : int;
}

(* What a result is checked by: union flags, or the OR of the matrix
   rows with a hash of every row. *)
type summary = Flags of bool array | Rows of bool array * int

let summarise_rows nf rows =
  let any = Array.make nf false and h = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun i x ->
          if x then any.(i) <- true;
          h := ((!h * 31) + if x then i + 1 else 0) land max_int)
        row)
    rows;
  Rows (any, !h)

let run ~seed ~seconds ~trace =
  let analyses, setup_s, live_mb = setup (fun st -> List.map (fun spec -> st.step (fun () -> analyse spec)) specs) in
  List.iter
    (fun a -> say "%s: |P| %d  |P0| %d" a.name (Array.length a.faults) a.n0)
    analyses;
  let rng = Rng.create seed in
  let sets =
    List.concat_map
      (fun size ->
        List.init sets_per_size (fun _ ->
            List.map (fun a -> (a, random_tests rng a.circuit size)) analyses))
      set_sizes
  in
  (* Round-robin across circuits within each (draw, kind). *)
  let ops =
    List.concat
      (List.mapi
         (fun set draw ->
           List.concat_map
             (fun kind ->
               List.map
                 (fun (a, tests) -> { a; set; tests; kind; size = List.length tests })
                 draw)
             [ Union; Matrix ])
         sets)
    |> Array.of_list
  in
  let n = Array.length ops in
  let untraced = Array.make n [] and traced = Array.make n [] in
  let firsts = Array.make n None in
  let attempted = ref 0 and failed = ref 0 and rounds = ref 0 in
  let w0 = allocated_words () in
  let t_start = now () in
  while !rounds < (if trace then 2 else 1) || now () -. t_start < seconds do
    Tracer.enabled := trace && !rounds mod 2 = 0;
    let times = Array.make n nan in
    Array.iteri
      (fun i op ->
        incr attempted;
        let c = op.a.circuit and faults = op.a.faults in
        calibrate ();
        let t0 = now () in
        match
          match op.kind with
          | Union ->
            let f =
              Tracer.span "job.union" (fun () ->
                  Fault_sim.detected_by_tests c op.tests faults)
            in
            (now () -. t0, Flags f)
          | Matrix ->
            let m =
              Tracer.span "job.matrix" (fun () ->
                  Fault_sim.detect_matrix c op.tests faults)
            in
            let dt = now () -. t0 in
            (dt, summarise_rows (Array.length faults) m)
        with
        | dt, s ->
          times.(i) <- dt;
          (match firsts.(i) with
          | None -> firsts.(i) <- Some s
          | Some s0 ->
            if s <> s0 then begin
              incr failed;
              say "op %d: a repeat gave other flags" i
            end)
        | exception e ->
          incr failed;
          say "op %d on %s raised %s" i op.a.name (Printexc.to_string e))
      ops;
    keep_round times (if !Tracer.enabled then traced else untraced);
    incr rounds
  done;
  let elapsed = now () -. t_start in
  let alloc_mw = (allocated_words () -. w0) /. float_of_int !rounds /. 1e6 in
  Tracer.enabled := trace;
  say "timed phase: %d rounds of %d operations in %.2f s" !rounds n elapsed;
  (* Union flags must equal the OR of the matrix rows of the same set. *)
  let union = Hashtbl.create 16 and digest = Buffer.create 4096 in
  Array.iteri
    (fun i op ->
      match (firsts.(i), op.kind) with
      | Some (Flags f), Union ->
        Hashtbl.replace union (op.a.name, op.set) f;
        Buffer.add_string digest (flags_string f)
      | Some (Rows (any, h)), Matrix ->
        Buffer.add_string digest (string_of_int h);
        if Hashtbl.find_opt union (op.a.name, op.set) <> Some any then begin
          incr failed;
          say "%s, %d tests: union flags differ from the OR of the matrix rows"
            op.a.name op.size
        end
      | _ -> ())
    ops;
  let p50_ms, tail_ms = latency untraced in
  let med i = Stat.median (Array.of_list untraced.(i)) in
  let pairs_per_s =
    Stat.geomean
      (Array.mapi
         (fun i op ->
           float_of_int (op.size * Array.length op.a.faults) /. med i)
         ops)
  in
  let path_ms size =
    Stat.median
      (Array.of_list
         (List.filter_map
            (fun i -> if ops.(i).size = size then Some (med i *. 1e3) else None)
            (List.init n Fun.id)))
  in
  say "digest %s" (Digest.to_hex (Digest.string (Buffer.contents digest)));
  say "pairs_per_s %.0f  fail_pct %.3f" pairs_per_s (100. *. ratio !failed !attempted);
  List.iter
    (fun size -> say "median op, %d-test sets: %.3f ms" size (path_ms size))
    set_sizes;
  let layers =
    if not trace then []
    else begin
      let traced_p50, _ = latency traced in
      let b09 = List.nth analyses (List.length analyses - 1) in
      let enrich =
        Atpg.enrich ~justify:Pdf_core.Justify.Sim b09.circuit
          ~seed:(1 + Rng.int rng 999_999) ~faults:b09.faults ~p0:(p0_ids b09)
          ~p1:(p1_ids b09)
      in
      let justify, _, _ = Probes.justify ~seed analyses in
      (* The probe grades every (set, circuit) once each way: the same
         calls as one round. *)
      calibrate_n 5;
      let fsim, probe_s = Probes.fault_sim (List.concat sets) in
      calibrate_n 5;
      let probe_s = probe_s /. slowness () in
      let info (a : analysis) = Served.body "info" ~circuit:a.name "" in
      let atpg ~seed =
        Served.body "atpg" ~circuit:b09.name
          (Served.params ~n_p:400 ~n_p0:40 ~seed ~justify:"sim")
      in
      let hits = List.map info analyses @ [ atpg ~seed ] in
      let misses = List.init 4 (fun i -> atpg ~seed:(seed + 1 + i)) in
      let round_s =
        Array.fold_left (fun acc l -> acc +. Stat.median (Array.of_list l)) 0. traced
      in
      Probes.front_end analyses
      @ Probes.atpg [ (b09, enrich) ]
      @ justify @ fsim
      @ Served.probe ~hits ~misses
      @ [
          trace_overhead ~traced:traced_p50 ~untraced:p50_ms;
          metric "layer.share_pct" "%" (100. *. probe_s /. round_s);
        ]
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    e2e = end_to_end ~setup_s ~live_mb ~p50_ms ~tail_ms ~alloc_mw;
    layers;
  }
