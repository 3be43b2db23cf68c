module Req = Pdf_values.Req
module Bit = Pdf_values.Bit
module Implication = Pdf_sim.Implication
module Wreq = Pdf_bitsim.Wreq
module Circuit = Pdf_circuit.Circuit
module Rng = Pdf_util.Rng
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log
module Ledger = Pdf_obs.Ledger
module Attrib = Pdf_obs.Attrib

let m_delta_evals = Metrics.counter "atpg.delta_evals"

type config = {
  ordering : Ordering.t;
  seed : int;
}

type result = {
  tests : Test_pair.t list;
  detected : bool array;
  primary_aborts : int;
  justification_runs : int;
  justification_trials : int;
  runtime_s : float;
}

(* [delta acc_bits reqs] — the requirement values a candidate fault adds
   on top of the accumulated set, whose merged [Req.bits] per net are
   [acc_bits] (0 where it holds none): [None] on a direct conflict,
   otherwise the per-net merged updates.  The paper's value-based
   selection metric [n_Delta] is [Wreq.count_new]'s. *)
let delta acc_bits reqs =
  let exception Clash in
  Metrics.incr m_delta_evals;
  try
    (* Small hash table keyed by net: requirement lists repeat nets, and
       the assoc-list accumulator this replaces was quadratic in the
       requirement count on the hottest compaction path. *)
    let updates : (int, Req.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (net, req) ->
        let current =
          match Hashtbl.find_opt updates net with
          | Some r -> r
          | None -> Req.of_bits acc_bits.(net)
        in
        match Req.merge current req with
        | Some merged -> Hashtbl.replace updates net merged
        | None -> raise Clash)
      reqs;
    Some (Hashtbl.fold (fun net req l -> (net, req) :: l) updates [])
  with Clash -> None

(* [reqs_with ~seen ~stamp acc updates] — the accumulated requirements
   the updates leave as they are, then the updates: what a candidate's
   re-justification must satisfy.  [stamp] is fresh: it marks the
   updated nets in [seen], the run's per-net stamps. *)
let reqs_with ~(seen : int array) ~(stamp : int) acc updates =
  List.iter (fun (net, _) -> seen.(net) <- stamp) updates;
  Hashtbl.fold
    (fun net req l -> if seen.(net) = stamp then l else (net, req) :: l)
    acc updates

let shuffle rng ids =
  let a = Array.of_list ids in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Rank of every fault under the configured ordering; lower rank is
   selected first (both as primary and when scanning secondaries). *)
let compute_ranks config (faults : Fault_sim.prepared array) =
  let n = Array.length faults in
  let ids = List.init n (fun i -> i) in
  let order =
    match config.ordering with
    | Ordering.Uncompacted | Ordering.Arbitrary ->
      shuffle (Rng.create (config.seed lxor 0x5eed)) ids
    | Ordering.Length_based | Ordering.Value_based ->
      List.sort
        (fun a b ->
          let la = faults.(a).Fault_sim.length
          and lb = faults.(b).Fault_sim.length in
          if la <> lb then Int.compare lb la else Int.compare a b)
        ids
  in
  let rank = Array.make n 0 in
  List.iteri (fun pos id -> rank.(id) <- pos) order;
  rank

type test_state = {
  mutable test : Test_pair.t;
  acc : (int, Req.t) Hashtbl.t;
  acc_bits : int array;
      (** per net, the [Req.bits] of [acc]'s requirement, 0 where it
          holds none; the run's array, cleared after each test *)
  implied : Implication.t;
      (** line values implied by [acc], as of the last {!implied} read;
          candidates contradicting them are provably un-addable and are
          rejected without a search *)
  mutable pending : (int * Req.t) list list;
      (** the commits [implied] has not seen yet, latest first *)
}

let commit st updates =
  List.iter
    (fun (net, req) ->
      Hashtbl.replace st.acc net req;
      st.acc_bits.(net) <- Req.bits req)
    updates;
  st.pending <- updates :: st.pending

(* The values implied by [acc], extended on demand by the queued commits
   in commit order.  [acc] only grows within a test and its implied
   values are the least fixpoint of its requirements, so the values
   equal re-inferring them from the whole of [acc], and a test whose
   candidates never reach this check implies nothing. *)
let implied st =
  (match st.pending with
  | [] -> ()
  | pending ->
    List.iter
      (fun updates ->
        match Implication.extend st.implied updates with
        | None -> ()
        | Some _ ->
          (* [acc] is always witnessed satisfiable by the current test. *)
          assert false)
      (List.rev pending);
    st.pending <- []);
  st.implied

(* A candidate's conditions contradict the values implied by the
   accumulated requirements: adding it can never succeed. *)
let contradicts_implied st reqs =
  let implied = implied st in
  List.exists
    (fun (net, (req : Req.t)) ->
      not
        (Req.compatible_bit (Implication.value implied ~component:1 net)
           req.Req.r1
        && Req.compatible_bit (Implication.value implied ~component:2 net)
             req.Req.r2
        && Req.compatible_bit (Implication.value implied ~component:3 net)
             req.Req.r3))
    reqs

let generate ?ledger ?attrib ?justify c config ~faults ~primaries
    ~secondary_pools =
  Span.with_ "atpg" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* One attribution sheet for everything this (single-domain) run owns:
     the justify engine, the incremental refresh state and the candidate
     delta scans all bump it unsynchronised; it is merged into the
     shared store once, at the end of the run. *)
  let sheet = Option.map Attrib.fresh attrib in
  let jkind =
    match justify with Some k -> k | None -> Justify.default_kind ()
  in
  let engine = Justify.Engine.create ?attrib:sheet ~kind:jkind c in
  (* Every value the implication state is seeded with or read at lies on
     a requirement net of a primary or pooled fault, so it is restricted
     to the fan-in cone of those nets: on the cone its values are the
     whole circuit's (Implication's restriction, DESIGN.md §5.1). *)
  let implied =
    let np = c.Circuit.num_pis in
    let within = Array.make (Circuit.num_nets c) false in
    List.iter
      (List.iter (fun i ->
           List.iter (fun (net, _) -> within.(net) <- true)
             faults.(i).Fault_sim.reqs))
      (primaries :: secondary_pools);
    for g = Circuit.num_gates c - 1 downto 0 do
      if within.(np + g) then
        Array.iter (fun net -> within.(net) <- true)
          c.Circuit.gates.(g).Circuit.fanins
    done;
    Implication.create ~within c
  in
  let acc_bits = Array.make (Circuit.num_nets c) 0 in
  let runs0 = Justify.Engine.runs engine
  and trials0 = Justify.Engine.trials engine in
  (* The current test's values.  Consecutive accepted tests within one
     compaction pass differ in a handful of PI bits, so the refresh
     re-evaluates only the changed part of one persistent scalar state
     over the whole circuit; its values are those of
     [Test_pair.simulate].  Both the free check and the end-of-test drop
     scan read each fault's literals against it ([Wreq.satisfied], which
     equals [Fault_sim.detects_values], the scalar reference; checked by
     the packed-detect oracle). *)
  let sim = Cone_sim.create ?attrib:sheet c in
  (* Candidate-scan attribution: charge every delta evaluation to the
     candidate's requirement nets (shadowing the bare [delta]). *)
  let note_scan reqs =
    match sheet with Some a -> Attrib.note_cand_scan a reqs | None -> ()
  in
  let delta acc_bits reqs =
    note_scan reqs;
    delta acc_bits reqs
  in
  (* Per-net stamps the run owns; each use takes a fresh stamp. *)
  let seen = Array.make (Circuit.num_nets c) 0
  and pinned = Array.make (Circuit.num_nets c) 0
  and stamp = ref 0 in
  let fresh_stamp () =
    incr stamp;
    !stamp
  in
  let charge_scan i =
    note_scan faults.(i).Fault_sim.reqs;
    Metrics.incr m_delta_evals
  in
  (* [delta]'s count alone, -1 on a direct conflict: the candidate's
     literals against [acc_bits], building nothing. *)
  let n_delta i =
    charge_scan i;
    Wreq.count_new ~seen ~pinned ~stamp:(fresh_stamp ()) acc_bits
      faults.(i).Fault_sim.lits
  in
  let simulate_test test =
    for pi = 0 to c.Circuit.num_pis - 1 do
      Cone_sim.set_pi sim pi
        ~v1:(Bit.of_bool test.Test_pair.v1.(pi))
        ~v3:(Bit.of_bool test.Test_pair.v3.(pi))
    done;
    Cone_sim.propagate sim
  in
  let detects i =
    Wreq.satisfied (Cone_sim.values sim) faults.(i).Fault_sim.lits
  in
  let ord_name = Ordering.name config.ordering in
  (* Provenance (DESIGN.md §9): everything recorded in the ledger is
     derived from the sequential generation loop and the seed — no
     timestamps, no schedule-dependent data — so the emitted JSONL is
     byte-identical across --jobs. *)
  let with_ledger f = Option.iter f ledger in
  let fault_name i = Pdf_faults.Fault.to_string c faults.(i).Fault_sim.fault in
  (* Per-ordering counters: the same pipeline run exercises several
     compaction heuristics, and their work must not be conflated. *)
  let cnt suffix =
    Metrics.counter ("atpg." ^ Ordering.name config.ordering ^ "." ^ suffix)
  in
  let m_primaries = cnt "primaries_attempted"
  and m_primary_aborts = cnt "primary_aborts"
  and m_tests = cnt "tests"
  and m_cand = cnt "secondary_attempted"
  and m_folded = cnt "secondary_folded"
  and m_free = cnt "secondary_free"
  and m_rej_conflict = cnt "secondary_rejected_conflict"
  and m_rej_implied = cnt "secondary_rejected_implied"
  and m_rej_search = cnt "secondary_rejected_search"
  and m_accidental = cnt "accidental_detections" in
  let h_folded_per_test =
    Metrics.histogram
      ~buckets:[| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100. |]
      ("atpg." ^ Ordering.name config.ordering ^ ".folded_per_test")
  in
  let folded_this_test = ref 0 in
  let rng = Rng.create config.seed in
  let n = Array.length faults in
  let detected = Array.make n false in
  let tried = Array.make n false in
  let rank = compute_ranks config faults in
  let by_rank ids =
    List.sort (fun a b -> Int.compare rank.(a) rank.(b)) ids
  in
  let primaries = by_rank primaries in
  let pools = List.map by_rank secondary_pools in
  let aborts = ref 0 in
  let tests = ref [] in
  with_ledger (fun l ->
      Ledger.record l ~kind:"run"
        [
          ("ordering", Ledger.S ord_name);
          ("seed", Ledger.I config.seed);
          ("justify", Ledger.S (Justify.kind_name jkind));
          ("faults", Ledger.I n);
          ("primaries", Ledger.I (List.length primaries));
          ( "pools",
            Ledger.L (List.map (fun p -> Ledger.I (List.length p)) pools) );
        ]);
  (* Per-fault provenance state.  [reject_reason] keeps the most recent
     rejection cause so an uncovered fault can be explained; [folded_at]
     and [detected_via] pin each fault to the test that absorbed or
     detected it. *)
  let reject_reason = Array.make n `Never in
  let folded_at = Array.make n (-1) in
  let detected_via : (int * string) option array = Array.make n None in
  (* Per-fault justification effort, accumulated over every search that
     targeted the fault — its primary attempt plus each candidate
     attempt — and the forensics of its most recent conflicting
     attempt.  All deltas come from the per-engine scalar counters, so
     the recorded figures are engine- and jobs-invariant like the rest
     of the ledger. *)
  let eff_runs = Array.make n 0
  and eff_trials = Array.make n 0
  and eff_backtracks = Array.make n 0
  and eff_resim_gates = Array.make n 0 in
  let last_conflict : Justify.forensics option array = Array.make n None in
  let targeted_run i f =
    let r0 = Justify.Engine.runs engine
    and t0 = Justify.Engine.trials engine
    and b0 = Justify.Engine.backtracks engine
    and g0 = Justify.Engine.resim_gates engine in
    Justify.Engine.reset_forensics engine;
    let res = f () in
    eff_runs.(i) <- eff_runs.(i) + (Justify.Engine.runs engine - r0);
    eff_trials.(i) <- eff_trials.(i) + (Justify.Engine.trials engine - t0);
    eff_backtracks.(i) <- eff_backtracks.(i) + (Justify.Engine.backtracks engine - b0);
    eff_resim_gates.(i) <-
      eff_resim_gates.(i) + (Justify.Engine.resim_gates engine - g0);
    let fo = Justify.Engine.forensics engine in
    if fo.Justify.last_net >= 0 then last_conflict.(i) <- Some fo;
    res
  in
  let next_test_id = ref 0 in
  let cur_test_id = ref (-1) in
  (* Winning engine per finalised test: every accepted test's assignment
     came from the engine's most recent successful dispatch (the primary
     justification, or the last accepted candidate re-justification). *)
  let test_engine : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let cur_folded = ref [] in
  let note_folded i via =
    folded_at.(i) <- !cur_test_id;
    with_ledger (fun _ ->
        cur_folded :=
          Ledger.O
            [
              ("id", Ledger.I i);
              ("fault", Ledger.S (fault_name i));
              ("step", Ledger.I !folded_this_test);
              ("via", Ledger.S via);
            ]
          :: !cur_folded)
  in
  (* Live progress: gauges a dashboard can scrape plus an Info-level
     event stream, both updated once per generated test. *)
  let ndet = ref 0 in
  let g_prog_tests = Metrics.gauge ("atpg." ^ ord_name ^ ".progress_tests")
  and g_prog_detected =
    Metrics.gauge ("atpg." ^ ord_name ^ ".progress_detected")
  in
  (* Attempt to add candidate [i] to the current test's fault set; on
     acceptance, return the requirement values newly pinned ([Delta]). *)
  let try_candidate st i =
    Metrics.incr m_cand;
    match delta st.acc_bits faults.(i).Fault_sim.reqs with
    | None ->
      Metrics.incr m_rej_conflict;
      reject_reason.(i) <- `Conflict;
      None
    | Some updates ->
      if detects i then begin
        commit st updates;
        Metrics.incr m_free;
        Metrics.incr m_folded;
        incr folded_this_test;
        note_folded i "free";
        Some updates
      end
      else if contradicts_implied st faults.(i).Fault_sim.reqs then begin
        Metrics.incr m_rej_implied;
        reject_reason.(i) <- `Implied;
        None
      end
      else begin
        match
          targeted_run i (fun () ->
              Justify.Engine.run engine ~rng
                ~reqs:(reqs_with ~seen ~stamp:(fresh_stamp ()) st.acc updates))
        with
        | Some test ->
          st.test <- test;
          simulate_test test;
          commit st updates;
          Metrics.incr m_folded;
          incr folded_this_test;
          note_folded i "justified";
          Some updates
        | None ->
          Metrics.incr m_rej_search;
          reject_reason.(i) <- `Search;
          None
      end
  in
  let scan_pool_in_order st pool =
    List.iter
      (fun i ->
        if not detected.(i) then ignore (try_candidate st i))
      pool
  in
  (* Value-based scan: repeatedly attempt the candidate adding the fewest
     new required values.  [n_Delta] is cached per candidate and refreshed
     through a net -> candidates index only when an acceptance pins new
     values on one of the candidate's lines, so each pass is linear.  An
     acceptance refreshes a candidate once however many of its lines it
     updated: every refresh reads the same [acc], so a repeat would count
     the same.  A repeat visit is charged as the refresh it replaces.
     The scan's state is the run's: per fault, whether it is in the pool
     being scanned (all clear between scans), its cached [n_Delta] and
     the acceptance that last refreshed it; per net, the index's
     candidates, valid while [bucket_scan] holds the current scan. *)
  let in_pool = Array.make n false and nd = Array.make n max_int in
  let refreshed = Array.make n 0 and acceptances = ref 0 in
  let buckets = Array.make (Circuit.num_nets c) []
  and bucket_scan = Array.make (Circuit.num_nets c) 0
  and scans = ref 0 in
  let scan_pool_value_based st pool =
    incr scans;
    let scan = !scans in
    let refresh i =
      let d = n_delta i in
      if d < 0 then begin
        in_pool.(i) <- false (* direct conflict: rejected *);
        reject_reason.(i) <- `Conflict
      end
      else nd.(i) <- d
    in
    List.iter
      (fun i ->
        if not detected.(i) then begin
          in_pool.(i) <- true;
          refresh i;
          if in_pool.(i) then
            List.iter
              (fun (net, _) ->
                if bucket_scan.(net) = scan then
                  buckets.(net) <- i :: buckets.(net)
                else begin
                  bucket_scan.(net) <- scan;
                  buckets.(net) <- [ i ]
                end)
              faults.(i).Fault_sim.reqs
        end)
      pool;
    let argmin () =
      List.fold_left
        (fun best i ->
          if not in_pool.(i) then best
          else
            match best with
            | None -> Some i
            | Some j ->
              if
                nd.(i) < nd.(j)
                || (nd.(i) = nd.(j) && rank.(i) < rank.(j))
              then Some i
              else best)
        None pool
    in
    let continue = ref true in
    while !continue do
      match argmin () with
      | None -> continue := false
      | Some i ->
        in_pool.(i) <- false;
        (match try_candidate st i with
        | None -> ()
        | Some updates ->
          incr acceptances;
          List.iter
            (fun (net, _) ->
              if bucket_scan.(net) = scan then
                List.iter
                  (fun j ->
                    if in_pool.(j) then
                      if refreshed.(j) = !acceptances then charge_scan j
                      else begin
                        refreshed.(j) <- !acceptances;
                        refresh j
                      end)
                  buckets.(net))
            updates)
    done
  in
  let next_primary () =
    List.fold_left
      (fun acc i ->
        if detected.(i) || tried.(i) then acc
        else
          match acc with
          | Some j when rank.(j) <= rank.(i) -> acc
          | Some _ | None -> Some i)
      None primaries
  in
  let running = ref true in
  while !running do
    match next_primary () with
    | None -> running := false
    | Some p0 ->
      tried.(p0) <- true;
      Metrics.incr m_primaries;
      let j_runs0 = Justify.Engine.runs engine
      and j_trials0 = Justify.Engine.trials engine
      and j_bt0 = Justify.Engine.backtracks engine in
      (match
         targeted_run p0 (fun () ->
             Justify.Engine.run engine ~rng ~reqs:faults.(p0).Fault_sim.reqs)
       with
      | None ->
        incr aborts;
        Metrics.incr m_primary_aborts
      | Some test ->
        simulate_test test;
        let st =
          { test; acc = Hashtbl.create 64; acc_bits; implied; pending = [] }
        in
        Implication.reset implied;
        commit st
          (match delta st.acc_bits faults.(p0).Fault_sim.reqs with
          | Some updates -> updates
          | None -> assert false);
        folded_this_test := 0;
        let id = !next_test_id in
        incr next_test_id;
        cur_test_id := id;
        cur_folded := [];
        Span.with_ "compact" (fun () ->
            match config.ordering with
            | Ordering.Uncompacted -> ()
            | Ordering.Arbitrary | Ordering.Length_based ->
              List.iter (fun pool -> scan_pool_in_order st pool) pools
            | Ordering.Value_based ->
              List.iter (fun pool -> scan_pool_value_based st pool) pools);
        Hashtbl.iter (fun net _ -> acc_bits.(net) <- 0) st.acc;
        Metrics.observe_int h_folded_per_test !folded_this_test;
        Hashtbl.replace test_engine id (Justify.Engine.winner engine);
        tests := st.test :: !tests;
        Metrics.incr m_tests;
        (* Fault simulation: drop everything the final test detects.  The
           state was refreshed with the last accepted assignment, so this
           scan reads each fault's literals against it. *)
        Span.with_ "fault-sim" (fun () ->
            Array.iteri
              (fun i _ ->
                if (not detected.(i)) && detects i then begin
                  detected.(i) <- true;
                  incr ndet;
                  let via =
                    if i = p0 then "primary"
                    else if folded_at.(i) = id then "folded"
                    else "accidental"
                  in
                  detected_via.(i) <- Some (id, via);
                  if i <> p0 then Metrics.incr m_accidental
                end)
              faults);
        with_ledger (fun l ->
            Ledger.record l ~kind:"test"
              [
                ("id", Ledger.I id);
                ("ordering", Ledger.S ord_name);
                ("primary", Ledger.I p0);
                ("primary_fault", Ledger.S (fault_name p0));
                ("pattern", Ledger.S (Test_pair.to_string st.test));
                ("engine", Ledger.S (Hashtbl.find test_engine id));
                ("folded", Ledger.L (List.rev !cur_folded));
                ( "justify",
                  Ledger.O
                    [
                      ("runs", Ledger.I (Justify.Engine.runs engine - j_runs0));
                      ("trials", Ledger.I (Justify.Engine.trials engine - j_trials0));
                      ( "backtracks",
                        Ledger.I (Justify.Engine.backtracks engine - j_bt0) );
                    ] );
              ]);
        Metrics.set_int g_prog_tests (id + 1);
        Metrics.set_int g_prog_detected !ndet;
        if Log.enabled Log.Info then
          Log.event ~fields:
            [ ("ordering", ord_name);
              ("tests", string_of_int (id + 1));
              ("detected", string_of_int !ndet);
              ("faults", string_of_int n) ]
            "atpg.progress")
  done;
  with_ledger (fun l ->
      Array.iteri
        (fun i _ ->
          let disposition =
            if detected.(i) then
              match detected_via.(i) with
              | Some (t, via) ->
                [
                  ("disposition", Ledger.S "detected");
                  ("test", Ledger.I t);
                  ("via", Ledger.S via);
                  ("engine", Ledger.S (Hashtbl.find test_engine t));
                ]
              | None -> assert false
            else if tried.(i) then [ ("disposition", Ledger.S "aborted") ]
            else
              let reason =
                match reject_reason.(i) with
                | `Never -> "never_targeted"
                | `Conflict -> "conflict"
                | `Implied -> "implied"
                | `Search -> "search"
              in
              [
                ("disposition", Ledger.S "uncovered");
                ("reason", Ledger.S reason);
              ]
          in
          let effort =
            [
              ( "effort",
                Ledger.O
                  [
                    ("runs", Ledger.I eff_runs.(i));
                    ("trials", Ledger.I eff_trials.(i));
                    ("backtracks", Ledger.I eff_backtracks.(i));
                    ("resim_gates", Ledger.I eff_resim_gates.(i));
                  ] );
            ]
          in
          let forensic =
            match last_conflict.(i) with
            | Some fo ->
              [
                ( "last_conflict",
                  Ledger.O
                    [
                      ("net", Ledger.I fo.Justify.last_net);
                      ( "name",
                        Ledger.S (Circuit.net_name c fo.Justify.last_net) );
                      ("level", Ledger.I fo.Justify.last_level);
                      ("deepest_level", Ledger.I fo.Justify.deepest_level);
                    ] );
              ]
            | None -> []
          in
          Ledger.record l ~kind:"fault"
            ([ ("id", Ledger.I i); ("fault", Ledger.S (fault_name i)) ]
            @ disposition @ effort @ forensic))
        faults);
  Cone_sim.record sim;
  (match attrib, sheet with
  | Some store, Some sh -> Attrib.merge store sh
  | _ -> ());
  let result =
    {
      tests = List.rev !tests;
      detected;
      primary_aborts = !aborts;
      justification_runs = Justify.Engine.runs engine - runs0;
      justification_trials = Justify.Engine.trials engine - trials0;
      runtime_s = Unix.gettimeofday () -. t0;
    }
  in
  Log.debug "atpg(%s): %d tests, %d/%d detected, %d aborts"
    (Ordering.name config.ordering)
    (List.length result.tests)
    (Fault_sim.count detected) (Array.length faults) !aborts;
  result

let basic ?ledger ?attrib ?justify c config ~faults =
  let ids = List.init (Array.length faults) (fun i -> i) in
  let pools =
    match config.ordering with
    | Ordering.Uncompacted -> []
    | Ordering.Arbitrary | Ordering.Length_based | Ordering.Value_based ->
      [ ids ]
  in
  generate ?ledger ?attrib ?justify c config ~faults ~primaries:ids
    ~secondary_pools:pools

let enrich ?ledger ?attrib ?justify c ~seed ~faults ~p0 ~p1 =
  generate ?ledger ?attrib ?justify c
    { ordering = Ordering.Value_based; seed }
    ~faults ~primaries:p0 ~secondary_pools:[ p0; p1 ]

let enrich_multi ?ledger ?attrib ?justify c ~seed ~faults ~pools =
  match pools with
  | [] -> invalid_arg "Atpg.enrich_multi: no pools"
  | first :: _ ->
    generate ?ledger ?attrib ?justify c
      { ordering = Ordering.Value_based; seed }
      ~faults ~primaries:first ~secondary_pools:pools

let count_detected result ~ids =
  List.fold_left
    (fun acc i -> if result.detected.(i) then acc + 1 else acc)
    0 ids
