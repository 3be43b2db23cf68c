module Benchmark = Pdf_experiments.Benchmark
module Profiles = Pdf_synth.Profiles

let min_speedup = 5.0

(* A warm answer is a cache lookup, so it must beat a cold session —
   parse, levelize, target sets, fault preparation and the ATPG run —
   by a wide margin; below [min_speedup] the answer cache has stopped
   answering. *)
let gate results =
  let median r = r.Benchmark.r_stats.Pdf_obs.Bstat.median_s in
  let cold = Benchmark.circuit_cases results ~kernel:"cold_session" in
  Benchmark.require results
    (List.map (fun (circuit, _) -> circuit ^ "/warm_answer") cold)
  @ List.filter_map
      (fun (circuit, cold) ->
        match Benchmark.find_result results (circuit ^ "/warm_answer") with
        | Some warm ->
          let speedup =
            if median warm > 0. then median cold /. median warm
            else infinity
          in
          if speedup < min_speedup then
            Some
              (Printf.sprintf "warm-vs-cold speedup (%s): %.2fx < %gx"
                 circuit speedup min_speedup)
          else None
        | None -> None)
      cold

let cases (p : Benchmark.params) =
  List.concat_map
    (fun profile ->
      let circuit = profile.Profiles.name in
      let params =
        {
          Pdf_core.Job.default with
          Session.n_p = p.Benchmark.n_p;
          n_p0 = p.Benchmark.n_p0;
          seed = p.Benchmark.seed;
        }
      in
      let query s ~params =
        match
          Session.atpg s ~circuit ~params
            ~ordering:Pdf_core.Ordering.Value_based ~relax:false
        with
        | Ok (_ : Session.answer) -> ()
        | Error e -> failwith (Session.error_message e)
      in
      (* The shared session holds this request's answer before any
         case is measured. *)
      let warm = Session.create () in
      query warm ~params;
      let next_seed = ref (p.Benchmark.seed + 1_000_000) in
      let case kernel thunk =
        {
          Benchmark.case_name = circuit ^ "/" ^ kernel;
          units = [ ("requests", 1.) ];
          thunk;
        }
      in
      [
        case "cold_session" (fun () -> query (Session.create ()) ~params);
        case "warm_answer" (fun () -> query warm ~params);
        (* A fresh seed per request misses the answer cache but reuses
           the compiled circuit and the analysis. *)
        case "warm_analysis" (fun () ->
            incr next_seed;
            query warm ~params:{ params with Session.seed = !next_seed });
      ])
    p.Benchmark.circuits

let suite =
  {
    Benchmark.suite_name = "serve";
    suite_doc =
      "Warm sessions: one ATPG query on a fresh session, repeated on a \
       shared one (answer cache) and with a rotating seed (analysis \
       cache); gated at warm >= 5x faster than cold";
    cases;
    gate;
  }

let all = Benchmark.suites @ [ suite ]
