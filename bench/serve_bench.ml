(* Serve-mode load generator (DESIGN.md §12.6).

   Measures the value of warm circuit sessions by timing the same ATPG
   query in four configurations:

     cold_session     a fresh Session per request — parse, levelize,
                      target-set construction, fault preparation and the
                      ATPG run are all paid per request (what a batch
                      CLI invocation pays, minus process startup);
     warm_answer      one shared session, identical request — served
                      from the answer cache;
     warm_analysis    one shared session, rotating seed — the answer
                      cache misses but the compiled circuit and the
                      (criterion, n_p, n_p0) analysis are reused, so
                      only the ATPG run itself is paid;
     socket_round_trip the warm_answer request through a live
                      `pdfatpg serve` instance over a Unix socket,
                      including JSON framing and scheduling.

   All timing goes through Pdf_obs.Bstat and the JSON result is a
   unified pdf-bench-report/1 file (suite "serve"), so the report
   carries the same fingerprint, GC and throughput fields as every
   other BENCH_*.json.  Sustained request throughput is the
   requests_per_s figure of each case.

   Exits non-zero when the warm-vs-cold median speedup falls below
   --min-speedup (default 5x), or when the served answer bytes differ
   from the in-process session's answer (the determinism contract). *)

module Bstat = Pdf_obs.Bstat
module Benchmark = Pdf_experiments.Benchmark
module Profiles = Pdf_synth.Profiles
module Session = Pdf_serve.Session
module Server = Pdf_serve.Server
module J = Pdf_obs.Json_text

let usage = "serve_bench [--circuit NAME] [--n-p N] [--n-p0 N] [--repeat N] \
             [--out FILE] [--min-speedup X]"

let circuit_name = ref "b09"
let n_p = ref 400
let n_p0 = ref 80
let repeat = ref 5
let out_path = ref "BENCH_serve.json"
let min_speedup = ref 5.0
let seed = ref 2002

let () =
  Arg.parse
    [
      ("--circuit", Arg.Set_string circuit_name, "Profile to run (default b09)");
      ("--n-p", Arg.Set_int n_p, "Fault budget N_P (default 400)");
      ("--n-p0", Arg.Set_int n_p0, "Threshold N_P0 (default 80)");
      ("--repeat", Arg.Set_int repeat, "Timed repetitions (default 5)");
      ("--seed", Arg.Set_int seed, "ATPG seed (default 2002)");
      ("--out", Arg.Set_string out_path, "JSON result file");
      ( "--min-speedup",
        Arg.Set_float min_speedup,
        "Fail below this warm-vs-cold median speedup (default 5.0)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

(* Send one request line and read frames until the response closes;
   returns the reassembled chunk payload. *)
let round_trip fd ic line =
  let line = line ^ "\n" in
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd line !off (len - !off)
  done;
  let body = Buffer.create 256 in
  let rec read () =
    let frame = input_line ic in
    match J.parse frame with
    | Error msg -> failwith ("serve_bench: bad frame: " ^ msg)
    | Ok v -> (
      match Option.bind (J.member "ev" v) J.to_str with
      | Some "chunk" ->
        (match Option.bind (J.member "data" v) J.to_str with
        | Some data -> Buffer.add_string body data
        | None -> failwith "serve_bench: chunk frame without data");
        read ()
      | Some "done" -> Buffer.contents body
      | Some "error" -> failwith ("serve_bench: error frame: " ^ frame)
      | _ -> failwith ("serve_bench: unknown frame: " ^ frame))
  in
  read ()

let () =
  let profile =
    match Benchmark.profiles_of_spec !circuit_name with
    | Ok [ p ] -> p
    | Ok _ ->
      Printf.eprintf "exactly one --circuit expected\n";
      exit 2
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let circuit = profile.Profiles.name in
  let params =
    { Session.default_params with Session.n_p = !n_p; n_p0 = !n_p0;
      seed = !seed }
  in
  let query s ~params =
    match
      Session.atpg s ~circuit ~params ~ordering:Pdf_core.Ordering.Value_based
        ~relax:false
    with
    | Ok a -> a
    | Error e -> failwith (Session.error_message e)
  in
  (* cold: a fresh session pays the whole pipeline per request. *)
  let cold_meas =
    Bstat.measure ~warmup:1 ~repeat:!repeat ~min_sample_s:0. (fun () ->
        ignore (query (Session.create ()) ~params : Session.answer))
  in
  let cold_stats = Bstat.summarize cold_meas.Bstat.samples in
  (* warm: the shared session answers the identical request from its
     answer cache (the warmup execution primes it). *)
  let warm_session = Session.create () in
  let warm_text = (query warm_session ~params).Session.text in
  let warm_meas =
    Bstat.measure ~warmup:1 ~repeat:!repeat ~min_sample_s:0.01 (fun () ->
        ignore (query warm_session ~params : Session.answer))
  in
  let warm_stats = Bstat.summarize warm_meas.Bstat.samples in
  (* warm_analysis: a fresh seed per request defeats the answer cache but
     reuses the compiled circuit and analysis. *)
  let next_seed = ref (!seed + 1_000_000) in
  let analysis_meas =
    Bstat.measure ~warmup:1 ~repeat:!repeat ~min_sample_s:0. (fun () ->
        incr next_seed;
        ignore
          (query warm_session ~params:{ params with Session.seed = !next_seed }
            : Session.answer))
  in
  let analysis_stats = Bstat.summarize analysis_meas.Bstat.samples in
  (* socket: the same warm request through a live server. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pdfatpg_serve_bench_%d.sock" (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run
          ~ready:(fun () -> Atomic.set ready true)
          (Server.default_config (Server.Unix_path path)))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let atpg_line =
    Printf.sprintf
      "{\"id\":1,\"req\":\"atpg\",\"circuit\":%s,\"n_p\":%d,\"n_p0\":%d,\"seed\":%d}"
      (J.quote circuit) !n_p !n_p0 !seed
  in
  let served_text = round_trip fd ic atpg_line in
  let socket_meas =
    Bstat.measure ~warmup:1 ~repeat:!repeat ~min_sample_s:0.01 (fun () ->
        ignore (round_trip fd ic atpg_line : string))
  in
  let socket_stats = Bstat.summarize socket_meas.Bstat.samples in
  ignore (round_trip fd ic "{\"id\":2,\"req\":\"shutdown\"}" : string);
  Domain.join server;
  close_in ic;
  (* Report. *)
  let case name meas stats =
    {
      Benchmark.r_case = name;
      r_units = [ ("requests", 1.) ];
      r_meas = meas;
      r_stats = stats;
    }
  in
  let report =
    {
      Benchmark.suite = "serve";
      fingerprint = Pdf_obs.Fingerprint.capture ();
      warmup = 1;
      repeat = !repeat;
      min_sample_s = 0.;
      params =
        {
          Benchmark.circuits = [ profile ];
          n_tests = 0;
          n_p = !n_p;
          n_p0 = !n_p0;
          seed = !seed;
        };
      results =
        [
          case (circuit ^ "/cold_session") cold_meas cold_stats;
          case (circuit ^ "/warm_answer") warm_meas warm_stats;
          case (circuit ^ "/warm_analysis") analysis_meas analysis_stats;
          case (circuit ^ "/socket_round_trip") socket_meas socket_stats;
        ];
    }
  in
  Benchmark.write_report report !out_path;
  let speedup =
    if warm_stats.Bstat.median_s > 0. then
      cold_stats.Bstat.median_s /. warm_stats.Bstat.median_s
    else infinity
  in
  let rps s = if s.Bstat.median_s > 0. then 1. /. s.Bstat.median_s else 0. in
  Printf.printf
    "cold %.6fs  warm %.6fs  warm_analysis %.6fs  socket %.6fs (medians)\n\
     sustained: %.0f warm req/s in-process, %.0f req/s over the socket\n\
     warm-vs-cold speedup %.1fx\n"
    cold_stats.Bstat.median_s warm_stats.Bstat.median_s
    analysis_stats.Bstat.median_s socket_stats.Bstat.median_s
    (rps warm_stats) (rps socket_stats) speedup;
  if served_text <> warm_text then begin
    Printf.eprintf
      "FAIL: served answer differs from the in-process session answer\n";
    exit 1
  end;
  if speedup < !min_speedup then begin
    Printf.eprintf "FAIL: warm-vs-cold speedup %.1fx below the %.1fx budget\n"
      speedup !min_speedup;
    exit 1
  end
  else
    Printf.printf "OK: warm-vs-cold speedup %.1fx >= %.1fx budget\n" speedup
      !min_speedup
