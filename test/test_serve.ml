(* Tests for Pdf_serve: protocol parsing and framing, the warm-session
   determinism contract (served answers byte-identical to the session
   the batch CLI prints from), cache effectiveness (a second request
   re-parses nothing), and the server loop itself — budgets, error
   codes, /metrics over HTTP and concurrent-client demultiplexing. *)

module Session = Pdf_serve.Session
module Protocol = Pdf_serve.Protocol
module Server = Pdf_serve.Server
module Metrics = Pdf_obs.Metrics
module J = Pdf_obs.Json_text

let check = Alcotest.check

(* Requests below carry no "justify" field, so the server resolves the
   backend via [effective_default_justify] (PDF_JUSTIFY under the CI
   matrix); the reference session must resolve it the same way for the
   byte-diff contract to be meaningful. *)
let params =
  { Pdf_core.Job.default with Session.n_p = 200; n_p0 = 50; seed = 7;
    justify = Session.effective_default_justify () }

let ok = function
  | Ok (a : Session.answer) -> a
  | Error e -> Alcotest.fail (Session.error_message e)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_ok () =
  (match Protocol.parse_request "{\"id\":7,\"req\":\"ping\"}" with
  | Ok (7, Protocol.Ping) -> ()
  | _ -> Alcotest.fail "ping did not parse");
  match
    Protocol.parse_request
      "{\"id\":1,\"req\":\"atpg\",\"circuit\":\"s27\",\"n_p\":200,\
       \"n_p0\":50,\"seed\":7,\"ordering\":\"length\",\"relax\":true}"
  with
  | Ok (1, Protocol.Atpg { circuit; params = p; ordering; relax }) ->
    check Alcotest.string "circuit" "s27" circuit;
    check Alcotest.int "n_p" 200 p.Session.n_p;
    check Alcotest.int "n_p0" 50 p.Session.n_p0;
    check Alcotest.int "seed" 7 p.Session.seed;
    check Alcotest.bool "relax" true relax;
    check Alcotest.string "ordering" "length" (Pdf_core.Ordering.name ordering)
  | _ -> Alcotest.fail "atpg did not parse"

let test_parse_defaults () =
  match
    Protocol.parse_request "{\"req\":\"atpg\",\"circuit\":\"s27\"}"
  with
  | Ok (0, Protocol.Atpg { params = p; ordering; relax; _ }) ->
    let d = Pdf_core.Job.default in
    check Alcotest.int "default n_p" d.Session.n_p p.Session.n_p;
    check Alcotest.int "default n_p0" d.Session.n_p0 p.Session.n_p0;
    check Alcotest.int "default seed" d.Session.seed p.Session.seed;
    check Alcotest.bool "default relax" false relax;
    check Alcotest.string "default ordering" "values"
      (Pdf_core.Ordering.name ordering)
  | _ -> Alcotest.fail "defaulted atpg did not parse"

let expect_error expected line =
  match Protocol.parse_request line with
  | Error (_, code, _) ->
    check Alcotest.string "error code" expected (Protocol.code_string code)
  | Ok _ -> Alcotest.fail ("expected " ^ expected ^ " for: " ^ line)

let test_parse_errors () =
  expect_error "parse_error" "this is not json";
  expect_error "parse_error" "[1,2,3]";
  expect_error "bad_request" "{\"id\":1}";
  expect_error "bad_request" "{\"id\":1,\"req\":\"bogus\"}";
  (* Unknown and ill-typed fields are rejected, not ignored. *)
  expect_error "bad_params" "{\"req\":\"ping\",\"extra\":1}";
  expect_error "bad_params"
    "{\"req\":\"atpg\",\"circuit\":\"s27\",\"np\":200}";
  expect_error "bad_params" "{\"req\":\"atpg\",\"circuit\":\"s27\",\"n_p\":0}";
  (* n_p = 1 is below Target_sets.build's bound: bad_params, not internal. *)
  expect_error "bad_params" "{\"req\":\"atpg\",\"circuit\":\"s27\",\"n_p\":1}";
  expect_error "bad_params"
    "{\"req\":\"atpg\",\"circuit\":\"s27\",\"n_p\":\"many\"}";
  expect_error "bad_params" "{\"req\":\"atpg\"}";
  expect_error "bad_params"
    "{\"req\":\"explain\",\"circuit\":\"s27\"}";
  expect_error "bad_params" "{\"req\":\"why\",\"circuit\":\"s27\"}";
  expect_error "bad_params"
    "{\"req\":\"why\",\"circuit\":\"s27\",\"query\":\"0\",\"extra\":1}";
  expect_error "bad_params"
    "{\"req\":\"atpg\",\"circuit\":\"s27\",\"criterion\":\"maybe\"}"

let test_frames_round_trip () =
  let chunk = Protocol.chunk_frame ~id:3 ~seq:1 "line one\n\"quoted\"" in
  (match J.parse chunk with
  | Ok v ->
    check Alcotest.string "data survives quoting" "line one\n\"quoted\""
      (Option.get (Option.bind (J.member "data" v) J.to_str))
  | Error msg -> Alcotest.fail msg);
  match J.parse (Protocol.done_frame ~id:3 ~req:"atpg" ~chunks:2 ~bytes:17
                   ~cached:true) with
  | Ok v ->
    check Alcotest.bool "cached flag" true
      (match J.member "cached" v with Some (J.Bool b) -> b | _ -> false)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Session caches                                                      *)
(* ------------------------------------------------------------------ *)

let compiles () = Metrics.value (Metrics.counter "serve.session.compiles")

let test_second_request_reparses_nothing () =
  let s = Session.create () in
  let before = compiles () in
  let a1 =
    ok (Session.atpg s ~circuit:"s27" ~params
          ~ordering:Pdf_core.Ordering.Value_based ~relax:false)
  in
  let after_first = compiles () in
  check Alcotest.int "first request compiles once" (before + 1) after_first;
  (* Different query kinds against the same circuit and identical
     repeats: zero further parses. *)
  let a2 =
    ok (Session.atpg s ~circuit:"s27" ~params
          ~ordering:Pdf_core.Ordering.Value_based ~relax:false)
  in
  ignore (ok (Session.enrich s ~circuit:"s27" ~params ~coverage:false));
  ignore (ok (Session.report s ~circuit:"s27" ~params));
  check Alcotest.int "no re-parse" after_first (compiles ());
  check Alcotest.bool "first answer is cold" false a1.Session.cached;
  check Alcotest.bool "second answer is warm" true a2.Session.cached;
  check Alcotest.string "warm bytes identical" a1.Session.text a2.Session.text

let test_explain_report_consistent () =
  let s = Session.create () in
  let report = ok (Session.report s ~circuit:"s27" ~params) in
  let explain = ok (Session.explain s ~circuit:"s27" ~params ~query:"0") in
  check Alcotest.bool "report mentions tests"
    true (String.length report.Session.text > 0);
  check Alcotest.bool "explain found fault #0" true
    (String.length explain.Session.text > 0);
  let why = ok (Session.why s ~circuit:"s27" ~params ~query:"0") in
  (* why = explain + the effort/forensics lines: same resolution path,
     strictly more detail. *)
  check Alcotest.bool "why extends explain" true
    (String.length why.Session.text > String.length explain.Session.text);
  (match Session.explain s ~circuit:"s27" ~params ~query:"no-such-net" with
  | Error (Session.No_match _) -> ()
  | _ -> Alcotest.fail "expected No_match");
  (match Session.why s ~circuit:"s27" ~params ~query:"no-such-net" with
  | Error (Session.No_match _) -> ()
  | _ -> Alcotest.fail "expected No_match from why");
  match Session.info s ~circuit:"no-such-circuit" with
  | Error (Session.Unknown_circuit _) -> ()
  | _ -> Alcotest.fail "expected Unknown_circuit"

let test_ledger_matches_provenance () =
  let s = Session.create () in
  let jsonl = ok (Session.ledger_jsonl s ~circuit:"s27" ~params) in
  match Session.provenance s ~circuit:"s27" ~params with
  | Error e -> Alcotest.fail (Session.error_message e)
  | Ok p ->
    check Alcotest.string "ledger bytes match the provenance run"
      (Pdf_obs.Ledger.to_jsonl p.Pdf_experiments.Provenance.ledger)
      jsonl.Session.text

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)
(* ------------------------------------------------------------------ *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pdfatpg_test_%s_%d.sock" name (Unix.getpid ()))

(* Run [f] against a live server on a fresh Unix socket; always sends
   shutdown and joins the server domain. *)
let with_server ?config name f =
  let path = sock_path name in
  let cfg =
    match config with
    | Some c -> { c with Server.bind = Server.Unix_path path }
    | None -> Server.default_config (Server.Unix_path path)
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    (fd, Unix.in_channel_of_descr fd)
  in
  let send fd line =
    let line = line ^ "\n" in
    let len = String.length line in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write_substring fd line !off (len - !off)
    done
  in
  (* Read frames for one response; returns (payload, done/error frame). *)
  let read_response ic =
    let body = Buffer.create 256 in
    let rec go () =
      let frame = input_line ic in
      let v = Result.get_ok (J.parse frame) in
      match Option.bind (J.member "ev" v) J.to_str with
      | Some "chunk" ->
        Buffer.add_string body
          (Option.get (Option.bind (J.member "data" v) J.to_str));
        go ()
      | Some ("done" | "error") -> (Buffer.contents body, v)
      | _ -> Alcotest.fail ("unexpected frame: " ^ frame)
    in
    go ()
  in
  let request fd ic line =
    send fd line;
    read_response ic
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         let fd, ic = connect () in
         ignore (request fd ic "{\"req\":\"shutdown\"}");
         close_in ic
       with _ -> ());
      Domain.join server)
    (fun () -> f ~connect ~send ~request)

let atpg_line ~id =
  Printf.sprintf
    "{\"id\":%d,\"req\":\"atpg\",\"circuit\":\"s27\",\"n_p\":200,\
     \"n_p0\":50,\"seed\":7}"
    id

let test_served_equals_session () =
  (* The determinism contract: the server's bytes are the session's
     bytes — and the batch CLI prints from the same session layer. *)
  let reference = Session.create () in
  let want_atpg =
    (ok (Session.atpg reference ~circuit:"s27" ~params
           ~ordering:Pdf_core.Ordering.Value_based ~relax:false))
      .Session.text
  in
  let want_report =
    (ok (Session.report reference ~circuit:"s27" ~params)).Session.text
  in
  let want_explain =
    (ok (Session.explain reference ~circuit:"s27" ~params ~query:"0"))
      .Session.text
  in
  let want_why =
    (ok (Session.why reference ~circuit:"s27" ~params ~query:"0"))
      .Session.text
  in
  with_server "bytes" (fun ~connect ~send:_ ~request ->
      let fd, ic = connect () in
      let got_atpg, d1 = request fd ic (atpg_line ~id:1) in
      check Alcotest.string "served atpg bytes" want_atpg got_atpg;
      check Alcotest.bool "cold first answer" false
        (match J.member "cached" d1 with Some (J.Bool b) -> b | _ -> true);
      let got_atpg2, d2 = request fd ic (atpg_line ~id:2) in
      check Alcotest.string "warm atpg bytes" want_atpg got_atpg2;
      check Alcotest.bool "warm second answer" true
        (match J.member "cached" d2 with Some (J.Bool b) -> b | _ -> false);
      let got_report, _ =
        request fd ic
          "{\"id\":3,\"req\":\"report\",\"circuit\":\"s27\",\"n_p\":200,\
           \"n_p0\":50,\"seed\":7}"
      in
      check Alcotest.string "served report bytes" want_report got_report;
      let got_explain, _ =
        request fd ic
          "{\"id\":4,\"req\":\"explain\",\"circuit\":\"s27\",\"query\":\"0\",\
           \"n_p\":200,\"n_p0\":50,\"seed\":7}"
      in
      check Alcotest.string "served explain bytes" want_explain got_explain;
      let got_why, _ =
        request fd ic
          "{\"id\":5,\"req\":\"why\",\"circuit\":\"s27\",\"query\":\"0\",\
           \"n_p\":200,\"n_p0\":50,\"seed\":7}"
      in
      check Alcotest.string "served why bytes" want_why got_why;
      close_in ic)

let test_server_error_codes () =
  let config =
    { (Server.default_config (Server.Unix_path "unused")) with
      Server.max_n_p = 500 }
  in
  with_server ~config "errors" (fun ~connect ~send:_ ~request ->
      let fd, ic = connect () in
      let code frame =
        Option.get (Option.bind (J.member "code" frame) J.to_str)
      in
      let _, e1 =
        request fd ic
          "{\"id\":1,\"req\":\"atpg\",\"circuit\":\"s27\",\"n_p\":501}"
      in
      check Alcotest.string "budget" "budget_exceeded" (code e1);
      let _, e2 =
        request fd ic "{\"id\":2,\"req\":\"info\",\"circuit\":\"nope\"}"
      in
      check Alcotest.string "unknown circuit" "unknown_circuit" (code e2);
      let _, e3 = request fd ic "{\"id\":3,\"req\":\"bogus\"}" in
      check Alcotest.string "unknown kind" "bad_request" (code e3);
      let _, e4 = request fd ic "not json at all" in
      check Alcotest.string "parse error" "parse_error" (code e4);
      close_in ic)

(* A bound below 1 is refused before the socket exists: at
   [chunk_bytes = 0] the answer streamer would never advance.  A server
   that starts anyway stops at once through [ready]. *)
let test_config_below_one_rejected () =
  List.iter
    (fun (name, set) ->
      let path = sock_path ("bad_" ^ name) in
      let cfg = set (Server.default_config (Server.Unix_path path)) in
      (match Server.run ~ready:(fun () -> raise Exit) cfg with
      | () | (exception Exit) -> Alcotest.failf "%s: the server started" name
      | exception Invalid_argument _ -> ());
      check Alcotest.bool (name ^ ": no socket file") false
        (Sys.file_exists path))
    [
      ("chunk_bytes", fun c -> { c with Server.chunk_bytes = 0 });
      ("max_line_bytes", fun c -> { c with Server.max_line_bytes = 0 });
      ("max_clients", fun c -> { c with Server.max_clients = -1 });
    ]

let test_concurrent_clients_demultiplexed () =
  with_server "concurrent" (fun ~connect ~send ~request:_ ->
      (* Four clients, requests interleaved before any response is
         read; each connection must get exactly its own response frames
         (FIFO execution, per-connection delivery, ids echoed). *)
      let clients =
        Array.init 4 (fun i ->
            let fd, ic = connect () in
            (i + 10, fd, ic))
      in
      Array.iter
        (fun (id, fd, _) ->
          if id mod 2 = 0 then send fd (atpg_line ~id)
          else
            send fd
              (Printf.sprintf
                 "{\"id\":%d,\"req\":\"info\",\"circuit\":\"s27\"}" id))
        clients;
      let info_text = ref "" and atpg_text = ref "" in
      Array.iter
        (fun (id, _, ic) ->
          let body = Buffer.create 128 in
          let rec go () =
            let v = Result.get_ok (J.parse (input_line ic)) in
            check Alcotest.int "frame routed to its client" id
              (match J.member "id" v with
              | Some (J.Num f) -> int_of_float f
              | _ -> -1);
            match Option.bind (J.member "ev" v) J.to_str with
            | Some "chunk" ->
              Buffer.add_string body
                (Option.get (Option.bind (J.member "data" v) J.to_str));
              go ()
            | Some "done" -> Buffer.contents body
            | _ -> Alcotest.fail "unexpected frame"
          in
          let text = go () in
          let slot = if id mod 2 = 0 then atpg_text else info_text in
          if !slot = "" then slot := text
          else check Alcotest.string "same answer for same query" !slot text)
        clients;
      check Alcotest.bool "info answered" true (!info_text <> "");
      check Alcotest.bool "atpg answered" true (!atpg_text <> "");
      Array.iter (fun (_, _, ic) -> close_in ic) clients)

let test_metrics_over_http () =
  with_server "metrics" (fun ~connect ~send ~request:_ ->
      let fd, ic = connect () in
      send fd "GET /metrics HTTP/1.0";
      let status = input_line ic in
      check Alcotest.bool "HTTP 200" true
        (String.length status >= 15 && String.sub status 0 15 = "HTTP/1.0 200 OK");
      let body = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string body (input_line ic);
           Buffer.add_char body '\n'
         done
       with End_of_file -> ());
      let body = Buffer.contents body in
      let has needle =
        let nl = String.length needle and bl = String.length body in
        let rec at i = i + nl <= bl && (String.sub body i nl = needle || at (i + 1)) in
        at 0
      in
      check Alcotest.bool "prometheus payload" true
        (has "pdf_serve_requests_total");
      close_in ic)

let () =
  Alcotest.run "pdf_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "frames round-trip" `Quick test_frames_round_trip;
        ] );
      ( "session",
        [
          Alcotest.test_case "second request re-parses nothing" `Quick
            test_second_request_reparses_nothing;
          Alcotest.test_case "explain/report consistency" `Quick
            test_explain_report_consistent;
          Alcotest.test_case "ledger matches provenance" `Quick
            test_ledger_matches_provenance;
        ] );
      ( "server",
        [
          Alcotest.test_case "served bytes = session bytes" `Quick
            test_served_equals_session;
          Alcotest.test_case "error codes" `Quick test_server_error_codes;
          Alcotest.test_case "4 concurrent clients demultiplexed" `Quick
            test_concurrent_clients_demultiplexed;
          Alcotest.test_case "/metrics over HTTP" `Quick test_metrics_over_http;
          Alcotest.test_case "config below 1 rejected" `Quick
            test_config_below_one_rejected;
        ] );
    ]
