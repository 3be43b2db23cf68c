(* A served session for the serve-layer probe: Server.run on its own
   domain, reached over one Unix-socket connection inside the checkout. *)

open Common
module Session = Pdf_serve.Session
module Server = Pdf_serve.Server
module Protocol = Pdf_serve.Protocol
module J = Pdf_obs.Json_text

type t = {
  domain : unit Domain.t;
  fd : Unix.file_descr;
  pending : Buffer.t;  (** bytes received after the last complete frame *)
}

(* Request bodies are JSON objects without their opening brace, so one
   body can be sent under any id. *)
let line ~id body = Printf.sprintf "{\"id\":%d,%s" id body

let params ~n_p ~n_p0 ~seed ~justify =
  Printf.sprintf "\"n_p\":%d,\"n_p0\":%d,\"seed\":%d,\"justify\":%s" n_p n_p0
    seed (J.quote justify)

let body req ~circuit fields =
  Printf.sprintf "\"req\":%s,\"circuit\":%s%s}" (J.quote req) (J.quote circuit)
    (if fields = "" then "" else "," ^ fields)

let start session =
  ensure_out_dir ();
  let path = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Server.run ~session
          ~ready:(fun () -> Atomic.set ready true)
          (Server.default_config (Server.Unix_path path)))
  in
  let t_end = now () +. 10. in
  while not (Atomic.get ready) do
    if now () > t_end then failwith "the server did not start";
    Unix.sleepf 0.001
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { domain; fd; pending = Buffer.create 65536 }

let send t body_line =
  let s = body_line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring t.fd s !off (len - !off)
  done

let scratch = Bytes.create 65536

(* One read (the caller knows the socket is readable, or is willing to
   block); returns the frames it completed. *)
let read_frames t =
  let n = Unix.read t.fd scratch 0 (Bytes.length scratch) in
  if n = 0 then failwith "the server closed the connection";
  Buffer.add_subbytes t.pending scratch 0 n;
  let rec split acc = function
    | [ tail ] -> (List.rev acc, tail)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, "")
  in
  let frames, tail =
    split [] (String.split_on_char '\n' (Buffer.contents t.pending))
  in
  Buffer.clear t.pending;
  Buffer.add_string t.pending tail;
  frames

(* Protocol renders every frame as {"id":N,"ev":"KIND",...}. *)
let frame_head frame =
  Scanf.sscanf frame "{\"id\":%d,\"ev\":\"%[a-z]\"" (fun id ev -> (id, ev))

let chunk_data frame =
  match J.parse frame with
  | Error msg -> failwith ("unparsable frame: " ^ msg)
  | Ok v -> (
    match Option.bind (J.member "data" v) J.to_str with
    | Some d -> d
    | None -> failwith "chunk frame without data")

(* Send one request and wait for its response: the reassembled answer,
   or the error frame. *)
let round_trip t ~id body =
  send t (line ~id body);
  let answer = Buffer.create 1024 in
  let rec wait = function
    | [] -> wait (read_frames t)
    | f :: rest -> (
      match frame_head f with
      | fid, _ when fid <> id -> failwith ("frame for an unexpected id: " ^ f)
      | _, "chunk" ->
        Buffer.add_string answer (chunk_data f);
        wait rest
      | _, "done" -> Ok (Buffer.contents answer)
      | _ -> Error f)
  in
  wait []

let stop t =
  ignore (round_trip t ~id:(-1) "\"req\":\"shutdown\"}" : (string, string) result);
  Domain.join t.domain;
  Unix.close t.fd

(* The in-process session's answer to a request body: the same dispatch
   the server performs for the same line. *)
let in_process session body =
  match Protocol.parse_request (line ~id:0 body) with
  | Error (_, _, msg) -> Error msg
  | Ok (_, req) ->
    let r =
      match req with
      | Protocol.Info { circuit } -> Session.info session ~circuit
      | Protocol.Atpg { circuit; params; ordering; relax } ->
        Session.atpg session ~circuit ~params ~ordering ~relax
      | Protocol.Enrich { circuit; params; coverage } ->
        Session.enrich session ~circuit ~params ~coverage
      | Protocol.Explain { circuit; params; query } ->
        Session.explain session ~circuit ~params ~query
      | Protocol.Why { circuit; params; query } ->
        Session.why session ~circuit ~params ~query
      | Protocol.Report { circuit; params } ->
        Session.report session ~circuit ~params
      | Protocol.Ledger { circuit; params } ->
        Session.ledger_jsonl session ~circuit ~params
      | Protocol.Ping | Protocol.Hello | Protocol.Metrics | Protocol.Shutdown ->
        invalid_arg "Served.in_process: not a session query"
    in
    Result.map_error Session.error_message r
    |> Result.map (fun (a : Session.answer) -> a.Session.text)

(* Answer-cache hits and computed answers so far, process-wide. *)
let answer_counts () =
  let v name = Pdf_obs.Metrics.value (Pdf_obs.Metrics.counter name) in
  (v "serve.session.answer_hits", v "serve.session.answers")

let hit_ratio (h0, a0) (h1, a1) = ratio (h1 - h0) (h1 - h0 + (a1 - a0))

(* Per-call seconds of [f], timed over [reps] calls at once: single
   calls are near the clock's resolution. *)
let per_call name reps f =
  snd (timed name (fun () -> for _ = 1 to reps do ignore (f ()) done))
  /. float_of_int reps

(* Serve layers on [hits] (bodies answered from the warm cache after one
   computing call) and [misses] (bodies never asked before): protocol
   parsing and framing, the session in process, hit round trips over
   the socket one at a time (server overhead), and each of the second
   half of the misses pipelined with a hit behind it (queueing). *)
let probe ~hits ~misses =
  let reps = 20 in
  let session = Session.create () in
  let srv = start session in
  let counts0 = answer_counts () in
  let texts =
    List.map
      (fun b ->
        match round_trip srv ~id:1 b with
        | Ok s -> s
        | Error f -> failwith ("serve probe: " ^ f))
      hits
  in
  let sock =
    List.map
      (fun b ->
        Stat.median
          (Array.init reps (fun _ ->
               snd (timed "serve.round_trip" (fun () -> round_trip srv ~id:2 b)))))
      hits
  in
  let inproc =
    List.map
      (fun b ->
        Stat.median
          (Array.init reps (fun _ ->
               snd (timed "serve.session.hit" (fun () -> in_process session b)))))
      hits
  in
  let half = List.length misses / 2 in
  let miss_s =
    List.filteri (fun i _ -> i < half) misses
    |> List.map (fun b ->
           snd (timed "serve.session.miss" (fun () -> in_process session b)))
  in
  let hit_body = List.hd hits and hit_s = List.hd inproc in
  let queued_s =
    List.filteri (fun i _ -> i >= half) misses
    |> List.map (fun b ->
           let t0 = now () in
           send srv (line ~id:3 b);
           send srv (line ~id:4 hit_body);
           let rec wait = function
             | [] -> wait (read_frames srv)
             | f :: rest -> (
               match frame_head f with
               | 4, ("done" | "error") -> now ()
               | 3, "error" -> failwith ("serve probe: " ^ f)
               | _ -> wait rest)
           in
           wait [] -. t0 -. hit_s)
  in
  let counts1 = answer_counts () in
  stop srv;
  let parse_us =
    Stat.median
      (Array.of_list
         (List.map
            (fun b ->
              let l = line ~id:5 b in
              per_call "serve.protocol.parse" reps (fun () ->
                  Protocol.parse_request l))
            (hits @ misses)))
    *. 1e6
  in
  let frame_us =
    Stat.median
      (Array.of_list
         (List.map
            (fun text ->
              let data = String.sub text 0 (min 8192 (String.length text)) in
              per_call "serve.protocol.frame" reps (fun () ->
                  Protocol.chunk_frame ~id:1 ~seq:0 data
                  ^ Protocol.done_frame ~id:1 ~req:"info" ~chunks:1
                      ~bytes:(String.length data) ~cached:true))
            texts))
    *. 1e6
  in
  [
    metric "serve.protocol.parse_us" "us" parse_us;
    metric "serve.protocol.frame_us" "us" frame_us;
    metric "serve.session.hit_us" "us" (Stat.median (Array.of_list inproc) *. 1e6);
    metric "serve.session.miss_ms" "ms" (Stat.median (Array.of_list miss_s) *. 1e3);
    metric "serve.session.hit_ratio" "ratio" (hit_ratio counts0 counts1);
    metric "serve.server.overhead_us" "us"
      (Stat.median (Array.of_list (List.map2 (fun s i -> (s -. i) *. 1e6) sock inproc)));
    metric "serve.server.queue_ms" "ms" (Stat.median (Array.of_list queued_s) *. 1e3);
  ]
