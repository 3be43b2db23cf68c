module Metrics = Pdf_obs.Metrics
module Prom = Pdf_obs.Prom
module Log = Pdf_obs.Log

let c_connections = Metrics.counter "serve.connections"
let c_requests = Metrics.counter "serve.requests"
let c_errors = Metrics.counter "serve.errors"
let c_bytes_out = Metrics.counter "serve.bytes_out"
let g_clients = Metrics.gauge "serve.clients"

type bind = Unix_path of string | Tcp of string * int

let bind_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type config = {
  bind : bind;
  max_clients : int;
  max_line_bytes : int;
  max_n_p : int;
  max_n_p0 : int;
  chunk_bytes : int;
}

let default_config bind =
  {
    bind;
    max_clients = 64;
    max_line_bytes = 1024 * 1024;
    max_n_p = 20000;
    max_n_p0 = 2000;
    chunk_bytes = 8192;
  }

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable closed : bool;
}

type state = {
  cfg : config;
  session : Session.t;
  listen_fd : Unix.file_descr;
  clients : (Unix.file_descr, client) Hashtbl.t;
  queue : (client * string) Queue.t;
  mutable stop : bool;
}

(* ------------------------------------------------------------------ *)
(* Low-level I/O                                                       *)
(* ------------------------------------------------------------------ *)

let close_client st client =
  if not client.closed then begin
    client.closed <- true;
    Hashtbl.remove st.clients client.fd;
    Metrics.set_int g_clients (Hashtbl.length st.clients);
    try Unix.close client.fd with Unix.Unix_error _ -> ()
  end

(* Blocking full write; a client that vanished mid-answer is closed and
   the rest of its response dropped (SIGPIPE is ignored in [run]). *)
let send_raw st client data =
  if not client.closed then
    try
      let len = String.length data in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring client.fd data !off (len - !off)
      done;
      Metrics.add c_bytes_out len
    with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      close_client st client

let send_frame st client frame = send_raw st client (frame ^ "\n")

let send_error st client ~id code msg =
  Metrics.incr c_errors;
  send_frame st client (Protocol.error_frame ~id code msg)

(* ------------------------------------------------------------------ *)
(* Answer streaming                                                    *)
(* ------------------------------------------------------------------ *)

(* Raw chunking: fixed-size slices of the answer text. *)
let split_raw ~chunk_bytes text =
  let len = String.length text in
  if len = 0 then []
  else begin
    let chunks = ref [] in
    let off = ref 0 in
    while !off < len do
      let n = min chunk_bytes (len - !off) in
      chunks := String.sub text !off n :: !chunks;
      off := !off + n
    done;
    List.rev !chunks
  end

(* Record-boundary chunking for JSONL payloads (ledger slices): each
   chunk holds whole lines only, so every chunk is independently
   parseable as JSONL. *)
let split_lines ~chunk_bytes text =
  let len = String.length text in
  let chunks = ref [] and start = ref 0 and cut = ref 0 in
  let flush upto =
    if upto > !start then begin
      chunks := String.sub text !start (upto - !start) :: !chunks;
      start := upto
    end
  in
  String.iteri
    (fun i ch ->
      if ch = '\n' then begin
        if i + 1 - !start > chunk_bytes && !cut > !start then flush !cut;
        cut := i + 1
      end)
    text;
  flush !cut;
  flush len;
  List.rev !chunks

let respond st client ~id ~req ~cached ~split text =
  let chunks = split ~chunk_bytes:st.cfg.chunk_bytes text in
  List.iteri
    (fun seq data ->
      send_frame st client (Protocol.chunk_frame ~id ~seq data))
    chunks;
  send_frame st client
    (Protocol.done_frame ~id ~req ~chunks:(List.length chunks)
       ~bytes:(String.length text) ~cached)

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let session_error = function
  | Session.Unknown_circuit msg -> (Protocol.Unknown_circuit, msg)
  | Session.No_match msg -> (Protocol.No_match, msg)

let over_budget st (p : Session.params) =
  if p.Session.n_p > st.cfg.max_n_p then
    Some
      (Printf.sprintf "n_p %d exceeds the server budget (max %d)"
         p.Session.n_p st.cfg.max_n_p)
  else if p.Session.n_p0 > st.cfg.max_n_p0 then
    Some
      (Printf.sprintf "n_p0 %d exceeds the server budget (max %d)"
         p.Session.n_p0 st.cfg.max_n_p0)
  else None

let params_of = function
  | Protocol.Atpg { params; _ }
  | Protocol.Enrich { params; _ }
  | Protocol.Explain { params; _ }
  | Protocol.Why { params; _ }
  | Protocol.Report { params; _ }
  | Protocol.Ledger { params; _ } -> Some params
  | Protocol.Ping | Protocol.Hello | Protocol.Info _ | Protocol.Metrics
  | Protocol.Shutdown -> None

let execute st client ~id req =
  let name = Protocol.request_name req in
  let answer ?(split = split_raw) r =
    match r with
    | Ok (a : Session.answer) ->
      respond st client ~id ~req:name ~cached:a.Session.cached ~split
        a.Session.text
    | Error e ->
      let code, msg = session_error e in
      send_error st client ~id code msg
  in
  match
    match params_of req with Some p -> over_budget st p | None -> None
  with
  | Some msg -> send_error st client ~id Protocol.Budget_exceeded msg
  | None -> (
    match req with
    | Protocol.Ping ->
      send_frame st client
        (Protocol.done_frame ~id ~req:name ~chunks:0 ~bytes:0 ~cached:false)
    | Protocol.Hello ->
      respond st client ~id ~req:name ~cached:false ~split:split_raw
        (Protocol.hello_text ())
    | Protocol.Metrics ->
      respond st client ~id ~req:name ~cached:false ~split:split_raw
        (Prom.render ())
    | Protocol.Info { circuit } -> answer (Session.info st.session ~circuit)
    | Protocol.Atpg { circuit; params; ordering; relax } ->
      answer (Session.atpg st.session ~circuit ~params ~ordering ~relax)
    | Protocol.Enrich { circuit; params; coverage } ->
      answer (Session.enrich st.session ~circuit ~params ~coverage)
    | Protocol.Explain { circuit; params; query } ->
      answer (Session.explain st.session ~circuit ~params ~query)
    | Protocol.Why { circuit; params; query } ->
      answer (Session.why st.session ~circuit ~params ~query)
    | Protocol.Report { circuit; params } ->
      answer (Session.report st.session ~circuit ~params)
    | Protocol.Ledger { circuit; params } ->
      answer ~split:split_lines
        (Session.ledger_jsonl st.session ~circuit ~params)
    | Protocol.Shutdown ->
      send_frame st client
        (Protocol.done_frame ~id ~req:name ~chunks:0 ~bytes:0 ~cached:false);
      st.stop <- true)

let http_header = "HTTP/1.0 200 OK\r\nContent-Type: text/plain; \
                   version=0.0.4; charset=utf-8\r\nConnection: close\r\n\r\n"

let http_not_found =
  "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nConnection: \
   close\r\n\r\nonly /metrics is served over HTTP\n"

let process st (client, line) =
  if not client.closed then
    let line = String.trim line in
    if line = "" then ()
    else if String.length line >= 4 && String.sub line 0 4 = "GET " then begin
      (* Minimal HTTP endpoint for Prometheus scrapers: serve the live
         registry and close (any header lines the client pipelined
         after the request line die with the connection). *)
      Metrics.incr c_requests;
      if String.length line >= 12 && String.sub line 0 12 = "GET /metrics" then
        send_raw st client (http_header ^ Prom.render ())
      else send_raw st client http_not_found;
      close_client st client
    end
    else
      match Protocol.parse_request line with
      | Error (id, code, msg) -> send_error st client ~id code msg
      | Ok (id, req) -> (
        Metrics.incr c_requests;
        try execute st client ~id req
        with e ->
          send_error st client ~id Protocol.Internal (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Accept / read / line framing                                        *)
(* ------------------------------------------------------------------ *)

let accept st =
  match Unix.accept st.listen_fd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | fd, _addr ->
    let client = { fd; buf = Buffer.create 256; closed = false } in
    if Hashtbl.length st.clients >= st.cfg.max_clients then begin
      send_error st client ~id:0 Protocol.Busy
        (Printf.sprintf "server is at capacity (%d clients)"
           st.cfg.max_clients);
      client.closed <- true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      Metrics.incr c_connections;
      Hashtbl.add st.clients fd client;
      Metrics.set_int g_clients (Hashtbl.length st.clients)
    end

(* Split the client's accumulated bytes into complete lines; enqueue
   each in arrival order, keep the unterminated tail. *)
let drain_lines st client =
  let data = Buffer.contents client.buf in
  let len = String.length data in
  let start = ref 0 in
  (try
     while true do
       let nl = String.index_from data !start '\n' in
       Queue.add (client, String.sub data !start (nl - !start)) st.queue;
       start := nl + 1
     done
   with Not_found -> ());
  Buffer.clear client.buf;
  Buffer.add_substring client.buf data !start (len - !start);
  if Buffer.length client.buf > st.cfg.max_line_bytes then begin
    send_error st client ~id:0 Protocol.Line_too_long
      (Printf.sprintf "request line exceeds %d bytes" st.cfg.max_line_bytes);
    close_client st client
  end

let read_client st client =
  let bytes = Bytes.create 65536 in
  match Unix.read client.fd bytes 0 (Bytes.length bytes) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) ->
    close_client st client
  | 0 -> close_client st client
  | n ->
    Buffer.add_subbytes client.buf bytes 0 n;
    drain_lines st client

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let make_listen_socket bind =
  match bind with
  | Unix_path path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    fd
  | Tcp (host, port) ->
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    fd

(* A bound below 1 makes no progress: [split_raw] would never advance
   at [chunk_bytes = 0], and no request or client could be taken. *)
let check_config cfg =
  List.iter
    (fun (name, v) ->
      if v < 1 then
        invalid_arg (Printf.sprintf "Server.run: %s is %d, below 1" name v))
    [
      ("chunk_bytes", cfg.chunk_bytes);
      ("max_line_bytes", cfg.max_line_bytes);
      ("max_clients", cfg.max_clients);
    ]

let run ?(session = Session.create ()) ?ready cfg =
  check_config cfg;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = make_listen_socket cfg.bind in
  Unix.listen listen_fd 64;
  let st =
    {
      cfg;
      session;
      listen_fd;
      clients = Hashtbl.create 16;
      queue = Queue.create ();
      stop = false;
    }
  in
  (match ready with Some f -> f () | None -> ());
  Log.info "serve: listening on %s" (bind_to_string cfg.bind);
  while not st.stop do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) st.clients []
    in
    (match Unix.select fds [] [] (-1.) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = listen_fd then accept st
          else
            match Hashtbl.find_opt st.clients fd with
            | Some client -> read_client st client
            | None -> ())
        readable);
    (* Fair FIFO: every request queued so far executes to completion,
       in arrival order, before the next poll. *)
    while (not st.stop) && not (Queue.is_empty st.queue) do
      process st (Queue.pop st.queue)
    done
  done;
  Hashtbl.iter (fun _ client -> close_client st client)
    (Hashtbl.copy st.clients);
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  match cfg.bind with
  | Unix_path path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
