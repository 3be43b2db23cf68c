(** The [pdfatpg serve] daemon: a Unix/TCP socket server answering
    {!Protocol} requests against one warm {!Session} (DESIGN.md §12).

    The server is a single-domain [select] loop with a fair FIFO
    scheduler: complete request lines are enqueued in arrival order
    (select round, then file-descriptor scan order within a round) and
    executed one at a time to completion, so concurrent clients share
    the session without races and answers stay deterministic.  The work
    of one request still parallelises internally — the pipeline's
    [?pool] entry points use the process default pool, so the CLI's
    [--jobs] reaches fault simulation and ATPG exactly as in batch
    mode.

    Budgets are enforced per request before any work starts:
    [max_n_p]/[max_n_p0] cap the enumeration budget (the driver of
    fold and justification cost), [max_line_bytes] bounds request
    framing, and [max_clients] bounds concurrent connections (excess
    connections receive a [busy] error frame and are closed).

    Besides the JSON protocol, a request line starting with
    [GET /metrics] receives the live Prometheus text exposition of the
    {!Pdf_obs.Metrics} registry as a plain HTTP response (and the
    connection closes) — point a Prometheus scraper or [curl] at a TCP
    bind.  Server activity is itself metered under [serve.*]
    (connections, requests, error frames, bytes out, live client
    gauge) next to the session's cache counters. *)

(** Listening address. *)
type bind =
  | Unix_path of string  (** a filesystem socket; unlinked on startup and shutdown *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val bind_to_string : bind -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

type config = {
  bind : bind;
  max_clients : int;  (** concurrent connections; excess get [busy] *)
  max_line_bytes : int;  (** request-framing bound ([line_too_long]) *)
  max_n_p : int;  (** per-request cap on [n_p] ([budget_exceeded]) *)
  max_n_p0 : int;  (** per-request cap on [n_p0] *)
  chunk_bytes : int;  (** answer-streaming slice size *)
}

val default_config : bind -> config
(** [max_clients = 64], [max_line_bytes = 1 MiB], [max_n_p = 20000],
    [max_n_p0 = 2000], [chunk_bytes = 8192]. *)

val run : ?session:Session.t -> ?ready:(unit -> unit) -> config -> unit
(** Bind, listen and serve until a [shutdown] request arrives; then
    close every connection (and unlink a Unix socket path) and return.
    [ready] is called once, after the socket is listening — in-process
    harnesses use it to know when to connect.  [session] defaults to a
    fresh empty session.  Raises [Invalid_argument] before making the
    socket when [chunk_bytes], [max_line_bytes] or [max_clients] is below
    1, and [Unix.Unix_error] when the bind itself fails (address in use,
    permission). *)
