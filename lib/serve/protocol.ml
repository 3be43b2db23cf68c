module J = Pdf_obs.Json_text
module Ordering = Pdf_core.Ordering

type request =
  | Ping
  | Hello
  | Info of { circuit : string }
  | Atpg of {
      circuit : string;
      params : Session.params;
      ordering : Ordering.t;
      relax : bool;
    }
  | Enrich of { circuit : string; params : Session.params; coverage : bool }
  | Explain of { circuit : string; params : Session.params; query : string }
  | Why of { circuit : string; params : Session.params; query : string }
  | Report of { circuit : string; params : Session.params }
  | Ledger of { circuit : string; params : Session.params }
  | Metrics
  | Shutdown

let request_name = function
  | Ping -> "ping"
  | Hello -> "hello"
  | Info _ -> "info"
  | Atpg _ -> "atpg"
  | Enrich _ -> "enrich"
  | Explain _ -> "explain"
  | Why _ -> "why"
  | Report _ -> "report"
  | Ledger _ -> "ledger"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let protocol_version = 1

type error_code =
  | Parse_error
  | Bad_request
  | Bad_params
  | Unknown_circuit
  | No_match
  | Budget_exceeded
  | Line_too_long
  | Busy
  | Internal

let code_string = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Bad_params -> "bad_params"
  | Unknown_circuit -> "unknown_circuit"
  | No_match -> "no_match"
  | Budget_exceeded -> "budget_exceeded"
  | Line_too_long -> "line_too_long"
  | Busy -> "busy"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad of string
exception Unknown_kind of string

let get fields k = List.assoc_opt k fields

let get_string fields k =
  match get fields k with
  | None -> None
  | Some (J.Str s) -> Some s
  | Some _ -> raise (Bad (Printf.sprintf "%S must be a string" k))

let get_int fields k =
  match get fields k with
  | None -> None
  | Some (J.Num f) when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> raise (Bad (Printf.sprintf "%S must be an integer" k))

let get_bool fields k =
  match get fields k with
  | None -> None
  | Some (J.Bool b) -> Some b
  | Some _ -> raise (Bad (Printf.sprintf "%S must be a boolean" k))

let require_string fields k =
  match get_string fields k with
  | Some s -> s
  | None -> raise (Bad (Printf.sprintf "missing required field %S" k))

(* Unknown fields are rejected, not ignored: a misspelt "n_p" silently
   falling back to the default would be a debugging trap in a cached,
   deterministic service. *)
let check_fields fields allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        raise (Bad (Printf.sprintf "unknown field %S" k)))
    fields

let params_fields = [ "n_p"; "n_p0"; "seed"; "criterion"; "justify" ]

let get_params fields =
  let d = Pdf_core.Job.default in
  (* The library's own bounds: a smaller value is a bad request, not an
     internal error. *)
  let at_least lo k v =
    if v < lo then raise (Bad (Printf.sprintf "%S must be >= %d" k lo));
    v
  in
  let criterion =
    match get_string fields "criterion" with
    | None -> d.Session.criterion
    | Some s -> (
      match Pdf_faults.Robust.criterion_of_name s with
      | Some c -> c
      | None -> raise (Bad (Printf.sprintf "unknown criterion %S" s)))
  in
  let justify =
    match get_string fields "justify" with
    | None -> Session.effective_default_justify ()
    | Some s -> (
      match Pdf_core.Justify.kind_of_name s with
      | Some k -> k
      | None -> raise (Bad (Printf.sprintf "unknown justify backend %S" s)))
  in
  {
    Session.n_p =
      (match get_int fields "n_p" with
      | None -> d.Session.n_p
      | Some v -> at_least Pdf_faults.Target_sets.min_n_p "n_p" v);
    n_p0 =
      (match get_int fields "n_p0" with
      | None -> d.Session.n_p0
      | Some v -> at_least Pdf_faults.Target_sets.min_n_p0 "n_p0" v);
    seed = Option.value ~default:d.Session.seed (get_int fields "seed");
    criterion;
    justify;
  }

let build_request kind fields =
  let base = [ "id"; "req" ] in
  let circuit () = require_string fields "circuit" in
  match kind with
  | "ping" ->
    check_fields fields base;
    Ping
  | "hello" ->
    check_fields fields base;
    Hello
  | "metrics" ->
    check_fields fields base;
    Metrics
  | "shutdown" ->
    check_fields fields base;
    Shutdown
  | "info" ->
    check_fields fields (base @ [ "circuit" ]);
    Info { circuit = circuit () }
  | "atpg" ->
    check_fields fields
      (base @ [ "circuit"; "ordering"; "relax" ] @ params_fields);
    let ordering =
      match get_string fields "ordering" with
      | None -> Ordering.Value_based
      | Some s -> (
        match Ordering.of_name s with
        | Some o -> o
        | None -> raise (Bad (Printf.sprintf "unknown ordering %S" s)))
    in
    Atpg
      {
        circuit = circuit ();
        params = get_params fields;
        ordering;
        relax = Option.value ~default:false (get_bool fields "relax");
      }
  | "enrich" ->
    check_fields fields (base @ [ "circuit"; "coverage" ] @ params_fields);
    Enrich
      {
        circuit = circuit ();
        params = get_params fields;
        coverage = Option.value ~default:false (get_bool fields "coverage");
      }
  | "explain" ->
    check_fields fields (base @ [ "circuit"; "query" ] @ params_fields);
    Explain
      {
        circuit = circuit ();
        params = get_params fields;
        query = require_string fields "query";
      }
  | "why" ->
    check_fields fields (base @ [ "circuit"; "query" ] @ params_fields);
    Why
      {
        circuit = circuit ();
        params = get_params fields;
        query = require_string fields "query";
      }
  | "report" ->
    check_fields fields (base @ [ "circuit" ] @ params_fields);
    Report { circuit = circuit (); params = get_params fields }
  | "ledger" ->
    check_fields fields (base @ [ "circuit" ] @ params_fields);
    Ledger { circuit = circuit (); params = get_params fields }
  | other -> raise (Unknown_kind other)

let parse_request line =
  match J.parse line with
  | Error msg -> Error (0, Parse_error, msg)
  | Ok (J.Obj fields) -> (
    match
      match get fields "id" with
      | None -> Ok 0
      | Some (J.Num f) when Float.is_integer f && Float.abs f < 1e15 ->
        Ok (int_of_float f)
      | Some _ -> Error "\"id\" must be an integer"
    with
    | Error msg -> Error (0, Bad_params, msg)
    | Ok id -> (
      match get fields "req" with
      | None -> Error (id, Bad_request, "missing required field \"req\"")
      | Some (J.Str kind) -> (
        try Ok (id, build_request kind fields) with
        | Unknown_kind other ->
          Error
            (id, Bad_request, Printf.sprintf "unknown request kind %S" other)
        | Bad msg -> Error (id, Bad_params, msg))
      | Some _ -> Error (id, Bad_request, "\"req\" must be a string")))
  | Ok _ -> Error (0, Parse_error, "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* Response frames                                                     *)
(* ------------------------------------------------------------------ *)

let chunk_frame ~id ~seq data =
  Printf.sprintf "{\"id\":%d,\"ev\":\"chunk\",\"seq\":%d,\"data\":%s}" id seq
    (J.quote data)

let done_frame ~id ~req ~chunks ~bytes ~cached =
  Printf.sprintf
    "{\"id\":%d,\"ev\":\"done\",\"req\":%s,\"chunks\":%d,\"bytes\":%d,\"cached\":%b}"
    id (J.quote req) chunks bytes cached

let error_frame ~id code message =
  Printf.sprintf "{\"id\":%d,\"ev\":\"error\",\"code\":%s,\"message\":%s}" id
    (J.quote (code_string code))
    (J.quote message)

let hello_text () =
  Printf.sprintf "{\"server\":\"pdfatpg\",\"protocol\":%d,\"fingerprint\":%s}\n"
    protocol_version
    (J.quote
       (Pdf_obs.Fingerprint.summary_line (Pdf_obs.Fingerprint.capture ())))
