(* In-memory span recorder for the traced run.

   Spans wrap the calls the benchmark makes into the library's layers;
   nothing inside the library is instrumented.  Only the main domain
   records, so nesting follows the benchmark's own call stack.  Spans
   stay in memory until [write] at exit. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

let enabled = ref false
let closed : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let top () = match !stack with p :: _ -> p | [] -> -1

let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = top () in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        closed :=
          { id; name; parent; start; stop = Unix.gettimeofday () } :: !closed)
      f
  end

let duration s = s.stop -. s.start

(* Self time and count per span name: a span's duration minus the part
   of it that its children cover. *)
let self_times () =
  let covered = Hashtbl.create 1024 in
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent (get covered s.parent +. duration s))
    !closed;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let t, n =
        Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        (t +. duration s -. get covered s.id, n + 1))
    !closed;
  Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) by_name []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write path =
  let spans = List.sort (fun a b -> Int.compare a.id b.id) !closed in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n\
         {\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        (Pdf_obs.Json_text.quote s.name)
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6) s.id s.parent)
    spans;
  output_string oc "\n]}\n";
  close_out oc
