module Circuit = Pdf_circuit.Circuit
module Heap = Pdf_util.Heap
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log

let m_steps = Metrics.counter "enumerate.steps"
let m_completed = Metrics.counter "enumerate.paths_completed"
let m_pruned = Metrics.counter "enumerate.paths_pruned"
let m_truncated = Metrics.counter "enumerate.truncated"

type mode = Simple | Distance_pruned

type event =
  | Completed of Path.t * int
  | Evicted of Path.t * int * bool

type result = {
  paths : (Path.t * int) list;
  steps : int;
  evicted : int;
  truncated : bool;
  events : event list;
}

type entry = {
  path : Path.t;
  length : int;
  len : int; (* len(p): best possible completion length; = length if complete *)
  complete : bool;
  mutable alive : bool;
}

let sort_completes completes =
  let alive = List.filter (fun e -> e.alive) completes in
  List.map (fun e -> (e.path, e.length)) alive
  |> List.sort (fun (p1, l1) (p2, l2) ->
         if l1 <> l2 then Int.compare l2 l1 else Path.compare p1 p2)

(* Children of a partial path entry: for each fanout branch of the last
   net, a complete child when the new net is a primary output and a
   partial child when it feeds further logic and can still reach an
   output. *)
let children c (model : Delay_model.t) dist e =
  let last = Path.last_net c e.path in
  let branch = Delay_model.branch_cost model c last in
  Array.fold_left
    (fun acc (g, pin) ->
      let out = Circuit.net_of_gate c g in
      let path = Path.extend e.path { Path.gate = g; pin } in
      let length = e.length + branch + model.Delay_model.stem.(out) in
      let acc =
        if (c : Circuit.t).is_po.(out) then
          { path; length; len = length; complete = true; alive = true } :: acc
        else acc
      in
      if Array.length c.fanouts.(out) > 0 && dist.(out) > Distance.unreachable
      then
        { path; length; len = length + dist.(out); complete = false;
          alive = true }
        :: acc
      else acc)
    [] c.fanouts.(last)
  |> List.rev

let initial_entries c (model : Delay_model.t) dist =
  List.concat_map
    (fun pi ->
      let path = Path.source_only pi in
      let length = model.Delay_model.stem.(pi) in
      let complete_entry =
        if (c : Circuit.t).is_po.(pi) then
          [ { path; length; len = length; complete = true; alive = true } ]
        else []
      in
      let partial_entry =
        if Array.length c.fanouts.(pi) > 0 && dist.(pi) > Distance.unreachable
        then
          [ { path; length; len = length + dist.(pi); complete = false;
              alive = true } ]
        else []
      in
      complete_entry @ partial_entry)
    (Circuit.pis c)

(* ------------------------------------------------------------------ *)
(* Distance-pruned mode                                                 *)
(* ------------------------------------------------------------------ *)

let run_distance c model dist ~max_paths ~max_steps ~record_events =
  let partials = Heap.create ~leq:(fun a b -> a.len >= b.len) in
  let all_min = Heap.create ~leq:(fun a b -> a.len <= b.len) in
  let all_max = Heap.create ~leq:(fun a b -> a.len >= b.len) in
  let completes = ref [] in
  let alive_count = ref 0 in
  let events = ref [] in
  let evicted = ref 0 in
  let record ev = if record_events then events := ev :: !events in
  let insert e =
    incr alive_count;
    Heap.push all_min e;
    Heap.push all_max e;
    if e.complete then begin
      completes := e :: !completes;
      record (Completed (e.path, e.length))
    end
    else Heap.push partials e
  in
  let kill e =
    e.alive <- false;
    decr alive_count
  in
  let stale e = not e.alive in
  let max_alive_len () =
    match Heap.pop_while all_max stale with
    | None -> Distance.unreachable
    | Some e ->
      Heap.push all_max e;
      e.len
  in
  let evict_down () =
    let continue = ref true in
    while !alive_count >= max_paths && !continue do
      match Heap.pop_while all_min stale with
      | None -> continue := false
      | Some victim ->
        let max_len = max_alive_len () in
        (* [victim] is alive, hence counted in [max_len]. *)
        if victim.len >= max_len then begin
          Heap.push all_min victim;
          continue := false
        end
        else begin
          kill victim;
          incr evicted;
          record (Evicted (victim.path, victim.length, victim.complete))
        end
    done
  in
  List.iter insert (initial_entries c model dist);
  evict_down ();
  let steps = ref 0 in
  let truncated = ref false in
  let running = ref true in
  while !running do
    if !steps >= max_steps then begin
      truncated := true;
      running := false
    end
    else
      match Heap.pop_while partials stale with
      | None -> running := false
      | Some e ->
        incr steps;
        kill e;
        List.iter insert (children c model dist e);
        evict_down ()
  done;
  {
    paths = sort_completes !completes;
    steps = !steps;
    evicted = !evicted;
    truncated = !truncated;
    events = List.rev !events;
  }

(* ------------------------------------------------------------------ *)
(* Simple mode (paper's moderate-circuit procedure, cf. Table 1)        *)
(* ------------------------------------------------------------------ *)

let run_simple c model dist ~max_paths ~max_steps ~record_events =
  let entries : entry list ref = ref (initial_entries c model dist) in
  let events = ref [] in
  let evicted = ref 0 in
  let record ev = if record_events then events := ev :: !events in
  List.iter
    (fun e -> if e.complete then record (Completed (e.path, e.length)))
    !entries;
  let alive () = List.filter (fun e -> e.alive) !entries in
  let evict_down () =
    let continue = ref true in
    while List.length (alive ()) >= max_paths && !continue do
      let completes = List.filter (fun e -> e.complete) (alive ()) in
      match completes with
      | [] -> continue := false
      | first :: rest ->
        let min_len =
          List.fold_left (fun acc e -> min acc e.length) first.length rest
        in
        let max_len =
          List.fold_left (fun acc e -> max acc e.length) first.length rest
        in
        if min_len >= max_len then continue := false
        else begin
          let victim =
            List.find (fun e -> e.length = min_len) completes
          in
          victim.alive <- false;
          incr evicted;
          record (Evicted (victim.path, victim.length, true))
        end
    done
  in
  evict_down ();
  let steps = ref 0 in
  let truncated = ref false in
  let running = ref true in
  while !running do
    if !steps >= max_steps then begin
      truncated := true;
      running := false
    end
    else
      match List.find_opt (fun e -> e.alive && not e.complete) !entries with
      | None -> running := false
      | Some e ->
        incr steps;
        e.alive <- false;
        let kids = children c model dist e in
        List.iter
          (fun k ->
            if k.complete then record (Completed (k.path, k.length)))
          kids;
        (* Mimic the paper's list bookkeeping: the first child takes the
           parent's position, the rest are appended at the end. *)
        (match kids with
        | [] -> ()
        | first :: rest ->
          entries :=
            List.concat_map
              (fun x -> if x == e then [ first ] else [ x ])
              !entries
            @ rest);
        evict_down ()
  done;
  let completes = List.filter (fun e -> e.complete) !entries in
  {
    paths = sort_completes completes;
    steps = !steps;
    evicted = !evicted;
    truncated = !truncated;
    events = List.rev !events;
  }

let min_max_paths = 1

let enumerate ?(mode = Distance_pruned) ?(record_events = false) ?max_steps c
    model ~max_paths =
  if max_paths < min_max_paths then
    invalid_arg "Enumerate.enumerate: max_paths <= 0";
  let max_steps =
    match max_steps with Some s -> s | None -> (100 * max_paths) + 10_000
  in
  Span.with_ "enumerate" (fun () ->
      let dist = Distance.compute c model in
      let r =
        match mode with
        | Distance_pruned ->
          run_distance c model dist ~max_paths ~max_steps ~record_events
        | Simple ->
          run_simple c model dist ~max_paths ~max_steps ~record_events
      in
      Metrics.add m_steps r.steps;
      Metrics.add m_completed (List.length r.paths);
      Metrics.add m_pruned r.evicted;
      if r.truncated then Metrics.incr m_truncated;
      Log.debug "enumerate: %d complete paths, %d steps, %d pruned%s"
        (List.length r.paths) r.steps r.evicted
        (if r.truncated then " (truncated)" else "");
      r)
