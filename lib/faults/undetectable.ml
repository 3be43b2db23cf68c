module Implication = Pdf_sim.Implication
module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Path = Pdf_paths.Path
module Metrics = Pdf_obs.Metrics
module Req = Pdf_values.Req

let m_assignments = Metrics.counter "undetectable.assignments"

let assignments () = Metrics.value m_assignments

type verdict =
  | Maybe_detectable
  | Direct_conflict
  | Implication_conflict of { net : int; component : int }

(* Classify from an empty state.  Afterwards [Implication.mark st] is
   the number of values the fault's conditions assigned: 0 on a direct
   conflict, which seeds nothing. *)
let classify_in st ~criterion c fault =
  Implication.reset st;
  match Robust.conditions ~criterion c fault with
  | None -> Direct_conflict
  | Some reqs -> (
    match Implication.extend st reqs with
    | None -> Maybe_detectable
    | Some { Implication.net; component } ->
      Implication_conflict { net; component })

let classify ?(criterion = Robust.Robust) c fault =
  classify_in (Implication.create c) ~criterion c fault

type stats = {
  kept : int;
  direct_conflicts : int;
  implication_conflicts : int;
}

(* One provenance record per eliminated fault; "component" is the
   pattern component (0 = first pattern, 1 = intermediate, 2 = second)
   whose implied value conflicted. *)
let record_eliminated ledger c f = function
  | Maybe_detectable -> ()
  | Direct_conflict ->
    Pdf_obs.Ledger.record ledger ~kind:"undetectable"
      [
        ("fault", Pdf_obs.Ledger.S (Fault.to_string c f));
        ("class", Pdf_obs.Ledger.S "direct_conflict");
      ]
  | Implication_conflict { net; component } ->
    Pdf_obs.Ledger.record ledger ~kind:"undetectable"
      [
        ("fault", Pdf_obs.Ledger.S (Fault.to_string c f));
        ("class", Pdf_obs.Ledger.S "implication_conflict");
        ("net", Pdf_obs.Ledger.S (Pdf_circuit.Circuit.net_name c net));
        ("component", Pdf_obs.Ledger.I component);
      ]

let per_fault ?(criterion = Robust.Robust) ?ledger c faults =
  let direct = ref 0 and implied = ref 0 and assigned = ref 0 in
  (* One implication state for every fault, reset per fault: a fresh
     state per fault would allocate three layers of every net each. *)
  let st = Implication.create c in
  let kept =
    List.filter
      (fun f ->
        let verdict = classify_in st ~criterion c f in
        assigned := !assigned + Implication.mark st;
        Option.iter (fun l -> record_eliminated l c f verdict) ledger;
        match verdict with
        | Maybe_detectable -> true
        | Direct_conflict ->
          incr direct;
          false
        | Implication_conflict _ ->
          incr implied;
          false)
      faults
  in
  Metrics.add m_assignments !assigned;
  ( kept,
    {
      kept = List.length kept;
      direct_conflicts = !direct;
      implication_conflicts = !implied;
    } )

(* ------------------------------------------------------------------ *)
(* Shared filter                                                        *)
(* ------------------------------------------------------------------ *)

(* A fault's A(p) in chunks, from the path's end back to its source.
   Chunk [d] of a path of [n] hops is the side inputs of hop [n - 1 - d],
   keyed by the hop's gate and pin and by the on-path transition entering
   the gate (bit 0, set when falling): the key fixes the chunk's
   requirements.  Chunk [n], keyed negative, is the source transition.
   Faults whose paths end alike share their first chunks. *)
let chunk_keys (c : Circuit.t) faults =
  let stride =
    1
    + Array.fold_left
        (fun m (g : Circuit.gate) -> max m (Array.length g.Circuit.fanins))
        0 c.Circuit.gates
  in
  let bit = function Fault.Rising -> 0 | Fault.Falling -> 1 in
  Array.map
    (fun (f : Fault.t) ->
      let hops = f.Fault.path.Path.hops in
      let n = Array.length hops in
      let keys = Array.make (n + 1) 0 in
      let dir = ref f.Fault.dir in
      for i = 0 to n - 1 do
        let h = hops.(i) in
        keys.(n - 1 - i) <-
          (((h.Path.gate * stride) + h.Path.pin) lsl 1) lor bit !dir;
        if Gate.inverting c.Circuit.gates.(h.Path.gate).Circuit.kind then
          dir := (match !dir with Fault.Rising -> Falling | Falling -> Rising)
      done;
      keys.(n) <- -1 - ((f.Fault.path.Path.source lsl 1) lor bit f.Fault.dir);
      keys)
    faults

(* [step] folded over the requirements of chunks [a, b) of [f]. *)
let fold_chunks ~criterion (c : Circuit.t) (f : Fault.t) keys a b step init =
  let hops = f.Fault.path.Path.hops in
  let n = Array.length hops in
  let acc = ref init in
  for d = a to b - 1 do
    if d = n then
      acc :=
        step !acc f.Fault.path.Path.source
          (Robust.source_requirement f.Fault.dir)
    else
      let h = hops.(n - 1 - d) in
      let g = c.Circuit.gates.(h.Path.gate) in
      let dir = if keys.(d) land 1 = 0 then Fault.Rising else Fault.Falling in
      match Robust.side_requirement ~criterion g.Circuit.kind dir with
      | None -> ()
      | Some r ->
        let fanins = g.Circuit.fanins in
        for pin = 0 to Array.length fanins - 1 do
          if pin <> h.Path.pin then acc := step !acc fanins.(pin) r
        done
  done;
  !acc

let compare_chunks a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else
      let d = Int.compare a.(i) b.(i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

let common_chunks a b =
  let l = min (Array.length a) (Array.length b) in
  let rec go i = if i < l && a.(i) = b.(i) then go (i + 1) else i in
  go 0

(* The visiting order, a depth-first walk of the trie of chunk
   sequences, and [shared.(k)], the chunks the [k]-th fault visited
   shares with the one before it.  Sorting by key groups the faults that
   share chunks; re-sorting by each group's first position in the input
   walks the same trie with its branches in input order.  The
   implication work does not depend on the branches' order, but its
   speed does: a pass over faults that share nothing runs in input
   order, as the per-fault pass does, and sorted by key it ran ~15%
   slower on [dec6]. *)
let visiting_order keys =
  let n = Array.length keys in
  let order = Array.init n Fun.id and shared = Array.make n 0 in
  let sort by =
    Array.stable_sort (fun i j -> compare_chunks by.(i) by.(j)) order;
    for k = 1 to n - 1 do
      shared.(k) <- common_chunks by.(order.(k - 1)) by.(order.(k))
    done
  in
  sort keys;
  (* [first.(f).(d)]: the first input position among the faults sharing
     chunks [0, d] with [f] — equal for two faults iff they share those
     chunks, as the keys are. *)
  let first = Array.map (fun k -> Array.make (Array.length k) 0) keys in
  let depth = Array.fold_left (fun m k -> max m (Array.length k)) 0 keys in
  for d = 0 to depth - 1 do
    let k = ref 0 in
    while !k < n do
      let stop = ref (!k + 1) in
      while !stop < n && shared.(!stop) > d do
        incr stop
      done;
      if Array.length keys.(order.(!k)) > d then begin
        let pos = ref max_int in
        for j = !k to !stop - 1 do
          pos := min !pos order.(j)
        done;
        for j = !k to !stop - 1 do
          first.(order.(j)).(d) <- !pos
        done
      end;
      k := !stop
    done
  done;
  sort first;
  (order, shared)

(* [stops.(k)]: the depths, ascending, at which the [k]-th fault visited
   takes a mark — those at which a later fault branches off its chunks.
   The [j]-th fault returns to depth [shared.(j)], which the last earlier
   fault sharing fewer chunks with its predecessor reached first: that
   fault takes the mark. *)
let branch_stops shared =
  let n = Array.length shared in
  let stops = Array.make n [] in
  let stack = Array.make n 0 and top = ref 0 in
  for j = 0 to n - 1 do
    while !top > 0 && shared.(stack.(!top - 1)) >= shared.(j) do
      decr top
    done;
    (if !top > 0 then
       let k = stack.(!top - 1) in
       match stops.(k) with
       | d :: _ when d = shared.(j) -> ()
       | l -> stops.(k) <- shared.(j) :: l);
    stack.(!top) <- j;
    incr top
  done;
  stops

(* Which faults conflict.  One state holds the fixpoint of the chunks the
   fault visited shares with the one before it, at a mark on a stack, and
   each fault extends only its own remaining chunks.  The chunks between
   two stops are seeded at once, so the implications run once per run of
   chunks that no later fault branches off.  A fault that shares chunks
   already in conflict is eliminated with no implication work.  Returns
   the flags by input position and the values assigned. *)
let conflicting st ~criterion c faults keys =
  let order, shared = visiting_order keys in
  let stops = branch_stops shared in
  let assigned = ref 0 in
  (* Extends [st] by chunks [a, b) of fault [f]; whether it conflicts. *)
  let extend f a b =
    let m0 = Implication.mark st in
    let reqs =
      fold_chunks ~criterion c faults.(f) keys.(f) a b
        (fun l net r -> (net, r) :: l)
        []
    in
    let conflict = Implication.extend st reqs in
    assigned := !assigned + (Implication.mark st - m0);
    Option.is_some conflict
  in
  (* Marks by depth, the depths strictly increasing from the empty state
     at depth 0. *)
  let depth = Array.fold_left (fun m k -> max m (Array.length k)) 0 keys in
  let mark_depth = Array.make (depth + 1) 0
  and mark_at = Array.make (depth + 1) 0
  and marks = ref 1 in
  (* The depth at which the state's chunks conflict, if they do. *)
  let conflict_depth = ref max_int in
  let eliminated = Array.make (Array.length faults) false in
  Array.iteri
    (fun k f ->
      if shared.(k) >= !conflict_depth then eliminated.(f) <- true
      else begin
        while mark_depth.(!marks - 1) > shared.(k) do
          decr marks
        done;
        assert (mark_depth.(!marks - 1) = shared.(k));
        Implication.undo st mark_at.(!marks - 1);
        conflict_depth := max_int;
        let len = Array.length keys.(f) in
        let rec go a = function
          | d :: rest ->
            if extend f a d then conflict_depth := d
            else begin
              mark_depth.(!marks) <- d;
              mark_at.(!marks) <- Implication.mark st;
              incr marks;
              go d rest
            end
          | [] -> if a < len && extend f a len then conflict_depth := len
        in
        go shared.(k) stops.(k);
        eliminated.(f) <- !conflict_depth < max_int
      end)
    order;
  (eliminated, !assigned)

(* Whether [A(p)] pins a line to two values ([Robust.conditions] is
   [None]), without its merged table: [seen.(net)] is [gen] once one of
   the fault's requirements fell on [net], whose merged [Req.bits] are
   then [pins.(net)]. *)
let direct_clash ~criterion c ~seen ~pins gen f keys =
  fold_chunks ~criterion c f keys 0 (Array.length keys)
    (fun clash net r ->
      let m = (if seen.(net) = gen then pins.(net) else 0) lor Req.bits r in
      seen.(net) <- gen;
      pins.(net) <- m;
      clash || Req.bits_conflict m)
    false

let filter ?(criterion = Robust.Robust) ?ledger c faults =
  let faults_a = Array.of_list faults in
  let keys = chunk_keys c faults_a in
  let st = Implication.create c in
  let eliminated, assigned = conflicting st ~criterion c faults_a keys in
  let assigned = ref assigned in
  let direct = ref 0 and implied = ref 0 in
  let seen = Array.make (Circuit.num_nets c) (-1)
  and pins = Array.make (Circuit.num_nets c) 0 in
  (* The class of an eliminated fault needs only its own conditions; the
     location of an implication conflict depends on the order of the
     seeds, so a ledger record takes it from the per-fault pass. *)
  Array.iteri
    (fun i f ->
      if eliminated.(i) then begin
        let is_direct =
          match ledger with
          | None -> direct_clash ~criterion c ~seen ~pins i f keys.(i)
          | Some l ->
            let verdict = classify_in st ~criterion c f in
            assigned := !assigned + Implication.mark st;
            record_eliminated l c f verdict;
            verdict = Direct_conflict
        in
        incr (if is_direct then direct else implied)
      end)
    faults_a;
  Metrics.add m_assignments !assigned;
  let kept = List.filteri (fun i _ -> not eliminated.(i)) faults in
  ( kept,
    {
      kept = List.length kept;
      direct_conflicts = !direct;
      implication_conflicts = !implied;
    } )
