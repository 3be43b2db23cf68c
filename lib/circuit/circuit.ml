type gate = { kind : Gate.kind; fanins : int array }

type t = {
  name : string;
  num_pis : int;
  gates : gate array;
  pos : int array;
  net_names : string array;
  fanouts : (int * int) array array;
  is_po : bool array;
  level : int array;
  by_name : (string, int) Hashtbl.t;
}

let num_nets t = t.num_pis + Array.length t.gates

let num_gates t = Array.length t.gates

let num_pos t = Array.length t.pos

let is_pi t net = net < t.num_pis

let net_of_gate t i = t.num_pis + i

let gate_of_net t net = if net < t.num_pis then None else Some (net - t.num_pis)

let net_name t net = t.net_names.(net)

let find_net t name = Hashtbl.find_opt t.by_name name

let fanout_count t net = Array.length t.fanouts.(net)

let depth t = Array.fold_left max 0 t.level

let level t net = t.level.(net)

let pis t = List.init t.num_pis (fun i -> i)

let unsafe_make ~name ~num_pis ~gates ~pos ~net_names =
  let n = num_pis + Array.length gates in
  if Array.length net_names <> n then
    invalid_arg "Circuit.unsafe_make: net_names length mismatch";
  let fanout_lists = Array.make n [] in
  let level = Array.make n 0 in
  Array.iteri
    (fun i g ->
      let out = num_pis + i in
      let lvl = ref 0 in
      Array.iteri
        (fun pin fanin ->
          if fanin < 0 || fanin >= out then
            invalid_arg
              (Printf.sprintf
                 "Circuit.unsafe_make: gate %d reads net %d, not topological"
                 i fanin);
          fanout_lists.(fanin) <- (i, pin) :: fanout_lists.(fanin);
          lvl := max !lvl level.(fanin))
        g.fanins;
      level.(out) <- !lvl + 1)
    gates;
  (* The levelized invariant, asserted once for every consumer: each
     fanin lives strictly below its gate's output level.  It follows
     from the topological check above, but stating it here makes the
     construction the single point where level order is trusted. *)
  Array.iteri
    (fun i g ->
      let out = num_pis + i in
      Array.iter
        (fun fanin ->
          if level.(fanin) >= level.(out) then
            invalid_arg
              (Printf.sprintf
                 "Circuit.unsafe_make: gate %d breaks the levelized order"
                 i))
        g.fanins)
    gates;
  Array.iter
    (fun po ->
      if po < 0 || po >= n then
        invalid_arg "Circuit.unsafe_make: PO net out of range")
    pos;
  let fanouts = Array.map (fun l -> Array.of_list (List.rev l)) fanout_lists in
  let is_po = Array.make n false in
  Array.iter (fun po -> is_po.(po) <- true) pos;
  let by_name = Hashtbl.create n in
  Array.iteri (fun net nm -> Hashtbl.replace by_name nm net) net_names;
  { name; num_pis; gates; pos; net_names; fanouts; is_po; level; by_name }

let validate t =
  let n = num_nets t in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  try
    Array.iteri
      (fun i g ->
        let out = t.num_pis + i in
        if Array.length g.fanins < Gate.min_arity g.kind then
          raise (Bad (Printf.sprintf "gate %d: arity too small" i));
        Array.iteri
          (fun pin fanin ->
            if fanin < 0 || fanin >= out then
              raise (Bad (Printf.sprintf "gate %d: non-topological fanin" i));
            let found =
              Array.exists (fun (g', p') -> g' = i && p' = pin) t.fanouts.(fanin)
            in
            if not found then
              raise (Bad (Printf.sprintf "net %d: missing fanout entry" fanin)))
          g.fanins;
        let expect =
          1 + Array.fold_left (fun acc f -> max acc t.level.(f)) 0 g.fanins
        in
        if t.level.(out) <> expect then
          raise (Bad (Printf.sprintf "net %d: wrong level" out)))
      t.gates;
    Array.iter
      (fun po ->
        if po < 0 || po >= n then raise (Bad "PO out of range");
        if not t.is_po.(po) then raise (Bad "is_po inconsistent"))
      t.pos;
    Ok ()
  with Bad msg -> fail "%s: %s" t.name msg
