module Enumerate = Pdf_paths.Enumerate
module Histogram = Pdf_paths.Histogram
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log

let g_p = Metrics.gauge "target_sets.p_size"
let g_p0 = Metrics.gauge "target_sets.p0_size"
let g_p1 = Metrics.gauge "target_sets.p1_size"
let g_cutoff = Metrics.gauge "target_sets.cutoff_length"
let g_i0 = Metrics.gauge "target_sets.i0"
let m_undet_direct = Metrics.counter "target_sets.undetectable_direct"
let m_undet_implication = Metrics.counter "target_sets.undetectable_implication"

type entry = { fault : Fault.t; length : int }

type t = {
  p : entry list;
  p0 : entry list;
  p1 : entry list;
  i0 : int;
  cutoff_length : int;
  histogram : Histogram.t;
  undetectable : Undetectable.stats;
  enumeration : Enumerate.result;
}

let paper_n_p = 10_000

let paper_n_p0 = 1_000

let min_n_p = 2

let min_n_p0 = 1

let build ?(mode = Enumerate.Distance_pruned) ?(criterion = Robust.Robust)
    ?ledger c model ~n_p ~n_p0 =
  if n_p < min_n_p then invalid_arg "Target_sets.build: n_p < 2";
  if n_p0 < min_n_p0 then invalid_arg "Target_sets.build: n_p0 < 1";
  Span.with_ "target-sets" (fun () ->
  let enumeration =
    Enumerate.enumerate ~mode c model ~max_paths:(n_p / 2)
  in
  let all_faults =
    List.concat_map
      (fun (path, length) ->
        List.map (fun fault -> (fault, length)) (Fault.both path))
      enumeration.Enumerate.paths
  in
  let kept, undetectable =
    Span.with_ "undetectable" (fun () ->
    let faults = List.map fst all_faults in
    let kept_faults, stats = Undetectable.filter ~criterion ?ledger c faults in
    let lengths = Hashtbl.create 64 in
    List.iter
      (fun (f, l) -> Hashtbl.replace lengths f.Fault.path l)
      all_faults;
    ( List.map
        (fun f -> { fault = f; length = Hashtbl.find lengths f.Fault.path })
        kept_faults,
      stats ))
  in
  let p =
    List.sort
      (fun a b ->
        if a.length <> b.length then Int.compare b.length a.length
        else Fault.compare a.fault b.fault)
      kept
  in
  let histogram = Histogram.of_lengths (List.map (fun e -> e.length) p) in
  let i0 =
    match Histogram.select_i0 histogram ~threshold:n_p0 with
    | Some i -> i
    | None -> max 0 (List.length histogram - 1)
  in
  let cutoff_length =
    if histogram = [] then 0 else Histogram.cutoff_length histogram ~rank:i0
  in
  let p0 = List.filter (fun e -> e.length >= cutoff_length) p in
  let p1 = List.filter (fun e -> e.length < cutoff_length) p in
  Metrics.set_int g_p (List.length p);
  Metrics.set_int g_p0 (List.length p0);
  Metrics.set_int g_p1 (List.length p1);
  Metrics.set_int g_cutoff cutoff_length;
  Metrics.set_int g_i0 i0;
  Metrics.add m_undet_direct
    undetectable.Undetectable.direct_conflicts;
  Metrics.add m_undet_implication
    undetectable.Undetectable.implication_conflicts;
  Log.event ~fields:
    [ ("p", string_of_int (List.length p));
      ("p0", string_of_int (List.length p0));
      ("p1", string_of_int (List.length p1));
      ("cutoff", string_of_int cutoff_length);
      ("undet_direct",
       string_of_int undetectable.Undetectable.direct_conflicts);
      ("undet_implication",
       string_of_int undetectable.Undetectable.implication_conflicts) ]
    "target_sets.build";
  { p; p0; p1; i0; cutoff_length; histogram; undetectable; enumeration })

let split_multi t ~thresholds =
  let rec check_increasing prev = function
    | [] -> ()
    | th :: rest ->
      if th <= prev then
        invalid_arg "Target_sets.split_multi: thresholds must increase";
      check_increasing th rest
  in
  check_increasing 0 thresholds;
  (* Convert each cumulative threshold into a length cutoff using the
     same rule as the [N_P0] selection, then slice [P] by length. *)
  let cutoff_for threshold =
    match Histogram.select_i0 t.histogram ~threshold with
    | Some rank -> Histogram.cutoff_length t.histogram ~rank
    | None -> min_int (* everything qualifies *)
  in
  let cutoffs = List.map cutoff_for thresholds in
  let rec slice remaining = function
    | [] -> [ remaining ]
    | cutoff :: rest ->
      let inside, outside =
        List.partition (fun e -> e.length >= cutoff) remaining
      in
      inside :: slice outside rest
  in
  slice t.p cutoffs
