module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Req = Pdf_values.Req
module Path = Pdf_paths.Path

type criterion = Robust | Non_robust

let criterion_name = function Robust -> "robust" | Non_robust -> "nonrobust"

let criterion_of_name s =
  match String.lowercase_ascii s with
  | "robust" -> Some Robust
  | "nonrobust" | "non-robust" -> Some Non_robust
  | _ -> None

let flip = function Fault.Rising -> Fault.Falling | Fault.Falling -> Fault.Rising

let source_requirement = function
  | Fault.Rising -> Req.rising
  | Fault.Falling -> Req.falling

(* Off-path requirement at a gate with controlling value [cv], given the
   on-path transition direction arriving at the gate: the
   non-controlling value, hazard-free through both patterns ([stable])
   or under the second pattern only ([final]).  Robust tests need a
   hazard-free side when the transition ends at the controlling value;
   non-robust tests always settle for the second pattern alone.  XOR
   and XNOR sides are stable 0.  The four values are built once, as the
   options returned: the filter reads one per hop of every fault. *)
let side_values =
  Array.map Option.some
    [| Req.final false; Req.final true; Req.stable false; Req.stable true |]

let side_requirement ?(criterion = Robust) kind dir =
  let side ~stable v = side_values.((if stable then 2 else 0) + Bool.to_int v) in
  match kind with
  | Gate.Not | Gate.Buff -> None
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    let cv =
      match Gate.controlling kind with Some b -> b | None -> assert false
    in
    let final_is_controlling =
      match dir with Fault.Rising -> cv | Fault.Falling -> not cv
    in
    let stable =
      match criterion with Robust -> final_is_controlling | Non_robust -> false
    in
    side ~stable (not cv)
  | Gate.Xor | Gate.Xnor -> side ~stable:true false

let raw_conditions ?(criterion = Robust) c (fault : Fault.t) =
  let reqs =
    ref [ (fault.Fault.path.Path.source, source_requirement fault.Fault.dir) ]
  in
  let dir = ref fault.Fault.dir in
  Array.iter
    (fun (h : Path.hop) ->
      let g = (c : Circuit.t).gates.(h.Path.gate) in
      (match side_requirement ~criterion g.Circuit.kind !dir with
      | None -> ()
      | Some req ->
        Array.iteri
          (fun pin fanin ->
            if pin <> h.Path.pin then reqs := (fanin, req) :: !reqs)
          g.Circuit.fanins);
      if Gate.inverting g.Circuit.kind then dir := flip !dir)
    fault.Fault.path.Path.hops;
  List.rev !reqs

let merge_into acc reqs =
  (* Two-phase: validate against current contents first so a conflict
     leaves [acc] untouched. *)
  let merged =
    List.fold_left
      (fun merged_opt (net, req) ->
        match merged_opt with
        | None -> None
        | Some merged ->
          let current =
            match List.assoc_opt net merged with
            | Some r -> r
            | None -> (
              match Hashtbl.find_opt acc net with
              | Some r -> r
              | None -> Req.any)
          in
          (match Req.merge current req with
          | Some r -> Some ((net, r) :: List.remove_assoc net merged)
          | None -> None))
      (Some []) reqs
  in
  match merged with
  | None -> false
  | Some merged ->
    List.iter (fun (net, req) -> Hashtbl.replace acc net req) merged;
    true

let conditions ?(criterion = Robust) c fault =
  let raw = raw_conditions ~criterion c fault in
  let acc = Hashtbl.create 16 in
  if merge_into acc raw then
    Some (Hashtbl.fold (fun net req l -> (net, req) :: l) acc []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b))
  else None

let output_direction c (fault : Fault.t) =
  Array.fold_left
    (fun dir (h : Path.hop) ->
      if Gate.inverting (c : Circuit.t).gates.(h.Path.gate).Circuit.kind then
        flip dir
      else dir)
    fault.Fault.dir fault.Fault.path.Path.hops
