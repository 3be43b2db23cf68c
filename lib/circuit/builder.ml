type pending_gate = { out_name : string; kind : Gate.kind; fanin_names : string list }

type t = {
  name : string;
  mutable pis : string list; (* reversed *)
  mutable pos : string list; (* reversed *)
  mutable pending : pending_gate list; (* reversed *)
}

type error =
  | Undriven_net of string
  | Duplicate_driver of string
  | Combinational_cycle of string list
  | Bad_arity of string * Gate.kind * int
  | No_outputs
  | Unknown_output of string
  | Duplicate_input of string

let error_to_string = function
  | Undriven_net n -> "net used but never driven: " ^ n
  | Duplicate_driver n -> "net driven more than once: " ^ n
  | Combinational_cycle ns ->
    "combinational cycle through: " ^ String.concat " -> " ns
  | Bad_arity (out, kind, n) ->
    Printf.sprintf "gate %s: %s cannot take %d input(s)" out
      (Gate.kind_name kind) n
  | No_outputs -> "circuit has no primary outputs"
  | Unknown_output n -> "declared output is not a net: " ^ n
  | Duplicate_input n -> "input declared more than once: " ^ n

let create name = { name; pis = []; pos = []; pending = [] }

let add_pi t name = t.pis <- name :: t.pis

let add_po t name = t.pos <- name :: t.pos

let add_gate t ~out kind fanins =
  t.pending <- { out_name = out; kind; fanin_names = fanins } :: t.pending

exception Err of error

let check_arity g =
  let n = List.length g.fanin_names in
  let bad =
    n < Gate.min_arity g.kind
    || match Gate.max_arity g.kind with Some m -> n > m | None -> false
  in
  if bad then raise (Err (Bad_arity (g.out_name, g.kind, n)))

(* Depth-first topological sort over gate definitions, detecting cycles and
   undriven nets.  [state]: 0 unvisited, 1 on stack, 2 done. *)
let finish t =
  try
    let pis = List.rev t.pis in
    let pos = List.rev t.pos in
    let pending = List.rev t.pending in
    if pos = [] then raise (Err No_outputs);
    List.iter check_arity pending;
    let gate_by_out = Hashtbl.create 64 in
    let pi_set = Hashtbl.create 16 in
    List.iter
      (fun p ->
        if Hashtbl.mem pi_set p then raise (Err (Duplicate_input p));
        Hashtbl.replace pi_set p ())
      pis;
    List.iter
      (fun g ->
        if Hashtbl.mem gate_by_out g.out_name || Hashtbl.mem pi_set g.out_name
        then raise (Err (Duplicate_driver g.out_name));
        Hashtbl.replace gate_by_out g.out_name g)
      pending;
    let state = Hashtbl.create 64 in
    let order = ref [] in
    let rec visit stack name =
      if Hashtbl.mem pi_set name then ()
      else
        match Hashtbl.find_opt gate_by_out name with
        | None -> raise (Err (Undriven_net name))
        | Some g -> (
          match Hashtbl.find_opt state name with
          | Some 2 -> ()
          | Some _ ->
            let cycle =
              let rec take acc = function
                | [] -> List.rev acc
                | n :: _ when n = name -> List.rev (n :: acc)
                | n :: rest -> take (n :: acc) rest
              in
              take [] (name :: stack)
            in
            raise (Err (Combinational_cycle cycle))
          | None ->
            Hashtbl.replace state name 1;
            List.iter (visit (name :: stack)) g.fanin_names;
            Hashtbl.replace state name 2;
            order := g :: !order)
    in
    (* Visit from POs first so output cones come early, then sweep the rest
       so gates feeding nothing are still included. *)
    List.iter
      (fun po ->
        if not (Hashtbl.mem pi_set po || Hashtbl.mem gate_by_out po) then
          raise (Err (Unknown_output po));
        visit [] po)
      pos;
    List.iter (fun g -> visit [] g.out_name) pending;
    let gates_sorted = List.rev !order in
    let num_pis = List.length pis in
    let net_index = Hashtbl.create 64 in
    List.iteri (fun i p -> Hashtbl.replace net_index p i) pis;
    List.iteri
      (fun i g -> Hashtbl.replace net_index g.out_name (num_pis + i))
      gates_sorted;
    let gates =
      Array.of_list
        (List.map
           (fun g ->
             let fanins =
               Array.of_list
                 (List.map (fun n -> Hashtbl.find net_index n) g.fanin_names)
             in
             { Circuit.kind = g.kind; fanins })
           gates_sorted)
    in
    let net_names =
      Array.of_list (pis @ List.map (fun g -> g.out_name) gates_sorted)
    in
    let pos_arr =
      Array.of_list (List.map (fun p -> Hashtbl.find net_index p) pos)
    in
    Ok
      (Circuit.unsafe_make ~name:t.name ~num_pis ~gates ~pos:pos_arr
         ~net_names)
  with Err e -> Error e

let finish_exn t =
  match finish t with
  | Ok c -> c
  | Error e -> failwith ("Builder.finish: " ^ error_to_string e)
