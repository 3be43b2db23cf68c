module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Req = Pdf_values.Req

(* ------------------------------------------------------------------ *)
(* Test-lane direction: one fault's requirements against packed tests  *)
(* ------------------------------------------------------------------ *)

(* A pinned component [k] of a requirement on [net], pinned to [b], is
   the literal [(net lsl 3) lor (2k + b)]: the row of [Wsim.planes] that
   holds the lanes where that component reads [b], and the net. *)
let literals reqs =
  let n = List.fold_left (fun n (_, r) -> n + Req.count_pinned r) 0 reqs in
  let lits = Array.make n 0 and i = ref 0 in
  let add net k = function
    | Req.Any -> ()
    | Req.Must b ->
      lits.(!i) <- (net lsl 3) lor ((2 * k) + Bool.to_int b);
      incr i
  in
  List.iter
    (fun (net, (r : Req.t)) ->
      add net 0 r.Req.r1;
      add net 1 r.Req.r2;
      add net 2 r.Req.r3)
    reqs;
  lits

let satisfied_mask (p : Wsim.planes) lits =
  let rows = p.Wsim.rows in
  let n = Array.length lits in
  let m = ref p.Wsim.p_mask and i = ref 0 in
  while !m <> 0 && !i < n do
    let l = lits.(!i) in
    m := !m land rows.(l land 7).(l lsr 3);
    incr i
  done;
  !m

(* ------------------------------------------------------------------ *)
(* Fault-lane direction: packed requirement sets against scalar values *)
(* ------------------------------------------------------------------ *)

type constrained_net = {
  cn_net : int;
  cn_must0 : int array;  (* per component: lanes pinning it to 0 *)
  cn_must1 : int array;  (* per component: lanes pinning it to 1 *)
}

type fault_pack = {
  fp_base : int;
  fp_lanes : int;
  fp_mask : int;
  fp_nets : constrained_net array;
}

let base t = t.fp_base

let lanes t = t.fp_lanes

let pack_faults (reqs : (int * Req.t) list array) =
  let pack_one (lo, hi) =
    let nets : (int, int array * int array) Hashtbl.t = Hashtbl.create 64 in
    for f = lo to hi - 1 do
      let lane_bit = 1 lsl (f - lo) in
      List.iter
        (fun (net, (r : Req.t)) ->
          let must0, must1 =
            match Hashtbl.find_opt nets net with
            | Some masks -> masks
            | None ->
              let masks = (Array.make 3 0, Array.make 3 0) in
              Hashtbl.add nets net masks;
              masks
          in
          let pin k = function
            | Req.Any -> ()
            | Req.Must false -> must0.(k) <- must0.(k) lor lane_bit
            | Req.Must true -> must1.(k) <- must1.(k) lor lane_bit
          in
          pin 0 r.Req.r1;
          pin 1 r.Req.r2;
          pin 2 r.Req.r3)
        reqs.(f)
    done;
    let fp_nets =
      Hashtbl.fold
        (fun net (must0, must1) acc ->
          { cn_net = net; cn_must0 = must0; cn_must1 = must1 } :: acc)
        nets []
      |> List.sort (fun a b -> Int.compare a.cn_net b.cn_net)
      |> Array.of_list
    in
    {
      fp_base = lo;
      fp_lanes = hi - lo;
      fp_mask = Word.lane_mask (hi - lo);
      fp_nets;
    }
  in
  Array.map pack_one (Wsim.batch_bounds (Array.length reqs))

let fault_mask fp (values : Triple.t array) =
  let violated (cn : constrained_net) k = function
    | Bit.One -> cn.cn_must0.(k)
    | Bit.Zero -> cn.cn_must1.(k)
    | Bit.X -> cn.cn_must0.(k) lor cn.cn_must1.(k)
  in
  let m = ref fp.fp_mask in
  let n = Array.length fp.fp_nets in
  let i = ref 0 in
  while !m <> 0 && !i < n do
    let cn = fp.fp_nets.(!i) in
    let (v : Triple.t) = values.(cn.cn_net) in
    m :=
      !m
      land lnot (violated cn 0 v.Triple.v1)
      land lnot (violated cn 1 v.Triple.v2)
      land lnot (violated cn 2 v.Triple.v3);
    incr i
  done;
  !m
