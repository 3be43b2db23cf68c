module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Req = Pdf_values.Req

(* ------------------------------------------------------------------ *)
(* Test-lane direction: one fault's requirements against packed tests  *)
(* ------------------------------------------------------------------ *)

(* The six plane arrays are arguments of a top-level loop, read out of
   the planes once per call: no closure, nothing allocated. *)
let rec scan_reqs z0 o0 z1 o1 z2 o2 m = function
  | [] -> m
  | (net, (r : Req.t)) :: rest ->
    if m = 0 then 0
    else
      let m =
        match r.Req.r1 with
        | Req.Any -> m
        | Req.Must true -> m land o0.(net)
        | Req.Must false -> m land z0.(net)
      in
      let m =
        match r.Req.r2 with
        | Req.Any -> m
        | Req.Must true -> m land o1.(net)
        | Req.Must false -> m land z1.(net)
      in
      let m =
        match r.Req.r3 with
        | Req.Any -> m
        | Req.Must true -> m land o2.(net)
        | Req.Must false -> m land z2.(net)
      in
      scan_reqs z0 o0 z1 o1 z2 o2 m rest

let satisfied_mask (p : Wsim.planes) reqs =
  let z = p.Wsim.z and o = p.Wsim.o in
  scan_reqs z.(0) o.(0) z.(1) o.(1) z.(2) o.(2) p.Wsim.p_mask reqs

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
