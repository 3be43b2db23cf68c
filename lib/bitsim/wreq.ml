module Bit = Pdf_values.Bit
module Req = Pdf_values.Req

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

let satisfied (values : Bit.t array array) lits =
  let n = Array.length lits in
  let i = ref 0 in
  while
    !i < n
    &&
    let l = lits.(!i) in
    match values.((l land 7) lsr 1).(l lsr 3) with
    | Bit.Zero -> l land 1 = 0
    | Bit.One -> l land 1 = 1
    | Bit.X -> false
  do
    incr i
  done;
  !i = n

(* A literal's low three bits [2k + b] are the index of the bit it sets
   in [Req.bits]; the other bit of its component is [2k + 1 - b]. *)
let count_new ~(seen : int array) ~(pinned : int array) ~(stamp : int)
    (acc : int array) (lits : int array) =
  let n = Array.length lits in
  let count = ref 0 and i = ref 0 in
  while !i < n do
    let l = lits.(!i) in
    let net = l lsr 3 in
    let cur = if seen.(net) = stamp then pinned.(net) else acc.(net) in
    if cur land (1 lsl ((l land 7) lxor 1)) <> 0 then begin
      count := -1;
      i := n
    end
    else begin
      let bit = 1 lsl (l land 7) in
      if cur land bit = 0 then incr count;
      seen.(net) <- stamp;
      pinned.(net) <- cur lor bit;
      incr i
    end
  done;
  !count
