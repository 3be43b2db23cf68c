(* Order statistics over samples. *)

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let geomean xs =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (Array.length xs))

(* The highest percentile with ten samples beyond it, the number beyond
   it, and its value.  The percentile moves smoothly with the sample
   count, so runs that complete a few more operations than others still
   measure nearly the same point. *)
let tail xs =
  let n = Array.length xs in
  let q = if n > 20 then 1. -. (10. /. float_of_int n) else 0.5 in
  (100. *. q, n - int_of_float (Float.ceil (q *. float_of_int n)), quantile xs q)
