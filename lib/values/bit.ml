type t = Zero | One | X

let of_bool b = if b then One else Zero

let to_bool = function Zero -> Some false | One -> Some true | X -> None

let equal a b =
  match a, b with
  | Zero, Zero | One, One | X, X -> true
  | (Zero | One | X), _ -> false

let is_definite = function Zero | One -> true | X -> false

let not_ = function Zero -> One | One -> Zero | X -> X

let and_ a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | (One | X), (One | X) -> X

let or_ a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | (Zero | X), (Zero | X) -> X

let xor a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, Zero | One, One -> Zero
  | Zero, One | One, Zero -> One

let middle a b =
  match a, b with
  | Zero, Zero -> Zero
  | One, One -> One
  | (Zero | One | X), (Zero | One | X) -> X

(* Entry [3 * index a + index b] of an operator's table holds [op a b]. *)
let table op =
  let of_index = [| Zero; One; X |] in
  Array.init 9 (fun i -> op of_index.(i / 3) of_index.(i mod 3))

let and_table = table and_
let nand_table = table (fun a b -> not_ (and_ a b))
let or_table = table or_
let nor_table = table (fun a b -> not_ (or_ a b))
let xor_table = table xor
let xnor_table = table (fun a b -> not_ (xor a b))
let middle_table = table middle

let char = function Zero -> '0' | One -> '1' | X -> 'x'

let of_char = function
  | '0' -> Some Zero
  | '1' -> Some One
  | 'x' | 'X' -> Some X
  | _ -> None

let pp ppf t = Format.pp_print_char ppf (char t)
