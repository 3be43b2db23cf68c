type component = Any | Must of bool

type t = { r1 : component; r2 : component; r3 : component }

let any = { r1 = Any; r2 = Any; r3 = Any }

let stable b = { r1 = Must b; r2 = Must b; r3 = Must b }

let final b = { r1 = Any; r2 = Any; r3 = Must b }

let initial b = { r1 = Must b; r2 = Any; r3 = Any }

let rising = { r1 = Must false; r2 = Any; r3 = Must true }

let falling = { r1 = Must true; r2 = Any; r3 = Must false }

let component_equal a b =
  match a, b with
  | Any, Any -> true
  | Must x, Must y -> x = y
  | (Any | Must _), _ -> false

let equal a b =
  component_equal a.r1 b.r1 && component_equal a.r2 b.r2
  && component_equal a.r3 b.r3

let is_any t = equal t any

(* A component's two bits in [bits] are its index below: 0 for [Any],
   1 for [Must false], 2 for [Must true]. *)
let component_index = function Any -> 0 | Must false -> 1 | Must true -> 2

let bits r =
  component_index r.r1
  lor (component_index r.r2 lsl 2)
  lor (component_index r.r3 lsl 4)

let bits_conflict m = m land (m lsr 1) land 0b010101 <> 0

let component_satisfied bit c =
  match c with
  | Any -> true
  | Must b -> Bit.equal bit (Bit.of_bool b)

let satisfied_by (triple : Triple.t) t =
  component_satisfied triple.Triple.v1 t.r1
  && component_satisfied triple.Triple.v2 t.r2
  && component_satisfied triple.Triple.v3 t.r3

let compatible_bit bit c =
  match c, bit with
  | Any, _ -> true
  | Must _, Bit.X -> true
  | Must b, (Bit.Zero | Bit.One) -> Bit.equal bit (Bit.of_bool b)

let count_pinned t =
  let one = function Any -> 0 | Must _ -> 1 in
  one t.r1 + one t.r2 + one t.r3

(* The 27 requirements, each one shared value, built over one shared
   value per component: index [9 r1 + 3 r2 + r3], a component's index
   being its bits' above. *)
let components = [| Any; Must false; Must true |]

let interned =
  Array.init 27 (fun i ->
      {
        r1 = components.(i / 9);
        r2 = components.(i / 3 mod 3);
        r3 = components.(i mod 3);
      })

let index_of_bits m =
  (9 * (m land 3)) + (3 * ((m lsr 2) land 3)) + ((m lsr 4) land 3)

let intern t = interned.(index_of_bits (bits t))

let of_bits m =
  if m land lnot 0b111111 <> 0 || bits_conflict m then invalid_arg "Req.of_bits"
  else interned.(index_of_bits m)

(* [merge]'s answers, one shared [Some] per requirement: merging is the
   [lor] of the bits, so it allocates nothing. *)
let merged = Array.map Option.some interned

let merge a b =
  let m = bits a lor bits b in
  if bits_conflict m then None else merged.(index_of_bits m)

let component_of_char = function
  | '0' -> Some (Must false)
  | '1' -> Some (Must true)
  | 'x' | 'X' -> Some Any
  | _ -> None

let of_string s =
  if String.length s <> 3 then None
  else
    match
      component_of_char s.[0], component_of_char s.[1],
      component_of_char s.[2]
    with
    | Some r1, Some r2, Some r3 -> Some { r1; r2; r3 }
    | _, _, _ -> None

let component_char = function
  | Any -> 'x'
  | Must false -> '0'
  | Must true -> '1'

let to_string t =
  let b = Bytes.create 3 in
  Bytes.set b 0 (component_char t.r1);
  Bytes.set b 1 (component_char t.r2);
  Bytes.set b 2 (component_char t.r3);
  Bytes.to_string b

let pp ppf t = Format.pp_print_string ppf (to_string t)
