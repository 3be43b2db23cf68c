module Justify = Pdf_core.Justify
module Podem = Pdf_core.Podem
module Rng = Pdf_util.Rng

type t = { podem : Podem.t; sims : (string * Justify.t) array }

let create c =
  {
    podem = Podem.create c;
    sims =
      Array.map
        (fun label -> (label, Justify.create c))
        [| "sim"; "sim-r1"; "sim-r2" |];
  }

let run t ~rng ~reqs =
  let base = Int64.to_int (Rng.next rng) land max_int in
  let podem =
    match Podem.run t.podem ~reqs with
    | Podem.Found test -> Some (test, "podem")
    | Podem.Proved_unsatisfiable | Podem.Gave_up -> None
  in
  (* Member [i + 1] of the portfolio, after PODEM at index 0. *)
  let sims =
    Array.mapi
      (fun i (label, e) ->
        let rng = Rng.create (base lxor (0x9e3779b9 * (i + 2))) in
        Option.map (fun test -> (test, label)) (Justify.run e ~rng ~reqs))
      t.sims
  in
  List.find_map Fun.id (podem :: Array.to_list sims)
