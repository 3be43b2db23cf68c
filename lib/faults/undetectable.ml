module Implication = Pdf_sim.Implication

type verdict =
  | Maybe_detectable
  | Direct_conflict
  | Implication_conflict of { net : int; component : int }

let classify_in st ~criterion c fault =
  match Robust.conditions ~criterion c fault with
  | None -> Direct_conflict
  | Some reqs -> (
    Implication.reset st;
    match Implication.extend st reqs with
    | None -> Maybe_detectable
    | Some { Implication.net; component } ->
      Implication_conflict { net; component })

let classify ?(criterion = Robust.Robust) c fault =
  classify_in (Implication.create c) ~criterion c fault

type stats = {
  kept : int;
  direct_conflicts : int;
  implication_conflicts : int;
}

(* One provenance record per eliminated fault; "component" is the
   pattern component (0 = first pattern, 1 = intermediate, 2 = second)
   whose implied value conflicted. *)
let record_eliminated ledger c f = function
  | Maybe_detectable -> ()
  | Direct_conflict ->
    Pdf_obs.Ledger.record ledger ~kind:"undetectable"
      [
        ("fault", Pdf_obs.Ledger.S (Fault.to_string c f));
        ("class", Pdf_obs.Ledger.S "direct_conflict");
      ]
  | Implication_conflict { net; component } ->
    Pdf_obs.Ledger.record ledger ~kind:"undetectable"
      [
        ("fault", Pdf_obs.Ledger.S (Fault.to_string c f));
        ("class", Pdf_obs.Ledger.S "implication_conflict");
        ("net", Pdf_obs.Ledger.S (Pdf_circuit.Circuit.net_name c net));
        ("component", Pdf_obs.Ledger.I component);
      ]

let filter ?(criterion = Robust.Robust) ?ledger c faults =
  let direct = ref 0 and implied = ref 0 in
  (* One implication state for every fault, reset per fault: a fresh
     state per fault would allocate three layers of every net each. *)
  let st = Implication.create c in
  let kept =
    List.filter
      (fun f ->
        let verdict = classify_in st ~criterion c f in
        Option.iter (fun l -> record_eliminated l c f verdict) ledger;
        match verdict with
        | Maybe_detectable -> true
        | Direct_conflict ->
          incr direct;
          false
        | Implication_conflict _ ->
          incr implied;
          false)
      faults
  in
  ( kept,
    {
      kept = List.length kept;
      direct_conflicts = !direct;
      implication_conflicts = !implied;
    } )
