module Robust = Pdf_faults.Robust
module Target_sets = Pdf_faults.Target_sets

type verdict = {
  fault_id : int;
  explained : int;
  maybe_explained : int;
  unexplained : int;
}

let dictionary c tests faults = Fault_sim.detect_matrix c tests faults

(* The weak dictionary: non-robust sensitization of the same faults.
   Faults with consistent non-robust conditions are prepared again under
   that criterion, so the scan shares the word-parallel detection
   matrix; faults without them contribute all-false columns. *)
let weak_dictionary c tests (faults : Fault_sim.prepared array) =
  let criterion = Robust.Non_robust in
  let idx =
    List.filter
      (fun i ->
        Option.is_some
          (Fault_sim.conditions ~criterion c faults.(i).Fault_sim.fault))
      (List.init (Array.length faults) Fun.id)
  in
  let weak_faults =
    Fault_sim.prepare ~criterion c
      (List.map
         (fun i ->
           let p = faults.(i) in
           { Target_sets.fault = p.Fault_sim.fault; length = p.Fault_sim.length })
         idx)
  in
  let idx = Array.of_list idx in
  let rows = Fault_sim.detect_matrix c tests weak_faults in
  Array.map
    (fun row ->
      let full = Array.make (Array.length faults) false in
      Array.iteri (fun j d -> full.(idx.(j)) <- d) row;
      full)
    rows

let diagnose c tests faults ~observed =
  if List.length observed <> List.length tests then
    invalid_arg "Diagnose.diagnose: observed/test length mismatch";
  let strong = dictionary c tests faults in
  let weak = weak_dictionary c tests faults in
  let observed = Array.of_list observed in
  let num_failures =
    Array.fold_left (fun a f -> if f then a + 1 else a) 0 observed
  in
  let verdicts = ref [] in
  Array.iteri
    (fun fault_id _ ->
      let eliminated = ref false in
      let explained = ref 0 and maybe = ref 0 in
      Array.iteri
        (fun t failed ->
          if strong.(t).(fault_id) then
            if failed then begin
              incr explained;
              incr maybe
            end
            else eliminated := true
          else if weak.(t).(fault_id) && failed then incr maybe)
        observed;
      if (not !eliminated) && (num_failures = 0 || !maybe > 0) then
        verdicts :=
          {
            fault_id;
            explained = !explained;
            maybe_explained = !maybe;
            unexplained = num_failures - !maybe;
          }
          :: !verdicts)
    faults;
  List.sort
    (fun a b ->
      if a.maybe_explained <> b.maybe_explained then
        Int.compare b.maybe_explained a.maybe_explained
      else if a.unexplained <> b.unexplained then
        Int.compare a.unexplained b.unexplained
      else if a.explained <> b.explained then
        Int.compare b.explained a.explained
      else Int.compare a.fault_id b.fault_id)
    !verdicts
