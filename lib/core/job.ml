module Target_sets = Pdf_faults.Target_sets

type params = {
  n_p : int;
  n_p0 : int;
  seed : int;
  criterion : Pdf_faults.Robust.criterion;
  justify : Justify.kind;
}

let default =
  {
    n_p = 2000;
    n_p0 = 200;
    seed = 2002;
    criterion = Pdf_faults.Robust.Robust;
    justify = Justify.Sim;
  }

type analysis = {
  sets : Target_sets.t;
  faults : Fault_sim.prepared array;
  p0 : int list;
  p1 : int list;
}

(* P is sorted longest first and P0 is its prefix of lengths at or
   above the cutoff, so preparing P in order puts P0's faults first. *)
let of_sets ~criterion c (sets : Target_sets.t) =
  let faults = Fault_sim.prepare ~criterion c sets.Target_sets.p in
  let n = Array.length faults in
  let n0 = min (List.length sets.Target_sets.p0) n in
  {
    sets;
    faults;
    p0 = List.init n0 Fun.id;
    p1 = List.init (n - n0) (fun i -> n0 + i);
  }

let analyse ?(criterion = Pdf_faults.Robust.Robust) ?ledger c ~n_p ~n_p0 =
  of_sets ~criterion c
    (Target_sets.build ~criterion ?ledger c (Pdf_paths.Delay_model.lines c)
       ~n_p ~n_p0)

let p0_faults a = Array.sub a.faults 0 (List.length a.p0)
