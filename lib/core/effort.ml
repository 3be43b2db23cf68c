module Circuit = Pdf_circuit.Circuit
module Metrics = Pdf_obs.Metrics
module Attrib = Pdf_obs.Attrib

(* The process-wide counterparts of the account's fields, summed over
   every engine of either kind.  The attribution sheets are conserved
   against them whichever engine ran (the [attrib] oracle). *)
let m_runs = Metrics.counter "justify.runs"
let m_conflict_hits = Metrics.counter "justify.conflict_hits"
let m_backtracks = Metrics.counter "justify.backtracks"
let m_resim_gates = Metrics.counter "justify.resim_gates"

let h_backtrack_depth =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "justify.backtrack_depth"

type t = {
  circuit : Circuit.t;
  sheet : Attrib.sheet option;
  mutable runs : int;
  mutable steps : int;
  mutable backtracks : int;
  mutable pass_gates : int;
  mutable aborts : int;
  mutable passes : int;
  mutable conflict_net : int;
  mutable conflict_level : int;
  mutable deepest_conflict : int;
}

let create ?attrib circuit =
  { circuit; sheet = attrib; runs = 0; steps = 0; backtracks = 0;
    pass_gates = 0; aborts = 0; passes = 0; conflict_net = -1;
    conflict_level = -1; deepest_conflict = -1 }

let run e =
  Metrics.incr m_runs;
  e.runs <- e.runs + 1;
  e.passes <- 0;
  match e.sheet with
  | Some a -> a.Attrib.t_runs <- a.Attrib.t_runs + 1
  | None -> ()

let conflict e net =
  Metrics.incr m_conflict_hits;
  let level = e.circuit.Circuit.level.(net) in
  e.conflict_net <- net;
  e.conflict_level <- level;
  if level > e.deepest_conflict then e.deepest_conflict <- level;
  match e.sheet with
  | Some a ->
    a.Attrib.conflicts.(net) <- a.Attrib.conflicts.(net) + 1;
    a.Attrib.t_conflicts <- a.Attrib.t_conflicts + 1
  | None -> ()

let backtrack e ~depth pi =
  e.backtracks <- e.backtracks + 1;
  Metrics.incr m_backtracks;
  Metrics.observe_int h_backtrack_depth depth;
  match e.sheet with
  | Some a ->
    a.Attrib.backtracks.(pi) <- a.Attrib.backtracks.(pi) + 1;
    a.Attrib.t_backtracks <- a.Attrib.t_backtracks + 1
  | None -> ()

let abort e = e.aborts <- e.aborts + 1

let finish e (cone : Req_cone.t) =
  let passes = e.passes and n = cone.Req_cone.n_gates in
  if passes > 0 then begin
    e.pass_gates <- e.pass_gates + (passes * n);
    Metrics.add m_resim_gates (passes * n);
    match e.sheet with
    | Some a ->
      a.Attrib.t_resim_calls <- a.Attrib.t_resim_calls + passes;
      a.Attrib.t_resim_gates <- a.Attrib.t_resim_gates + (passes * n);
      for i = 0 to n - 1 do
        let net = Circuit.net_of_gate e.circuit cone.Req_cone.gates.(i) in
        a.Attrib.resim_cone.(net) <- a.Attrib.resim_cone.(net) + passes
      done
    | None -> ()
  end

type forensics = { last_net : int; last_level : int; deepest_level : int }

let forensics e =
  { last_net = e.conflict_net; last_level = e.conflict_level;
    deepest_level = e.deepest_conflict }

let reset_forensics e =
  e.conflict_net <- -1;
  e.conflict_level <- -1;
  e.deepest_conflict <- -1
