(* Structural effort attribution (DESIGN.md §14).

   A [sheet] is a set of plain int arrays indexed by net id — the
   cheapest store the hot loops can bump (one bounds-checked load, add,
   store; no hashing, no boxing).  Sheets are domain-local: each run
   owns one and bumps it without synchronisation; the
   shared store [t] only sees whole sheets through [merge], under a
   mutex.  Because every field is an integer sum, merging is commutative
   and associative, so the merged store is identical whatever order the
   pool's sheets arrive in — attribution output is jobs-invariant by
   construction.

   Two families of counters live side by side:

   - {e semantic} counters (trials, trial_evals, resim_cone, conflicts,
     backtracks, cand_evals) measure work defined by the search itself —
     what a full-pass engine would do — and are byte-identical across
     --jobs and across engine implementations.  Only these are exported
     by profile renderers.
   - the {e engine-variant} counter (inc_resims) measures the actual
     dirty-cone gate re-evaluations of the incremental engine
     (Cone_sim's persistent pass).  It feeds the effort-conservation
     oracle (sum == sim.inc.resim_gates) but is excluded from every
     byte-compared output. *)

type sheet = {
  nets : int;
  trials : int array;  (* per PI net: trial simulations rooted there *)
  trial_evals : int array;  (* per gate-output net: overlay evaluations *)
  resim_cone : int array;  (* per gate-output net: resim calls x cone *)
  conflicts : int array;  (* per net: requirement conflicts hit there *)
  backtracks : int array;  (* per decision-PI net: backtracks charged *)
  cand_evals : int array;  (* per req net: candidate delta scans *)
  inc_resims : int array;  (* per gate-output net: incremental resims *)
  mutable t_runs : int;
  mutable t_trials : int;
  mutable t_trial_evals : int;
  mutable t_resim_calls : int;
  mutable t_resim_gates : int;
  mutable t_conflicts : int;
  mutable t_backtracks : int;
  mutable t_cand_scans : int;
  mutable t_inc_resims : int;
}

let make_sheet ~nets =
  {
    nets;
    trials = Array.make nets 0;
    trial_evals = Array.make nets 0;
    resim_cone = Array.make nets 0;
    conflicts = Array.make nets 0;
    backtracks = Array.make nets 0;
    cand_evals = Array.make nets 0;
    inc_resims = Array.make nets 0;
    t_runs = 0;
    t_trials = 0;
    t_trial_evals = 0;
    t_resim_calls = 0;
    t_resim_gates = 0;
    t_conflicts = 0;
    t_backtracks = 0;
    t_cand_scans = 0;
    t_inc_resims = 0;
  }

type t = { nets : int; merged : sheet; lock : Mutex.t }

let create ~nets = { nets; merged = make_sheet ~nets; lock = Mutex.create () }

let nets t = t.nets

let fresh t = make_sheet ~nets:t.nets

let add_into (dst : sheet) (src : sheet) =
  if dst.nets <> src.nets then invalid_arg "Attrib.merge: net count mismatch";
  let arr d s =
    for i = 0 to dst.nets - 1 do
      d.(i) <- d.(i) + s.(i)
    done
  in
  arr dst.trials src.trials;
  arr dst.trial_evals src.trial_evals;
  arr dst.resim_cone src.resim_cone;
  arr dst.conflicts src.conflicts;
  arr dst.backtracks src.backtracks;
  arr dst.cand_evals src.cand_evals;
  arr dst.inc_resims src.inc_resims;
  dst.t_runs <- dst.t_runs + src.t_runs;
  dst.t_trials <- dst.t_trials + src.t_trials;
  dst.t_trial_evals <- dst.t_trial_evals + src.t_trial_evals;
  dst.t_resim_calls <- dst.t_resim_calls + src.t_resim_calls;
  dst.t_resim_gates <- dst.t_resim_gates + src.t_resim_gates;
  dst.t_conflicts <- dst.t_conflicts + src.t_conflicts;
  dst.t_backtracks <- dst.t_backtracks + src.t_backtracks;
  dst.t_cand_scans <- dst.t_cand_scans + src.t_cand_scans;
  dst.t_inc_resims <- dst.t_inc_resims + src.t_inc_resims

let merge t sheet =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> add_into t.merged sheet)

let snapshot t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let copy = make_sheet ~nets:t.nets in
      add_into copy t.merged;
      copy)

(* One candidate delta scan: the scan reads every requirement net of the
   candidate once, whatever the accumulated set holds. *)
let note_cand_scan (sheet : sheet) reqs =
  sheet.t_cand_scans <- sheet.t_cand_scans + 1;
  List.iter
    (fun (net, _) -> sheet.cand_evals.(net) <- sheet.cand_evals.(net) + 1)
    reqs

(* Engine-invariant effort charged to one net (excludes [inc_resims]). *)
let semantic_total (sheet : sheet) net =
  sheet.trials.(net) + sheet.trial_evals.(net) + sheet.resim_cone.(net)
  + sheet.conflicts.(net) + sheet.backtracks.(net) + sheet.cand_evals.(net)

let grand_total (sheet : sheet) =
  let sum = ref 0 in
  for net = 0 to sheet.nets - 1 do
    sum := !sum + semantic_total sheet net
  done;
  !sum
