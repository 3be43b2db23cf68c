(* Set-up, measurement and reporting shared by the workloads. *)

module Circuit = Pdf_circuit.Circuit
module Profiles = Pdf_synth.Profiles
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Test_pair = Pdf_core.Test_pair
module Rng = Pdf_util.Rng

let now = Unix.gettimeofday

let say fmt = Printf.ksprintf print_endline fmt

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

type metric = { key : string; value : float; unit : string }

let metric key unit value = { key; value; unit }

type outcome = {
  attempted : int;  (** operations started in the timed phase *)
  failed : int;  (** operations that raised or failed an output check *)
  e2e : metric list;
  layers : metric list;  (** traced run only *)
}

let timed name f =
  let t0 = now () in
  let v = Tracer.span name f in
  (v, now () -. t0)

(* Machine-speed calibration.  The speed of this machine drifts by a
   quarter over minutes while neighbours come and go, and CPU time
   drifts with wall time, so medians over one run differ between runs
   by more than any useful bound.  Every time metric is therefore scaled
   to a reference speed: fixed loops of array reads, writes and integer
   arithmetic, independent of the program under test, are timed between
   operations, and an operation's time is divided by the median slowness
   of its round.  One loop scatters over 2 MB, beyond the caches of one
   core; the other stays in 4 KB.  Measured against fixed enrich and
   grading jobs in one process over four minutes, the first tracked
   enrich best and the second grading best; the geometric mean of the
   two tracked both.  The loops allocate nothing, so they leave
   alloc_mw alone. *)
let calib_mem = Array.make (1 lsl 18) 0
let calib_core = Array.make 512 0

let calib_loop a passes =
  let mask = Array.length a - 1 and h = ref 0 in
  for r = 0 to passes - 1 do
    for i = 0 to (1 lsl 16) - 1 do
      let j = ((i * 40503) + (r * 7)) land mask in
      let v = a.(j) + i in
      a.(j) <- v;
      h := ((!h * 31) + v) land max_int
    done
  done;
  !h

(* A loop's time over its time at the reference speed. *)
let loop_slowness a passes nominal_s =
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_loop a passes));
  (now () -. t0) /. nominal_s

let speeds = ref []
let all_speeds = ref []

(* Time the loops once and keep their slowness (1 = reference speed). *)
let calibrate () =
  let mem = loop_slowness calib_mem 2 0.75e-3 in
  let core = loop_slowness calib_core 4 0.53e-3 in
  let s = sqrt (mem *. core) in
  speeds := s :: !speeds;
  all_speeds := s :: !all_speeds

(* The median slowness since the last call. *)
let slowness () =
  let s = Stat.median (Array.of_list !speeds) in
  speeds := [];
  s

let report_slowness () =
  let a = Array.of_list !all_speeds in
  say "machine slowness (loop time / reference time): median %.3f  q1 %.3f  q3 %.3f over %d loops"
    (Stat.median a) (Stat.quantile a 0.25) (Stat.quantile a 0.75) (Array.length a)

(* Run artefacts (trace files, the serve socket) stay inside the
   checkout, in a directory git ignores. *)
let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Circuit generation is memoised per process, so only the first set-up
   pays it; [build_s] sums what was paid. *)
let build_s = ref 0.

let circuit name =
  match Profiles.find name with
  | None -> failwith ("unknown profile " ^ name)
  | Some p ->
    let c, dt = timed "circuit.build" (fun () -> Profiles.circuit p) in
    build_s := !build_s +. dt;
    c

type analysis = {
  name : string;
  n_p : int;
  n_p0 : int;
  circuit : Circuit.t;
  ts : Target_sets.t;
  faults : Fault_sim.prepared array;  (** P; ids below [n0] are P0 *)
  n0 : int;
}

(* Target sets and prepared faults, laid out as the serve session lays
   them out for an enrich query. *)
let analyse (name, n_p, n_p0) =
  let circuit = circuit name in
  let ts =
    Tracer.span "faults.target_sets" (fun () ->
        Target_sets.build circuit
          (Pdf_paths.Delay_model.lines circuit)
          ~n_p ~n_p0)
  in
  let faults =
    Tracer.span "core.prepare" (fun () ->
        Fault_sim.prepare circuit ts.Target_sets.p)
  in
  if Array.length faults <> List.length ts.Target_sets.p then
    failwith (name ^ ": Fault_sim.prepare dropped target faults");
  { name; n_p; n_p0; circuit; ts; faults; n0 = List.length ts.Target_sets.p0 }

let p0_ids a = List.init a.n0 Fun.id
let p1_ids a = List.init (Array.length a.faults - a.n0) (fun i -> a.n0 + i)

let setup_rounds = 5

let calibrate_n n =
  for _ = 1 to n do
    calibrate ()
  done

(* Live major-heap words after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Set up [setup_rounds] times and keep the last; set-up time is the
   median.  [f] runs each piece of a round through the [step] it is
   given, which times the piece between calibration loops; a round's
   time is scaled by the median of its loops.  Each round starts after a
   full collection, so no round pays for collecting an earlier one.

   Also returns the MB of live data the kept round added: what the
   loaded circuits, target sets and prepared faults hold for the timed
   phase.  The peak heap is not used: with a pool domain racing, it
   depends on when each domain's collector ran, and it moved by a fifth
   between runs of the same work. *)
type step = { step : 'a. (unit -> 'a) -> 'a }

let setup f =
  let times = Array.make setup_rounds 0. in
  let live0 = live_words () in
  let rec go i =
    Gc.full_major ();
    let total = ref 0. in
    let step g =
      calibrate_n 3;
      let t0 = now () in
      let v = g () in
      total := !total +. (now () -. t0);
      calibrate_n 3;
      v
    in
    let v = Tracer.span "setup" (fun () -> f { step }) in
    times.(i) <- !total /. slowness ();
    if i = setup_rounds - 1 then v else go (i + 1)
  in
  let v = go 0 in
  let live_mb =
    float_of_int ((live_words () - live0) * (Sys.word_size / 8)) /. 1e6
  in
  say "setup rounds (s): %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)));
  (v, Stat.median times, live_mb)

(* File a closed-loop round's operation times, scaled by the round's
   slowness; [nan] marks an operation that raised. *)
let keep_round times samples =
  let s = slowness () in
  Array.iteri
    (fun i dt -> if not (Float.is_nan dt) then samples.(i) <- (dt /. s) :: samples.(i))
    times

let draw_seeds rng n =
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- 1 + Rng.int rng 999_999_999
  done;
  a

let random_tests rng (c : Circuit.t) n =
  let bits () = Array.init c.Circuit.num_pis (fun _ -> Rng.bool rng) in
  List.init n (fun _ ->
      let v1 = bits () in
      let v3 = bits () in
      Test_pair.create v1 v3)

(* Words allocated by every domain so far.  The forced collection makes
   pool and server domains fold their counters into the global ones. *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let flags_string flags =
  String.init (Array.length flags) (fun i -> if flags.(i) then '1' else '0')

let tests_string tests =
  String.concat ";" (List.map Test_pair.to_string tests)

(* Closed-loop latencies, one sample list per distinct operation of the
   round.  The median is the geometric mean over operations of each
   one's median: a pooled median over circuits of different cost sits
   on the boundary between two of them and jumps from run to run.  The
   tail is taken over the pooled samples. *)
let latency (per_op : float list array) =
  let medians = Array.map (fun l -> Stat.median (Array.of_list l)) per_op in
  let pooled = Array.concat (Array.to_list (Array.map Array.of_list per_op)) in
  let p, beyond, tail = Stat.tail pooled in
  say "latency: %d operations, %d samples; tail at p%.2f with %d samples beyond"
    (Array.length per_op) (Array.length pooled) p beyond;
  (Stat.geomean medians *. 1e3, tail *. 1e3)

let end_to_end ~setup_s ~live_mb ~p50_ms ~tail_ms ~alloc_mw =
  [
    metric "setup_s" "s" setup_s;
    metric "live_mb" "MB" live_mb;
    metric "lat_p50_ms" "ms" p50_ms;
    metric "lat_tail_ms" "ms" tail_ms;
    metric "alloc_mw" "Mw" alloc_mw;
  ]

let trace_overhead ~traced ~untraced =
  metric "obs.trace_overhead_pct" "%" ((traced /. untraced -. 1.) *. 100.)
