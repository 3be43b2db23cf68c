module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Attrib = Pdf_obs.Attrib

(* Engine-specific observability.  The structural engine has no trial
   simulations; its unit of search work is the PI decision and its unit
   of propagation work is the implication pass. *)
let m_runs = Metrics.counter "podem.runs"
let m_decisions = Metrics.counter "podem.decisions"
let m_backtracks = Metrics.counter "podem.backtracks"
let m_conflicts = Metrics.counter "podem.conflicts"
let m_conflict_hits = Metrics.counter "podem.conflict_hits"
let m_implications = Metrics.counter "podem.implications"
let m_imply_gates = Metrics.counter "podem.imply_gates"
let m_aborts = Metrics.counter "podem.aborts"

(* Shared justification-layer counters (registration is idempotent, so
   these are the same counters justify.ml declares).  PODEM charges the
   same semantic vocabulary the sim engine does — runs, backtracks,
   resimulation gates (an implication pass costs one full cone pass,
   exactly like [Justify]'s resim), conflict hits — so the attribution
   sheets stay conserved against the process-wide metrics whichever
   engine ran (the `attrib` oracle checks this under any PDF_JUSTIFY). *)
let mj_runs = Metrics.counter "justify.runs"
let mj_backtracks = Metrics.counter "justify.backtracks"
let mj_resim_gates = Metrics.counter "justify.resim_gates"
let mj_conflict_hits = Metrics.counter "justify.conflict_hits"

let h_backtrack_depth =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "justify.backtrack_depth"

(* Seeded mutation hook for the differential oracles (DESIGN.md §10):
   when enabled, the second-pattern implication of multi-input gates
   reads the first-pattern value of fanin 0 — a copy-paste bug subtle
   enough to survive the engine's own final check (the corrupted state
   self-consistently "satisfies" the requirements) and therefore only
   catchable by an independent re-simulation, which is exactly what the
   `justify-podem` oracle does. *)
let injected_bug = Atomic.make false
let set_injected_bug b = Atomic.set injected_bug b
let injected_bug_enabled () = Atomic.get injected_bug

type t = {
  circuit : Circuit.t;
  att : Attrib.sheet option;
  mutable e_runs : int;
  mutable e_decisions : int;
  mutable e_backtracks : int;
  mutable e_imply_calls : int;
  mutable e_imply_gates : int;
  mutable e_aborts : int;
  (* Abort forensics, same shape and semantics as [Justify]'s: the most
     recent requirement-conflict net with its level, and the deepest
     conflict level since the last reset. *)
  mutable last_conflict_net : int;
  mutable last_conflict_level : int;
  mutable deepest_conflict_level : int;
}

let create ?attrib circuit =
  {
    circuit;
    att = attrib;
    e_runs = 0;
    e_decisions = 0;
    e_backtracks = 0;
    e_imply_calls = 0;
    e_imply_gates = 0;
    e_aborts = 0;
    last_conflict_net = -1;
    last_conflict_level = -1;
    deepest_conflict_level = -1;
  }

let runs t = t.e_runs
let decisions t = t.e_decisions
let backtracks t = t.e_backtracks
let imply_calls t = t.e_imply_calls
let imply_gates t = t.e_imply_gates
let aborts t = t.e_aborts

type forensics = { last_net : int; last_level : int; deepest_level : int }

let forensics t =
  {
    last_net = t.last_conflict_net;
    last_level = t.last_conflict_level;
    deepest_level = t.deepest_conflict_level;
  }

let reset_forensics t =
  t.last_conflict_net <- -1;
  t.last_conflict_level <- -1;
  t.deepest_conflict_level <- -1

let note_conflict eng net =
  Metrics.incr m_conflict_hits;
  Metrics.incr mj_conflict_hits;
  let level = eng.circuit.Circuit.level.(net) in
  eng.last_conflict_net <- net;
  eng.last_conflict_level <- level;
  if level > eng.deepest_conflict_level then
    eng.deepest_conflict_level <- level;
  match eng.att with
  | Some a ->
    a.Attrib.conflicts.(net) <- a.Attrib.conflicts.(net) + 1;
    a.Attrib.t_conflicts <- a.Attrib.t_conflicts + 1
  | None -> ()

let eval_gate_get = Pdf_sim.Logic_sim.eval_gate_get

(* ------------------------------------------------------------------ *)
(* Search state                                                        *)
(* ------------------------------------------------------------------ *)

(* The 5-valued algebra is carried as the (component-0, component-2)
   pair of each net — {stable 0, stable 1, rising (the classical D̄→D
   pair), falling, unassigned} — plus the conservatively hazard-aware
   intermediate component 1 (DESIGN.md §15).  PODEM assigns only PI
   pattern bits ([a1]/[a3]); everything else is implied forward. *)
type state = {
  c : Circuit.t;
  eng : t;
  cone : Req_cone.t;
  a1 : Bit.t array;  (* per PI *)
  a3 : Bit.t array;
  s : Bit.t array array;  (* implied values, 3 x nets *)
  read : (int -> Bit.t) array;  (* per component, reading [s] *)
  mutable implies : int;  (* implication passes, for deferred attribution *)
}

(* Forward implication: one pass over the cone in topological order,
   all three components evaluated with the shared scalar gate evaluator.
   A pure function of [a1]/[a3] — re-running it after restoring the
   assignment restores the implied state exactly, which is what makes
   chronological backtracking a plain unassign-and-reimply. *)
let imply st =
  let eng = st.eng in
  let gates = st.cone.Req_cone.gates and pis = st.cone.Req_cone.pis in
  let cost = Array.length gates in
  st.implies <- st.implies + 1;
  eng.e_imply_calls <- eng.e_imply_calls + 1;
  eng.e_imply_gates <- eng.e_imply_gates + cost;
  Metrics.incr m_implications;
  Metrics.add m_imply_gates cost;
  Metrics.add mj_resim_gates cost;
  let bug = injected_bug_enabled () in
  for i = 0 to Array.length pis - 1 do
    let pi = pis.(i) in
    st.s.(0).(pi) <- st.a1.(pi);
    st.s.(2).(pi) <- st.a3.(pi);
    st.s.(1).(pi) <- Two_pattern.middle_of_pair st.a1.(pi) st.a3.(pi)
  done;
  for i = 0 to Array.length gates - 1 do
    let g = st.c.Circuit.gates.(gates.(i)) in
    let out = Circuit.net_of_gate st.c gates.(i) in
    for k = 0 to 2 do
      (* The state's readers allocate nothing; only the injected bug
         builds one per gate. *)
      let read =
        if bug && k = 2 && Array.length g.Circuit.fanins > 1 then
          let f0 = g.Circuit.fanins.(0) in
          fun net -> if net = f0 then st.s.(0).(net) else st.s.(2).(net)
        else st.read.(k)
      in
      st.s.(k).(out) <- eval_gate_get g read
    done
  done

let conflict_net st = Req_cone.conflict_net st.cone st.s

let satisfied st = Req_cone.satisfied st.cone st.s

(* The objective frontier: requirement components pinned to a definite
   value whose implied value is still X.  This is the two-pattern
   generalisation of the classical D-frontier — instead of a faulty
   machine's D/D̄ boundary there is a set of required line values the
   search still has to drive (DESIGN.md §15); until the test is found
   (and absent a conflict) it is never empty, because an unsatisfied
   requirement is either a definite mismatch (a conflict) or an X. *)
let frontier st =
  let r = st.cone.Req_cone.r in
  Array.to_list st.cone.Req_cone.req_nets
  |> List.concat_map (fun net ->
         List.filter_map
           (fun k ->
             match r.(k).(net) with
             | Bit.X -> None
             | Bit.Zero | Bit.One ->
               if Bit.equal st.s.(k).(net) Bit.X then Some (net, k) else None)
           [ 0; 1; 2 ])

let objective st =
  match frontier st with
  | [] -> None
  | (net, k) :: _ ->
    let v =
      match st.cone.Req_cone.r.(k).(net) with
      | Bit.One -> true
      | Bit.Zero -> false
      | Bit.X -> assert false
    in
    Some (net, k, v)

(* Desired value for fanin [f] so gate [g]'s component-[k] output moves
   toward [v]: probe the shared evaluator with the fanin forced each
   way.  When neither definite value settles the output (several X
   inputs on a non-controlled gate), the goal value is passed through
   unchanged — value quality only affects search order, never
   completeness, because the decision loop tries both PI values. *)
let probe_value st g k f v =
  let want = Bit.of_bool v in
  let eval b =
    eval_gate_get g (fun net -> if net = f then b else st.s.(k).(net))
  in
  if Bit.equal (eval Bit.One) want then true
  else if Bit.equal (eval Bit.Zero) want then false
  else v

(* Backtrace: depth-first walk backward from objective [(net, k, v)]
   through X-valued nets to an unassigned PI pattern bit; returns the
   PI, the pattern index (1 or 3) and the value to try.  An X gate
   output always has an X fanin (three-valued evaluation is definite on
   definite inputs), so for components 0 and 2 the walk always ends at
   a PI whose corresponding bit is unassigned.  Component-1 objectives
   can additionally dead-end at PIs whose two bits are assigned and
   unequal — their intermediate value is X for good.  [None] therefore
   means the objective's entire X backward cone is frozen: no completion
   of the current assignment can ever make the component definite, so
   the caller soundly treats [None] as a refutation of the branch. *)
let backtrace st (net0, k0, v0) =
  let seen = Array.make (Circuit.num_nets st.c) false in
  let rec go net v =
    if seen.(net) then None
    else begin
      seen.(net) <- true;
      match Circuit.gate_of_net st.c net with
      | None ->
        (* A PI with an X component-[k0] value. *)
        let pi = net in
        if k0 = 0 then Some (pi, 1, v)
        else if k0 = 2 then Some (pi, 3, v)
        else if Bit.equal st.a1.(pi) Bit.X then Some (pi, 1, v)
        else if Bit.equal st.a3.(pi) Bit.X then Some (pi, 3, v)
        else None (* assigned unequal: the middle is X permanently *)
      | Some gi ->
        let g = st.c.Circuit.gates.(gi) in
        let arity = Array.length g.Circuit.fanins in
        let rec try_fanins i =
          if i >= arity then None
          else
            let f = g.Circuit.fanins.(i) in
            if Bit.equal st.s.(k0).(f) Bit.X then
              match go f (probe_value st g k0 f v) with
              | Some r -> Some r
              | None -> try_fanins (i + 1)
            else try_fanins (i + 1)
        in
        try_fanins 0
    end
  in
  go net0 v0

let set_bit st pi j b =
  match j with
  | 1 -> st.a1.(pi) <- Bit.of_bool b
  | 3 -> st.a3.(pi) <- Bit.of_bool b
  | _ -> invalid_arg "pattern"

let clear_bit st pi j =
  match j with
  | 1 -> st.a1.(pi) <- Bit.X
  | 3 -> st.a3.(pi) <- Bit.X
  | _ -> invalid_arg "pattern"

let make_state eng merged =
  let c = eng.circuit in
  let n = Circuit.num_nets c in
  let s = Array.init 3 (fun _ -> Array.make n Bit.X) in
  {
    c;
    eng;
    cone = Req_cone.make c merged;
    a1 = Array.make c.Circuit.num_pis Bit.X;
    a3 = Array.make c.Circuit.num_pis Bit.X;
    s;
    read = Array.init 3 (fun k -> let sk = s.(k) in fun net -> sk.(net));
    implies = 0;
  }

(* Deferred attribution flush, mirroring [Justify]'s [record_search]:
   every implication pass charged its full cone cost to every cone
   gate's output net, in one O(cone) pass at the end of the run. *)
let record_state st =
  let gates = st.cone.Req_cone.gates in
  match st.eng.att with
  | Some a when st.implies > 0 ->
    a.Attrib.t_resim_calls <- a.Attrib.t_resim_calls + st.implies;
    a.Attrib.t_resim_gates <-
      a.Attrib.t_resim_gates + (st.implies * Array.length gates);
    Array.iter
      (fun gi ->
        let net = Circuit.net_of_gate st.c gi in
        a.Attrib.resim_cone.(net) <- a.Attrib.resim_cone.(net) + st.implies)
      gates
  | Some _ | None -> ()

(* Fill unassigned bits with zeros, like [Justify.run_complete]: the
   implied values of assigned nets are monotone under completion
   (three-valued evaluation never turns a definite value back to X when
   inputs become more definite), so any fill preserves satisfaction. *)
let build_test st =
  let m = st.c.Circuit.num_pis in
  let v1 = Array.make m false and v3 = Array.make m false in
  Array.iter
    (fun pi ->
      (match Bit.to_bool st.a1.(pi) with
      | Some b -> v1.(pi) <- b
      | None -> ());
      match Bit.to_bool st.a3.(pi) with
      | Some b -> v3.(pi) <- b
      | None -> ())
    st.cone.Req_cone.pis;
  Test_pair.create v1 v3

type outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable
  | Gave_up

exception Budget_exhausted

type decision = {
  d_pi : int;
  d_j : int;
  mutable d_value : bool;
  mutable d_flipped : bool;
}

let note_run eng =
  Metrics.incr m_runs;
  Metrics.incr mj_runs;
  eng.e_runs <- eng.e_runs + 1;
  match eng.att with
  | Some a -> a.Attrib.t_runs <- a.Attrib.t_runs + 1
  | None -> ()

let run ?(max_backtracks = 10_000) eng ~reqs =
  Span.with_ "podem" @@ fun () ->
  note_run eng;
  let c = eng.circuit in
  match Req_cone.merge reqs with
  | None ->
    Metrics.incr m_conflicts;
    Proved_unsatisfiable
  | Some [] ->
    Found
      (Test_pair.create
         (Array.make c.Circuit.num_pis false)
         (Array.make c.Circuit.num_pis false))
  | Some merged ->
    let st = make_state eng merged in
    let stack = ref [] in
    let backtracks = ref 0 in
    let spend pi =
      incr backtracks;
      eng.e_backtracks <- eng.e_backtracks + 1;
      Metrics.incr m_backtracks;
      Metrics.incr mj_backtracks;
      Metrics.observe_int h_backtrack_depth (List.length !stack);
      (match eng.att with
      | Some a ->
        a.Attrib.backtracks.(pi) <- a.Attrib.backtracks.(pi) + 1;
        a.Attrib.t_backtracks <- a.Attrib.t_backtracks + 1
      | None -> ());
      if !backtracks > max_backtracks then raise Budget_exhausted
    in
    let decide pi j v =
      eng.e_decisions <- eng.e_decisions + 1;
      Metrics.incr m_decisions;
      stack := { d_pi = pi; d_j = j; d_value = v; d_flipped = false } :: !stack;
      set_bit st pi j v;
      imply st
    in
    (* Chronological backtracking over the decision stack: flip the most
       recent unflipped decision, discarding everything above it.  The
       decisions branch on both values of unassigned PI bits, so an
       exhausted stack is a proof of unsatisfiability (conflicts persist
       under completion by monotonicity, and a dead backtrace means the
       objective component is frozen at X). *)
    let rec step () =
      match conflict_net st with
      | Some net ->
        note_conflict eng net;
        backtrack ()
      | None ->
        if satisfied st then Some (build_test st)
        else begin
          match objective st with
          | None -> backtrack () (* unreachable: unmet => conflict or X *)
          | Some obj -> (
            match backtrace st obj with
            | None -> backtrack () (* frozen objective: branch refuted *)
            | Some (pi, j, v) ->
              decide pi j v;
              step ())
        end
    and backtrack () =
      match !stack with
      | [] -> None
      | d :: rest ->
        spend d.d_pi;
        if d.d_flipped then begin
          clear_bit st d.d_pi d.d_j;
          stack := rest;
          backtrack ()
        end
        else begin
          d.d_flipped <- true;
          d.d_value <- not d.d_value;
          set_bit st d.d_pi d.d_j d.d_value;
          imply st;
          step ()
        end
    in
    let outcome =
      try
        imply st;
        match step () with
        | Some test -> Found test
        | None ->
          Metrics.incr m_conflicts;
          Proved_unsatisfiable
      with Budget_exhausted ->
        eng.e_aborts <- eng.e_aborts + 1;
        Metrics.incr m_aborts;
        Gave_up
    in
    record_state st;
    outcome

(* ------------------------------------------------------------------ *)
(* Exposed internals for the property tests                            *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  type nonrec state = state

  let prepare eng ~reqs =
    match Req_cone.merge reqs with
    | None -> None
    | Some merged ->
      let st = make_state eng merged in
      imply st;
      Some st

  let imply = imply
  let frontier = frontier
  let conflict = conflict_net
  let satisfied = satisfied
  let objective = objective
  let backtrace = backtrace
  let cone_pis st = st.cone.Req_cone.pis

  let assign st (pi, j, v) = set_bit st pi j v
  let unassign st (pi, j) = clear_bit st pi j

  let bit_char = function Bit.Zero -> '0' | Bit.One -> '1' | Bit.X -> 'x'

  let snapshot st =
    let buf = Buffer.create 256 in
    let row a = Array.iter (fun b -> Buffer.add_char buf (bit_char b)) a in
    row st.a1;
    Buffer.add_char buf '/';
    row st.a3;
    Buffer.add_char buf '|';
    Array.iter
      (fun comp ->
        row comp;
        Buffer.add_char buf ';')
      st.s;
    Buffer.contents buf
end
