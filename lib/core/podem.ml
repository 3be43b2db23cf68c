module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Implication = Pdf_sim.Implication
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span

(* Engine-specific observability.  What PODEM shares with the sim
   engine — runs, conflict hits, backtracks, full-cone passes — its
   [Effort] account charges.  The structural engine has no trial
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
  effort : Effort.t;
  mutable search : state option; (* built by the first search *)
}

(* The 5-valued algebra is carried as the (component-0, component-2)
   pair of each net — {stable 0, stable 1, rising (the classical D̄→D
   pair), falling, unassigned} — plus the conservatively hazard-aware
   intermediate component 1 (DESIGN.md §15).  PODEM assigns only PI
   pattern bits ([a1]/[a3]); everything else is implied forward, and
   [imp] implies the requirements and the assigned bits both ways.
   Everything the search step touches lives here, once per engine,
   reloaded by every search (DESIGN.md §15.5). *)
and state = {
  c : Circuit.t;
  eng : t;
  cone : Req_cone.t;
  a1 : Bit.t array;  (* per PI *)
  a3 : Bit.t array;
  sim : Cone_sim.t;  (* the cone's implied values *)
  imp : Implication.t;
      (* the merged requirements plus the assigned bits, implied forward
         and backward over the cone; in step with the decision stack *)
  s : Bit.t array array;  (* [sim]'s state, 3 x nets *)
  read : (int -> Bit.t) array;  (* per component, reading [s] *)
  seen : int array;  (* per net: the backtrace walk that last visited it *)
  mutable walk : int;
  (* The objective [objective] picked, and the decision [backtrace]
     derived from it: fields, so that neither allocates a result. *)
  mutable obj_net : int;
  mutable obj_k : int;
  mutable obj_v : bool;
  mutable dec_pi : int;
  mutable dec_j : int;  (* pattern bit, 1 or 3 *)
  mutable dec_v : bool;
  (* The decision stack, [run]'s.  Every decision assigns an open bit
     of a cone PI, so it never holds more entries than the circuit has
     input bits.  [d_mark] is [imp]'s trail mark before the decision. *)
  mutable depth : int;
  d_pi : int array;
  d_j : int array;
  d_value : bool array;
  d_flipped : bool array;
  d_mark : int array;
}

let create ?attrib circuit =
  { effort = Effort.create ?attrib circuit; search = None }

let effort t = t.effort

let note_conflict eng net =
  Metrics.incr m_conflict_hits;
  Effort.conflict eng.effort net

let eval_gate_get = Pdf_sim.Logic_sim.eval_gate_get

(* ------------------------------------------------------------------ *)
(* Search state                                                        *)
(* ------------------------------------------------------------------ *)

(* One pass over the whole cone in ascending gate index (a topological
   order): the implication of [a1]/[a3], computed from them alone.  The
   reference the engine's event-driven passes are tested against, and
   the pass that overwrites theirs while the injected bug is on. *)
let full_pass st =
  let gates = st.cone.Req_cone.gates and pis = st.cone.Req_cone.pis in
  let s = st.s and bug = injected_bug_enabled () in
  for i = 0 to st.cone.Req_cone.n_pis - 1 do
    let pi = pis.(i) in
    s.(0).(pi) <- st.a1.(pi);
    s.(1).(pi) <- Two_pattern.middle_of_pair st.a1.(pi) st.a3.(pi);
    s.(2).(pi) <- st.a3.(pi)
  done;
  for i = 0 to st.cone.Req_cone.n_gates - 1 do
    let g = st.c.Circuit.gates.(gates.(i)) in
    let out = Circuit.net_of_gate st.c gates.(i) in
    for k = 0 to 2 do
      let read =
        if bug && k = 2 && Array.length g.Circuit.fanins > 1 then
          let f0 = g.Circuit.fanins.(0) in
          fun net -> if net = f0 then s.(0).(net) else s.(2).(net)
        else st.read.(k)
      in
      s.(k).(out) <- eval_gate_get g read
    done
  done

(* Forward implication, a pure function of [a1]/[a3] — re-running it
   after restoring the assignment restores the implied state exactly,
   which is what makes chronological backtracking a plain
   unassign-and-reimply.  Event-driven: the pattern-bit writes since
   the last pass queued it, so the retractions of one backtrack seed
   one pass together.  The account charges every pass a full cone at
   the end of the search, the unit the sim engine's resimulation is
   charged. *)
let imply st =
  let e = st.eng.effort in
  e.Effort.passes <- e.Effort.passes + 1;
  Cone_sim.propagate st.sim;
  if injected_bug_enabled () then full_pass st

let conflict_net st = Req_cone.conflict_net st.cone st.s

let satisfied st = Req_cone.satisfied st.cone st.s

(* The objective frontier: requirement components pinned to a definite
   value whose implied value is still X.  This is the two-pattern
   generalisation of the classical D-frontier — instead of a faulty
   machine's D/D̄ boundary there is a set of required line values the
   search still has to drive (DESIGN.md §15); until the test is found
   (and absent a conflict) it is never empty, because an unsatisfied
   requirement is either a definite mismatch (a conflict) or an X.
   Listed for the property tests; the search takes its first entry
   through [objective]. *)
let frontier st =
  let r = st.cone.Req_cone.r in
  Array.to_list (Array.sub st.cone.Req_cone.req_nets 0 st.cone.Req_cone.n_req)
  |> List.concat_map (fun net ->
         List.filter_map
           (fun k ->
             match r.(k).(net) with
             | Bit.X -> None
             | Bit.Zero | Bit.One ->
               if Bit.equal st.s.(k).(net) Bit.X then Some (net, k) else None)
           [ 0; 1; 2 ])

(* The frontier's first entry at or after component [k] of the [i]th
   required net, into [obj_*]; [false] when there is none. *)
let rec objective_from st i k =
  let nets = st.cone.Req_cone.req_nets in
  if i >= st.cone.Req_cone.n_req then false
  else if k > 2 then objective_from st (i + 1) 0
  else
    let net = nets.(i) in
    match st.cone.Req_cone.r.(k).(net) with
    | (Bit.Zero | Bit.One) as v when Bit.equal st.s.(k).(net) Bit.X ->
      st.obj_net <- net;
      st.obj_k <- k;
      st.obj_v <- Bit.equal v Bit.One;
      true
    | Bit.Zero | Bit.One | Bit.X -> objective_from st i (k + 1)

let objective st = objective_from st 0 0

(* Desired value for fanin [f] (implied X) so gate [g]'s component-[k]
   output moves toward [v]: probe the shared evaluator with the fanin
   written each way into the state, then restore its X.  When neither
   definite value settles the output (several X inputs on a
   non-controlled gate), the goal value is passed through unchanged —
   value quality only affects search order, never completeness,
   because the decision loop tries both PI values. *)
let probe_value st g k f v =
  let want = Bit.of_bool v and sk = st.s.(k) and read = st.read.(k) in
  sk.(f) <- Bit.One;
  let toward =
    if Bit.equal (eval_gate_get g read) want then true
    else begin
      sk.(f) <- Bit.Zero;
      if Bit.equal (eval_gate_get g read) want then false else v
    end
  in
  sk.(f) <- Bit.X;
  toward

let decide_bit st pi j v =
  st.dec_pi <- pi;
  st.dec_j <- j;
  st.dec_v <- v;
  true

(* Backtrace: depth-first walk backward from the objective through
   X-valued nets to an unassigned PI pattern bit, into [dec_*].  An X
   gate output always has an X fanin (three-valued evaluation is
   definite on definite inputs), so for components 0 and 2 the walk
   always ends at a PI whose corresponding bit is unassigned.
   Component-1 objectives can additionally dead-end at PIs whose two
   bits are assigned and unequal — their intermediate value is X for
   good.  [false] therefore means the objective's entire X backward cone
   is frozen: no completion of the current assignment can ever make the
   component definite, so the caller soundly treats it as a refutation
   of the branch.  A net is visited at most once per walk: a revisited
   net led nowhere the first time. *)
let rec backtrace_net st net v =
  if st.seen.(net) = st.walk then false
  else begin
    st.seen.(net) <- st.walk;
    let num_pis = st.c.Circuit.num_pis in
    if net >= num_pis then
      backtrace_fanins st st.c.Circuit.gates.(net - num_pis) 0 v
    else
      (* A PI with an X component-[obj_k] value. *)
      let pi = net in
      if st.obj_k = 0 then decide_bit st pi 1 v
      else if st.obj_k = 2 then decide_bit st pi 3 v
      else if Bit.equal st.a1.(pi) Bit.X then decide_bit st pi 1 v
      else if Bit.equal st.a3.(pi) Bit.X then decide_bit st pi 3 v
      else false (* assigned unequal: the middle is X permanently *)
  end

and backtrace_fanins st g i v =
  i < Array.length g.Circuit.fanins
  &&
  let f = g.Circuit.fanins.(i) and k = st.obj_k in
  (Bit.equal st.s.(k).(f) Bit.X && backtrace_net st f (probe_value st g k f v))
  || backtrace_fanins st g (i + 1) v

let backtrace st =
  st.walk <- st.walk + 1;
  backtrace_net st st.obj_net st.obj_v

(* A pattern-bit write installs its PI's values at once, queueing the
   next implication pass. *)
let write_bit st pi j v =
  (match j with
  | 1 -> st.a1.(pi) <- v
  | 3 -> st.a3.(pi) <- v
  | _ -> invalid_arg "pattern");
  Cone_sim.set_pi st.sim pi ~v1:st.a1.(pi) ~v3:st.a3.(pi)

let set_bit st pi j b = write_bit st pi j (Bit.of_bool b)
let clear_bit st pi j = write_bit st pi j Bit.X

(* Pattern bit [j] of [pi] into the implication: its component is [j]
   too.  The net implication blames, or -1 when it stays consistent. *)
let assume_bit st pi j v =
  match Implication.assume st.imp ~component:j pi (Bit.of_bool v) with
  | None -> -1
  | Some { Implication.net; _ } -> net

(* The decision stack's three moves, each keeping [imp] in step: a
   decision marks the trail before its bit, a flip and a pop undo to
   that mark.  [push] and [flip] return [assume_bit]'s answer and leave
   the [Cone_sim] pass to the caller: a refuted branch needs none. *)
let push st pi j v =
  let d = st.depth in
  st.d_pi.(d) <- pi;
  st.d_j.(d) <- j;
  st.d_value.(d) <- v;
  st.d_flipped.(d) <- false;
  st.d_mark.(d) <- Implication.mark st.imp;
  st.depth <- d + 1;
  set_bit st pi j v;
  assume_bit st pi j v

let flip st =
  let d = st.depth - 1 in
  let v = not st.d_value.(d) in
  st.d_flipped.(d) <- true;
  st.d_value.(d) <- v;
  Implication.undo st.imp st.d_mark.(d);
  set_bit st st.d_pi.(d) st.d_j.(d) v;
  assume_bit st st.d_pi.(d) st.d_j.(d) v

let pop st =
  let d = st.depth - 1 in
  Implication.undo st.imp st.d_mark.(d);
  clear_bit st st.d_pi.(d) st.d_j.(d);
  st.depth <- d

(* The engine's one search state, built by its first search, loaded
   with [merged]: the assignment and the decision stack cleared, the
   cone and its values retargeted, the implication reset and seeded
   with [merged] — a conflict there refutes the whole set.  [walk]
   carries on, so [seen] needs no clearing. *)
let load_state eng merged =
  let st =
    match eng.search with
    | Some st -> st
    | None ->
      let c = eng.effort.Effort.circuit in
      let sim = Cone_sim.create c in
      let s = Cone_sim.values sim in
      let np = c.Circuit.num_pis in
      let cone = Req_cone.create c in
      let st =
        {
          c;
          eng;
          cone;
          a1 = Array.make np Bit.X;
          a3 = Array.make np Bit.X;
          sim;
          imp = Implication.create ~within:cone.Req_cone.in_cone c;
          s;
          read = Array.init 3 (fun k -> let sk = s.(k) in fun net -> sk.(net));
          seen = Array.make (Circuit.num_nets c) 0;
          walk = 0;
          obj_net = -1;
          obj_k = 0;
          obj_v = false;
          dec_pi = -1;
          dec_j = 1;
          dec_v = false;
          depth = 0;
          d_pi = Array.make (2 * np) 0;
          d_j = Array.make (2 * np) 0;
          d_value = Array.make (2 * np) false;
          d_flipped = Array.make (2 * np) false;
          d_mark = Array.make (2 * np) 0;
        }
      in
      eng.search <- Some st;
      st
  in
  Array.fill st.a1 0 (Array.length st.a1) Bit.X;
  Array.fill st.a3 0 (Array.length st.a3) Bit.X;
  st.depth <- 0;
  Implication.reset st.imp;
  Req_cone.load st.cone merged;
  Cone_sim.retarget st.sim st.cone;
  ignore (Implication.extend st.imp merged : Implication.conflict option);
  st

(* Fill unassigned bits with zeros, like [Justify.run_complete]: the
   implied values of assigned nets are monotone under completion
   (three-valued evaluation never turns a definite value back to X when
   inputs become more definite), so any fill preserves satisfaction. *)
let build_test st =
  let m = st.c.Circuit.num_pis in
  let v1 = Array.make m false and v3 = Array.make m false in
  for i = 0 to st.cone.Req_cone.n_pis - 1 do
    let pi = st.cone.Req_cone.pis.(i) in
    v1.(pi) <- Bit.equal st.a1.(pi) Bit.One;
    v3.(pi) <- Bit.equal st.a3.(pi) Bit.One
  done;
  Test_pair.create v1 v3

type outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable
  | Gave_up

exception Budget_exhausted

let run ?(max_backtracks = 10_000) eng ~reqs =
  Span.with_ "podem" @@ fun () ->
  let e = eng.effort in
  Metrics.incr m_runs;
  Effort.run e;
  let c = e.Effort.circuit in
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
    let st = load_state eng merged in
    let budget = e.Effort.backtracks + max_backtracks in
    let spend pi =
      Metrics.incr m_backtracks;
      Effort.backtrack e ~depth:st.depth pi;
      if e.Effort.backtracks > budget then raise Budget_exhausted
    in
    (* Chronological backtracking over the decision stack: flip the most
       recent unflipped decision, discarding everything above it.  The
       decisions branch on both values of unassigned PI bits, so an
       exhausted stack is a proof of unsatisfiability (conflicts persist
       under completion by monotonicity, and a dead backtrace means the
       objective component is frozen at X).  With no conflict, an unmet
       requirement always leaves an objective; a backtrace that finds no
       open bit refutes the branch.  A decision or flip whose bit [imp]
       refutes is backtracked at once, without the forward pass: no
       completion of it satisfies the requirements, so the search below
       it would find no test and end in this same backtrack.  [imp]
       also applies the forward rules, so while it is consistent no
       forward value contradicts a requirement, and the search step
       needs no requirement-conflict check of its own. *)
    let rec step () =
      if satisfied st then Some (build_test st)
      else if objective st && backtrace st then begin
        e.Effort.steps <- e.Effort.steps + 1;
        Metrics.incr m_decisions;
        descend (push st st.dec_pi st.dec_j st.dec_v)
      end
      else backtrack ()
    and descend refuted_at =
      if refuted_at < 0 then begin
        imply st;
        step ()
      end
      else begin
        note_conflict eng refuted_at;
        backtrack ()
      end
    and backtrack () =
      if st.depth = 0 then None
      else begin
        let d = st.depth - 1 in
        spend st.d_pi.(d);
        if st.d_flipped.(d) then begin
          pop st;
          backtrack ()
        end
        else descend (flip st)
      end
    in
    let outcome =
      try
        match Implication.failed st.imp with
        | Some { Implication.net; _ } ->
          (* Implication refutes the set before any decision. *)
          note_conflict eng net;
          Metrics.incr m_conflicts;
          Proved_unsatisfiable
        | None -> (
          imply st;
          match step () with
          | Some test -> Found test
          | None ->
            Metrics.incr m_conflicts;
            Proved_unsatisfiable)
      with Budget_exhausted ->
        Effort.abort e;
        Metrics.incr m_aborts;
        Gave_up
    in
    let passes = e.Effort.passes in
    Metrics.add m_implications passes;
    Metrics.add m_imply_gates (passes * st.cone.Req_cone.n_gates);
    Effort.finish e st.cone;
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
      let st = load_state eng merged in
      imply st;
      Some st

  let imply = imply
  let full_pass = full_pass
  let frontier = frontier
  let conflict = conflict_net
  let satisfied = satisfied

  let objective st =
    if objective st then Some (st.obj_net, st.obj_k, st.obj_v) else None

  let backtrace st (net, k, v) =
    st.obj_net <- net;
    st.obj_k <- k;
    st.obj_v <- v;
    if backtrace st then Some (st.dec_pi, st.dec_j, st.dec_v) else None

  let cone_pis st = Array.sub st.cone.Req_cone.pis 0 st.cone.Req_cone.n_pis

  let assign st (pi, j, v) = set_bit st pi j v
  let unassign st (pi, j) = clear_bit st pi j
  let decide st (pi, j, v) = push st pi j v < 0
  let flip st = flip st < 0
  let pop = pop
  let depth st = st.depth
  let implication st = st.imp

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
