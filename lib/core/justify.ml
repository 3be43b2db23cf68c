module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Rng = Pdf_util.Rng
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Attrib = Pdf_obs.Attrib

(* All justification accounting lives in the pdf_obs metrics registry
   (process-wide, monotonic); [runs]/[trials] below read these. *)
let m_runs = Metrics.counter "justify.runs"
let m_trials = Metrics.counter "justify.trials"
let m_conflicts = Metrics.counter "justify.conflicts"
let m_backtracks = Metrics.counter "justify.backtracks"

(* Effort counters behind the attribution layer (DESIGN.md §14).  All
   three are semantic — defined by the search, not the engine — so they
   are byte-identical across [--jobs] and engine implementations:
   [trial_evals] counts overlay gate evaluations (pure scalar code),
   [resim_gates] charges every resimulation call its full-pass cost
   (cone size), however few gates the pass evaluated, and
   [conflict_hits] counts requirement-mismatch events wherever they are
   detected.  The per-net counterparts live in {!Pdf_obs.Attrib} sheets;
   the attrib oracle checks conservation between the two. *)
let m_trial_evals = Metrics.counter "justify.trial_evals"
let m_resim_gates = Metrics.counter "justify.resim_gates"
let m_conflict_hits = Metrics.counter "justify.conflict_hits"

let h_backtrack_depth =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "justify.backtrack_depth"

(* [e_runs]/[e_trials] mirror the process-wide metric counters but are
   per-engine, so callers measuring one phase get exact figures even
   when other engines run concurrently on other domains.  An engine is
   only ever driven from one domain at a time. *)
type t = {
  circuit : Circuit.t;
  att : Attrib.sheet option;
  mutable e_runs : int;
  mutable e_trials : int;
  mutable e_backtracks : int;
  mutable e_resim_calls : int;
  mutable e_resim_gates : int;
  (* Abort forensics, maintained unconditionally (cheap scalar writes):
     the most recent requirement-conflict net with its level, and the
     deepest (highest-level) conflict net seen since the last
     [reset_forensics].  Every conflict event is detected by scalar,
     engine-independent code, so these are byte-identical across
     engines and job counts. *)
  mutable last_conflict_net : int;
  mutable last_conflict_level : int;
  mutable deepest_conflict_level : int;
  mutable search : search option; (* built by the first search *)
}

(* The search state, one per engine, reloaded by every search. *)
and search = {
  c : Circuit.t;
  eng : t; (* owning engine: effort accounting and forensics *)
  mutable rng : Rng.t;
  cone : Req_cone.t;
  a1 : Bit.t array; (* per PI *)
  a3 : Bit.t array;
  sim : Cone_sim.t; (* the cone's values, resimulated and trialled *)
  s : Bit.t array array; (* [sim]'s persistent state, 3 x nets *)
  mutable unspecified : int; (* the cone's open bits *)
  mutable resims : int; (* resimulation calls, for deferred attribution *)
}

let create ?attrib circuit =
  {
    circuit;
    att = attrib;
    e_runs = 0;
    e_trials = 0;
    e_backtracks = 0;
    e_resim_calls = 0;
    e_resim_gates = 0;
    last_conflict_net = -1;
    last_conflict_level = -1;
    deepest_conflict_level = -1;
    search = None;
  }

let runs t = t.e_runs

let trials t = t.e_trials

let backtracks t = t.e_backtracks

let resim_calls t = t.e_resim_calls

let resim_gates t = t.e_resim_gates

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

let note_conflict engine net =
  Metrics.incr m_conflict_hits;
  let level = engine.circuit.Circuit.level.(net) in
  engine.last_conflict_net <- net;
  engine.last_conflict_level <- level;
  if level > engine.deepest_conflict_level then
    engine.deepest_conflict_level <- level;
  match engine.att with
  | Some a ->
    a.Attrib.conflicts.(net) <- a.Attrib.conflicts.(net) + 1;
    a.Attrib.t_conflicts <- a.Attrib.t_conflicts + 1
  | None -> ()

exception No_test

(* Bring [st.s] up to date with [st.a1]/[st.a3]: only cone PIs whose
   assignment changed seed the pass, and only the gates with a changed
   fanin are re-evaluated. *)
let resim st =
  let pis = st.cone.Req_cone.pis in
  (* Semantic cost: a full pass over the cone.  Charged per call so the
     global counter, the per-engine counter and (via [record_search])
     the per-net attribution stay conserved and engine-invariant. *)
  let cost = st.cone.Req_cone.n_gates in
  st.resims <- st.resims + 1;
  st.eng.e_resim_calls <- st.eng.e_resim_calls + 1;
  st.eng.e_resim_gates <- st.eng.e_resim_gates + cost;
  Metrics.add m_resim_gates cost;
  for i = 0 to st.cone.Req_cone.n_pis - 1 do
    let pi = pis.(i) in
    Cone_sim.set_pi st.sim pi ~v1:st.a1.(pi) ~v3:st.a3.(pi)
  done;
  Cone_sim.propagate st.sim

(* Trial-assign pattern bit [j] of PI [pi] to [b] in the cone's overlay,
   first in the bit's own component, then in the intermediate one;
   [true] when the trial conflicts with a requirement.  The persistent
   state is untouched, and nothing is allocated. *)
let trial engine st pi j b =
  Metrics.incr m_trials;
  engine.e_trials <- engine.e_trials + 1;
  (match engine.att with
  | Some a ->
    a.Attrib.trials.(pi) <- a.Attrib.trials.(pi) + 1;
    a.Attrib.t_trials <- a.Attrib.t_trials + 1
  | None -> ());
  let newv = Bit.of_bool b in
  let v1 = if j = 1 then newv else st.a1.(pi) in
  let v3 = if j = 3 then newv else st.a3.(pi) in
  let net = Cone_sim.trial st.sim pi ~v1 ~v3 in
  if net >= 0 then note_conflict engine net;
  net >= 0

let assign engine st pi j b =
  (match j with
  | 1 -> st.a1.(pi) <- Bit.of_bool b
  | 3 -> st.a3.(pi) <- Bit.of_bool b
  | _ -> invalid_arg "pattern");
  st.unspecified <- st.unspecified - 1;
  resim st;
  match Req_cone.conflict_net st.cone st.s with
  | Some net ->
    note_conflict engine net;
    raise No_test
  | None -> ()

(* Trial both values of pattern bit [j] of [pi] if it is open, and
   assign the other value when exactly one conflicts; [true] when a
   value was assigned. *)
let necessary_bit engine st pi j =
  let current = if j = 1 then st.a1.(pi) else st.a3.(pi) in
  if not (Bit.equal current Bit.X) then false
  else
    let c0 = trial engine st pi j false in
    let c1 = trial engine st pi j true in
    if c0 && c1 then raise No_test;
    (* the value that did not conflict: 1 exactly when 0 did *)
    if c0 || c1 then assign engine st pi j c0;
    c0 || c1

(* One pass over all unspecified cone bits, excluding values whose trial
   conflicts; repeated until no new value is assigned. *)
let necessary_values engine st =
  let pis = st.cone.Req_cone.pis in
  let continue = ref true in
  while !continue do
    continue := false;
    for i = 0 to st.cone.Req_cone.n_pis - 1 do
      if necessary_bit engine st pis.(i) 1 then continue := true;
      if necessary_bit engine st pis.(i) 3 then continue := true
    done
  done

(* The first cone input with exactly one specified pattern bit, or
   -1: the input both search strategies stabilise first. *)
let rec half_specified_from st i =
  if i >= st.cone.Req_cone.n_pis then -1
  else
    let pi = st.cone.Req_cone.pis.(i) in
    if Bit.is_definite st.a1.(pi) <> Bit.is_definite st.a3.(pi) then pi
    else half_specified_from st (i + 1)

let half_specified st = half_specified_from st 0

(* The [k]th open bit, counting from the [i]th cone input, bit 3 before
   bit 1 on each input; encoded [4 * pi + j] so nothing is allocated. *)
let rec open_bit_from st i k =
  let pi = st.cone.Req_cone.pis.(i) in
  let o3 = Bit.equal st.a3.(pi) Bit.X and o1 = Bit.equal st.a1.(pi) Bit.X in
  if o3 && k = 0 then (4 * pi) + 3
  else
    let k = if o3 then k - 1 else k in
    if o1 && k = 0 then (4 * pi) + 1
    else open_bit_from st (i + 1) (if o1 then k - 1 else k)

(* Decision step: prefer making a half-specified input stable (the paper's
   rule), otherwise specify a random unspecified bit randomly: one draw
   over the [unspecified] open bits, then one for the value. *)
let decide engine st =
  let pi = half_specified st in
  if pi >= 0 then
    if Bit.is_definite st.a1.(pi) then
      assign engine st pi 3 (Bit.equal st.a1.(pi) Bit.One)
    else assign engine st pi 1 (Bit.equal st.a3.(pi) Bit.One)
  else if st.unspecified > 0 then begin
    let bit = open_bit_from st 0 (Rng.int st.rng st.unspecified) in
    assign engine st (bit lsr 2) (bit land 3) (Rng.bool st.rng)
  end

let random_pattern rng n = Array.init n (fun _ -> Rng.bool rng)

(* The cone inputs' assigned bits over [v1]/[v3]: the test. *)
let fill_test st v1 v3 =
  for i = 0 to st.cone.Req_cone.n_pis - 1 do
    let pi = st.cone.Req_cone.pis.(i) in
    v1.(pi) <- Bit.equal st.a1.(pi) Bit.One;
    v3.(pi) <- Bit.equal st.a3.(pi) Bit.One
  done;
  Test_pair.create v1 v3

let build_test st =
  let m = st.c.Circuit.num_pis in
  let v1 = random_pattern st.rng m and v3 = random_pattern st.rng m in
  fill_test st v1 v3

(* Shared state construction for both search strategies: the engine's
   one search state, built by its first search — everything a search
   or a trial touches, the trial memo included (DESIGN.md §13.2) — and
   loaded with [merged] by every search.  Only the previous search's
   inputs need clearing: a search assigns cone inputs alone. *)
let make_search engine rng merged =
  let st =
    match engine.search with
    | Some st -> st
    | None ->
      let c = engine.circuit in
      let sim = Cone_sim.create ?attrib:engine.att c in
      let st =
        {
          c;
          eng = engine;
          rng;
          cone = Req_cone.create c;
          a1 = Array.make c.Circuit.num_pis Bit.X;
          a3 = Array.make c.Circuit.num_pis Bit.X;
          sim;
          s = Cone_sim.values sim;
          unspecified = 0;
          resims = 0;
        }
      in
      engine.search <- Some st;
      st
  in
  for i = 0 to st.cone.Req_cone.n_pis - 1 do
    let pi = st.cone.Req_cone.pis.(i) in
    st.a1.(pi) <- Bit.X;
    st.a3.(pi) <- Bit.X
  done;
  Req_cone.load st.cone merged;
  Cone_sim.retarget st.sim st.cone;
  st.rng <- rng;
  st.unspecified <- 2 * st.cone.Req_cone.n_pis;
  st.resims <- 0;
  st

(* Fold this search's resimulation work into the sim.inc.* metrics.
   When the engine carries an attribution sheet, the search's
   resimulation effort is flushed here in one O(cone) pass — [resims x
   cone] charged to every cone gate's output net — instead of a
   per-call cone walk on the hot path.  The trial evaluation count
   reaches its metric here too. *)
let record_search st =
  let gates = st.cone.Req_cone.gates and n = st.cone.Req_cone.n_gates in
  let evals = Cone_sim.trial_evals st.sim in
  if evals > 0 then Metrics.add m_trial_evals evals;
  (match st.eng.att with
  | Some a when st.resims > 0 ->
    a.Attrib.t_resim_calls <- a.Attrib.t_resim_calls + st.resims;
    a.Attrib.t_resim_gates <- a.Attrib.t_resim_gates + (st.resims * n);
    for i = 0 to n - 1 do
      let net = Circuit.net_of_gate st.c gates.(i) in
      a.Attrib.resim_cone.(net) <- a.Attrib.resim_cone.(net) + st.resims
    done
  | Some _ | None -> ());
  Cone_sim.record st.sim

type complete_outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable
  | Gave_up

exception Budget_exhausted

(* Deterministic branch-and-bound search over the cone input bits. *)
let note_run engine =
  Metrics.incr m_runs;
  engine.e_runs <- engine.e_runs + 1;
  match engine.att with
  | Some a -> a.Attrib.t_runs <- a.Attrib.t_runs + 1
  | None -> ()

let run_complete ?(max_backtracks = 10_000) engine ~reqs =
  Span.with_ "justify" @@ fun () ->
  note_run engine;
  let c = engine.circuit in
  match Req_cone.merge reqs with
  | None ->
    Metrics.incr m_conflicts;
    Proved_unsatisfiable
  | Some [] ->
    Found
      (Test_pair.create
         (Array.make c.Circuit.num_pis false)
         (Array.make c.Circuit.num_pis false))
  | Some merged -> (
    (* The rng is never consulted: decisions are deterministic and
       non-cone bits are filled with zeros. *)
    let st = make_search engine (Rng.create 0) merged in
    let backtracks = ref 0 in
    let snapshot () = (Array.copy st.a1, Array.copy st.a3, st.unspecified) in
    let restore (a1, a3, unspecified) =
      Array.blit a1 0 st.a1 0 (Array.length a1);
      Array.blit a3 0 st.a3 0 (Array.length a3);
      st.unspecified <- unspecified;
      resim st
    in
    (* [pi] is the decision input being retracted; the backtrack is
       charged to its net in the attribution sheet. *)
    let spend depth pi =
      incr backtracks;
      engine.e_backtracks <- engine.e_backtracks + 1;
      Metrics.incr m_backtracks;
      Metrics.observe_int h_backtrack_depth depth;
      (match engine.att with
      | Some a ->
        a.Attrib.backtracks.(pi) <- a.Attrib.backtracks.(pi) + 1;
        a.Attrib.t_backtracks <- a.Attrib.t_backtracks + 1
      | None -> ());
      if !backtracks > max_backtracks then raise Budget_exhausted
    in
    (* The paper's decision preference, made deterministic: stabilise a
       half-specified input first (copy value, then its complement), else
       take the first open bit with 0 before 1. *)
    let next_decision () =
      let pi = half_specified st in
      if pi >= 0 then
        if Bit.is_definite st.a1.(pi) then
          let b = Bit.equal st.a1.(pi) Bit.One in
          Some (pi, 3, [ b; not b ])
        else
          let b = Bit.equal st.a3.(pi) Bit.One in
          Some (pi, 1, [ b; not b ])
      else if st.unspecified = 0 then None
      else
        (* the first input with an open bit, bit 1 before bit 3 *)
        let bit = open_bit_from st 0 0 in
        let pi = bit lsr 2 in
        if Bit.equal st.a1.(pi) Bit.X then Some (pi, 1, [ false; true ])
        else Some (pi, 3, [ false; true ])
    in
    let build_deterministic_test () =
      let m = st.c.Circuit.num_pis in
      fill_test st (Array.make m false) (Array.make m false)
    in
    (* DFS: returns Some test on success, None when this subtree is
       refuted. *)
    let rec solve depth =
      match
        (try
           necessary_values engine st;
           `Ok
         with No_test -> `Conflict)
      with
      | `Conflict -> None
      | `Ok -> (
        if st.unspecified = 0 then
          if Req_cone.satisfied st.cone st.s then
            Some (build_deterministic_test ())
          else None
        else
          match next_decision () with
          | None -> None
          | Some (pi, j, values) ->
            let saved = snapshot () in
            let rec try_values = function
              | [] -> None
              | b :: rest -> (
                match
                  (try
                     assign engine st pi j b;
                     `Ok
                   with No_test -> `Conflict)
                with
                | `Conflict ->
                  spend depth pi;
                  restore saved;
                  try_values rest
                | `Ok -> (
                  match solve (depth + 1) with
                  | Some test -> Some test
                  | None ->
                    spend depth pi;
                    restore saved;
                    try_values rest))
            in
            try_values values)
    in
    let outcome =
      try
        resim st;
        match Req_cone.conflict_net st.cone st.s with
        | Some net ->
          note_conflict engine net;
          Metrics.incr m_conflicts;
          Proved_unsatisfiable
        | None -> (
          match solve 0 with
          | Some test -> Found test
          | None ->
            Metrics.incr m_conflicts;
            Proved_unsatisfiable)
      with Budget_exhausted -> Gave_up
    in
    record_search st;
    outcome)

let run engine ~rng ~reqs =
  Span.with_ "justify" @@ fun () ->
  note_run engine;
  let c = engine.circuit in
  match Req_cone.merge reqs with
  | None ->
    Metrics.incr m_conflicts;
    None
  | Some [] ->
    Some
      (Test_pair.create
         (random_pattern rng c.Circuit.num_pis)
         (random_pattern rng c.Circuit.num_pis))
  | Some merged ->
    let st = make_search engine rng merged in
    let result =
      try
        resim st;
        (match Req_cone.conflict_net st.cone st.s with
        | Some net ->
          note_conflict engine net;
          raise No_test
        | None -> ());
        while st.unspecified > 0 do
          necessary_values engine st;
          if st.unspecified > 0 then decide engine st
        done;
        if Req_cone.satisfied st.cone st.s then Some (build_test st) else None
      with No_test -> None
    in
    record_search st;
    if result = None then Metrics.incr m_conflicts;
    result

(* ------------------------------------------------------------------ *)
(* Backend selection and the dispatching engine                        *)
(* ------------------------------------------------------------------ *)

type kind = Sim | Podem | Portfolio

let kind_name = function
  | Sim -> "sim"
  | Podem -> "podem"
  | Portfolio -> "portfolio"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "sim" | "simulation" -> Some Sim
  | "podem" -> Some Podem
  | "portfolio" -> Some Portfolio
  | _ -> None

let default_kind () =
  match Sys.getenv_opt "PDF_JUSTIFY" with
  | None | Some "" -> Sim
  | Some s -> (
    match kind_of_name s with
    | Some k -> k
    | None ->
      invalid_arg
        (Printf.sprintf "PDF_JUSTIFY=%S: expected sim, podem or portfolio" s))

module Engine = struct
  (* Alias the simulation engine's type before [t] is shadowed below. *)
  type sim_engine = t

  type member_impl = Sim_member of sim_engine | Podem_member of Podem.t

  type member = { label : string; impl : member_impl }

  type t = {
    kind : kind;
    members : member array; (* fixed priority order *)
    mutable last_winner : string;
  }

  (* Portfolio composition: the structural engine first (deterministic,
     complete up to budget), then the paper's simulation engine, then
     [restarts] random-restart simulation members.  The order is the
     escalation order, and so the winner priority. *)
  let restarts = 2

  let create ?attrib ?(kind = default_kind ()) circuit =
    let sim label = { label; impl = Sim_member (create ?attrib circuit) } in
    let podem () =
      { label = "podem"; impl = Podem_member (Podem.create ?attrib circuit) }
    in
    let members =
      match kind with
      | Sim -> [| sim "sim" |]
      | Podem -> [| podem () |]
      | Portfolio ->
        Array.of_list
          (podem () :: sim "sim"
          :: List.init restarts (fun i ->
                 sim (Printf.sprintf "sim-r%d" (i + 1))))
    in
    { kind; members; last_winner = "" }

  let kind t = t.kind

  let run t ~rng ~reqs =
    (* [Sim] passes the caller's stream straight through.  [Portfolio]
       draws from it exactly once per call, whatever the members
       answer; each simulation member derives its seed from that draw
       and its index. *)
    let member_rng =
      match t.kind with
      | Sim | Podem -> fun _ -> rng
      | Portfolio ->
        let base = Int64.to_int (Rng.next rng) land max_int in
        fun i -> Rng.create (base lxor (0x9e3779b9 * (i + 1)))
    in
    (* Members run one after another in priority order; the first test
       wins.  PODEM's proof of unsatisfiability ends the escalation
       too: a simulation member returns only a test satisfying the
       merged requirements, so none could succeed after it
       (DESIGN.md §15.2). *)
    let rec escalate i =
      if i >= Array.length t.members then None
      else
        let m = t.members.(i) in
        let outcome =
          match m.impl with
          | Podem_member p -> Podem.run p ~reqs
          | Sim_member e -> (
            match run e ~rng:(member_rng i) ~reqs with
            | Some test -> Podem.Found test
            | None -> Podem.Gave_up (* no claim either way *))
        in
        match outcome with
        | Podem.Found test ->
          t.last_winner <- m.label;
          Some test
        | Podem.Proved_unsatisfiable -> None
        | Podem.Gave_up -> escalate (i + 1)
    in
    escalate 0

  let winner t = t.last_winner

  let sum t f_sim f_podem =
    Array.fold_left
      (fun acc m ->
        acc
        +
        match m.impl with
        | Sim_member e -> f_sim e
        | Podem_member p -> f_podem p)
      0 t.members

  let runs t = sum t runs Podem.runs

  (* The structural engine's unit of search work is the PI decision;
     it is reported in the [trials] column so per-fault effort stays
     one schema across backends (DESIGN.md §15). *)
  let trials t = sum t trials Podem.decisions

  let backtracks t = sum t backtracks Podem.backtracks

  let resim_gates t = sum t resim_gates Podem.imply_gates

  let aborts t = sum t (fun _ -> 0) Podem.aborts

  let member_forensics m =
    match m.impl with
    | Sim_member e -> forensics e
    | Podem_member p ->
      let f = Podem.forensics p in
      {
        last_net = f.Podem.last_net;
        last_level = f.Podem.last_level;
        deepest_level = f.Podem.deepest_level;
      }

  (* Deterministic combination: the deepest conflict level over all
     members, and the last-conflict net of the first member (in
     priority order) that recorded one. *)
  let forensics t =
    let fs = Array.map member_forensics t.members in
    let deepest =
      Array.fold_left (fun acc f -> max acc f.deepest_level) (-1) fs
    in
    let last =
      let rec find i =
        if i >= Array.length fs then
          { last_net = -1; last_level = -1; deepest_level = deepest }
        else if fs.(i).last_net >= 0 then fs.(i)
        else find (i + 1)
      in
      find 0
    in
    { last with deepest_level = deepest }

  let reset_forensics t =
    Array.iter
      (fun m ->
        match m.impl with
        | Sim_member e -> reset_forensics e
        | Podem_member p -> Podem.reset_forensics p)
      t.members
end
