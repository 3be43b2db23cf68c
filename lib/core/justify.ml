module Bit = Pdf_values.Bit
module Circuit = Pdf_circuit.Circuit
module Rng = Pdf_util.Rng
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Attrib = Pdf_obs.Attrib

(* The sim engine's own metrics: its trials, their overlay gate
   evaluations (added once per search from [Cone_sim]) and its failed
   searches.  What it shares with PODEM — runs, conflict hits,
   backtracks, resimulation gates — its [Effort] account charges. *)
let m_trials = Metrics.counter "justify.trials"
let m_conflicts = Metrics.counter "justify.conflicts"
let m_trial_evals = Metrics.counter "justify.trial_evals"

type t = {
  effort : Effort.t;
  mutable search : search option; (* built by the first search *)
}

(* The search state, one per engine, reloaded by every search. *)
and search = {
  c : Circuit.t;
  mutable rng : Rng.t;
  cone : Req_cone.t;
  a1 : Bit.t array; (* per PI *)
  a3 : Bit.t array;
  sim : Cone_sim.t; (* the cone's values, resimulated and trialled *)
  s : Bit.t array array; (* [sim]'s persistent state, 3 x nets *)
  mutable unspecified : int; (* the cone's open bits *)
}

let create ?attrib circuit =
  { effort = Effort.create ?attrib circuit; search = None }

let effort t = t.effort

type forensics = Effort.forensics = {
  last_net : int;
  last_level : int;
  deepest_level : int;
}

exception No_test

(* Bring [st.s] up to date with [st.a1]/[st.a3]: only cone PIs whose
   assignment changed seed the pass, and only the gates with a changed
   fanin are re-evaluated.  The account charges the pass a full cone
   at the end of the search. *)
let resim engine st =
  let e = engine.effort in
  e.Effort.passes <- e.Effort.passes + 1;
  let pis = st.cone.Req_cone.pis in
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
  let e = engine.effort in
  Metrics.incr m_trials;
  e.Effort.steps <- e.Effort.steps + 1;
  (match e.Effort.sheet with
  | Some a ->
    a.Attrib.trials.(pi) <- a.Attrib.trials.(pi) + 1;
    a.Attrib.t_trials <- a.Attrib.t_trials + 1
  | None -> ());
  let newv = Bit.of_bool b in
  let v1 = if j = 1 then newv else st.a1.(pi) in
  let v3 = if j = 3 then newv else st.a3.(pi) in
  let net = Cone_sim.trial st.sim pi ~v1 ~v3 in
  if net >= 0 then Effort.conflict e net;
  net >= 0

let assign engine st pi j b =
  (match j with
  | 1 -> st.a1.(pi) <- Bit.of_bool b
  | 3 -> st.a3.(pi) <- Bit.of_bool b
  | _ -> invalid_arg "pattern");
  st.unspecified <- st.unspecified - 1;
  resim engine st;
  match Req_cone.conflict_net st.cone st.s with
  | Some net ->
    Effort.conflict engine.effort net;
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
      let c = engine.effort.Effort.circuit in
      let sim = Cone_sim.create ?attrib:engine.effort.Effort.sheet c in
      let st =
        {
          c;
          rng;
          cone = Req_cone.create c;
          a1 = Array.make c.Circuit.num_pis Bit.X;
          a3 = Array.make c.Circuit.num_pis Bit.X;
          sim;
          s = Cone_sim.values sim;
          unspecified = 0;
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
  st

(* The search's resimulations reach the account, its trial
   evaluations their metric, and its persistent passes the sim.inc.*
   metrics: once per search, not per call. *)
let record_search engine st =
  let evals = Cone_sim.trial_evals st.sim in
  if evals > 0 then Metrics.add m_trial_evals evals;
  Effort.finish engine.effort st.cone;
  Cone_sim.record st.sim

type complete_outcome = Podem.outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable
  | Gave_up

exception Budget_exhausted

(* Deterministic branch-and-bound search over the cone input bits. *)
let run_complete ?(max_backtracks = 10_000) engine ~reqs =
  Span.with_ "justify" @@ fun () ->
  let e = engine.effort in
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
  | Some merged -> (
    (* The rng is never consulted: decisions are deterministic and
       non-cone bits are filled with zeros. *)
    let st = make_search engine (Rng.create 0) merged in
    let budget = e.Effort.backtracks + max_backtracks in
    let snapshot () = (Array.copy st.a1, Array.copy st.a3, st.unspecified) in
    let restore (a1, a3, unspecified) =
      Array.blit a1 0 st.a1 0 (Array.length a1);
      Array.blit a3 0 st.a3 0 (Array.length a3);
      st.unspecified <- unspecified;
      resim engine st
    in
    (* [pi] is the decision input being retracted. *)
    let spend depth pi =
      Effort.backtrack e ~depth pi;
      if e.Effort.backtracks > budget then raise Budget_exhausted
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
        resim engine st;
        match Req_cone.conflict_net st.cone st.s with
        | Some net ->
          Effort.conflict e net;
          Metrics.incr m_conflicts;
          Proved_unsatisfiable
        | None -> (
          match solve 0 with
          | Some test -> Found test
          | None ->
            Metrics.incr m_conflicts;
            Proved_unsatisfiable)
      with Budget_exhausted ->
        Effort.abort e;
        Gave_up
    in
    record_search engine st;
    outcome)

let run engine ~rng ~reqs =
  Span.with_ "justify" @@ fun () ->
  Effort.run engine.effort;
  let c = engine.effort.Effort.circuit in
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
        resim engine st;
        (match Req_cone.conflict_net st.cone st.s with
        | Some net ->
          Effort.conflict engine.effort net;
          raise No_test
        | None -> ());
        while st.unspecified > 0 do
          necessary_values engine st;
          if st.unspecified > 0 then decide engine st
        done;
        if Req_cone.satisfied st.cone st.s then Some (build_test st) else None
      with No_test -> None
    in
    record_search engine st;
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

  type member = { label : string; impl : member_impl; account : Effort.t }

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
    let sim label =
      let e = create ?attrib circuit in
      { label; impl = Sim_member e; account = e.effort }
    in
    let podem () =
      let p = Podem.create ?attrib circuit in
      { label = "podem"; impl = Podem_member p; account = Podem.effort p }
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
            | Some test -> Found test
            | None -> Gave_up (* no claim either way *))
        in
        match outcome with
        | Found test ->
          t.last_winner <- m.label;
          Some test
        | Proved_unsatisfiable -> None
        | Gave_up -> escalate (i + 1)
    in
    escalate 0

  let winner t = t.last_winner

  (* Every figure folds the member accounts.  A PODEM account's steps
     are its decisions, reported in the [trials] column so per-fault
     effort stays one schema across backends (DESIGN.md §15). *)
  let sum t field =
    Array.fold_left (fun acc m -> acc + field m.account) 0 t.members

  let runs t = sum t (fun e -> e.Effort.runs)
  let trials t = sum t (fun e -> e.Effort.steps)
  let backtracks t = sum t (fun e -> e.Effort.backtracks)
  let resim_gates t = sum t (fun e -> e.Effort.pass_gates)
  let aborts t = sum t (fun e -> e.Effort.aborts)

  (* Deterministic combination: the deepest conflict level over all
     members, and the last-conflict net of the first member (in
     priority order) that recorded one. *)
  let forensics t =
    let fs = Array.map (fun m -> Effort.forensics m.account) t.members in
    let deepest =
      Array.fold_left (fun acc f -> max acc f.deepest_level) (-1) fs
    in
    match Array.find_opt (fun f -> f.last_net >= 0) fs with
    | Some f -> { f with deepest_level = deepest }
    | None -> { last_net = -1; last_level = -1; deepest_level = deepest }

  let reset_forensics t =
    Array.iter (fun m -> Effort.reset_forensics m.account) t.members
end
