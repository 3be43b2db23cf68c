(** The effort account both justification engines charge (DESIGN.md
    §14.1).

    {!Justify}'s simulation engine and the structural {!Podem} describe
    their work in one vocabulary: runs, steps, backtracks, full-cone
    passes, conflicts and aborts.  The account decides where each event
    goes — the process-wide [justify.*] metric, the attribution sheet's
    per-net array and total, the abort forensics — and the engines only
    report what happened.  Its fields are per-account, so a caller
    measuring one phase gets exact figures while other engines run on
    other domains.  An account belongs to one engine, driven from one
    domain at a time.

    The hot events, a step (a sim trial or a PODEM decision) and a pass
    (a sim resimulation or a PODEM implication), are bumped in place by
    the engine ([e.steps <- e.steps + 1]), not by a call: under the dev
    build's [-opaque] a call into another module is neither inlined nor
    direct (DESIGN.md §13.2).  {!finish} charges a search's passes. *)

type t = {
  circuit : Pdf_circuit.Circuit.t;
  sheet : Pdf_obs.Attrib.sheet option;  (** charged too, when given *)
  mutable runs : int;
  mutable steps : int;  (** sim trials or PODEM decisions *)
  mutable backtracks : int;
  mutable pass_gates : int;
      (** every pass charged the cone's gate count, however few gates it
          evaluated: the engine-invariant unit of §14 *)
  mutable aborts : int;  (** searches that exhausted their budget *)
  mutable passes : int;  (** this search's passes, until {!finish} *)
  mutable conflict_net : int;  (** read through {!val-forensics} *)
  mutable conflict_level : int;
  mutable deepest_conflict : int;
}

val create : ?attrib:Pdf_obs.Attrib.sheet -> Pdf_circuit.Circuit.t -> t
(** A zeroed account, with no conflict recorded. *)

val run : t -> unit
(** A search starts: a run (also [justify.runs] and the sheet's
    [t_runs]), and [passes] cleared. *)

val conflict : t -> int -> unit
(** A requirement conflict blamed on a net: [justify.conflict_hits], the
    sheet's [conflicts] at the net, and the forensics. *)

val backtrack : t -> depth:int -> int -> unit
(** [backtrack e ~depth pi] — the search retracts its decision on input
    [pi], [depth] decisions deep: [justify.backtracks], the
    [justify.backtrack_depth] histogram and the sheet's [backtracks] at
    [pi]. *)

val abort : t -> unit

val finish : t -> Req_cone.t -> unit
(** The search over the cone ends: its [passes] times the cone's gate
    count go into [pass_gates], [justify.resim_gates] and the sheet's
    [t_resim_calls], [t_resim_gates] and every cone gate's [resim_cone]
    — one O(cone) charge per search, not a cone walk per pass. *)

(** {2 Abort forensics}

    The most recent requirement conflict's net and level, and the
    deepest level since the last {!reset_forensics}.  Conflicts are
    detected by scalar code the search fixes, so the forensics are
    byte-identical at any job count.  [Atpg.generate] resets them before
    each targeted justification and writes them into the ledger's
    per-fault records, which [pdfatpg why] renders. *)

type forensics = {
  last_net : int;  (** most recent conflicting net, [-1] when none *)
  last_level : int;  (** its circuit level, [-1] when none *)
  deepest_level : int;
      (** the highest level of a conflicting net, how deep into the cone
          the search frontier reached; [-1] when none *)
}

val forensics : t -> forensics
val reset_forensics : t -> unit
