(** The enrichment job (paper, Section 3): its parameters, their
    defaults, and the analysis every run of it starts from.

    [P] holds the faults of the [N_P / 2] longest paths, [P0] its
    longest-path prefix chosen by [N_P0], and [P1 = P - P0].  Primaries
    come from [P0]; secondaries from [P0], then [P1].  {!analyse}
    prepares [P] once with [P0]'s faults first, so [P0]'s faults are the
    ids [0 .. n0 - 1] of the prepared array and [P1]'s the rest; this
    module is the only code that builds that layout. *)

(** One job's parameters: the CLI's [--n-p]/[--n-p0]/[--seed]/
    [--criterion]/[--justify] flags and the serve protocol's fields of
    the same names. *)
type params = {
  n_p : int;  (** [N_P]: fault budget for [P] during enumeration *)
  n_p0 : int;  (** [N_P0]: minimum size of [P0] *)
  seed : int;  (** seeds all of the run's randomness *)
  criterion : Pdf_faults.Robust.criterion;
  justify : Justify.kind;
      (** justification backend for the generation half of the job *)
}

val default : params
(** [n_p = 2000], [n_p0 = 200], [seed = 2002], robust, [Sim]: the
    paper's sizes divided by five, and its engine.  Where the backend is
    omitted, the CLI takes it from {!Justify.default_kind}
    ([PDF_JUSTIFY], else [Sim]) instead, and the serve protocol from the
    server's default (its [--justify] flag, else the same). *)

(** The target sets of one job and its prepared faults. *)
type analysis = {
  sets : Pdf_faults.Target_sets.t;
  faults : Fault_sim.prepared array;
      (** [P], prepared: [P0]'s faults first, each fault's [id] its
          index *)
  p0 : int list;  (** [P0]'s ids: [0 .. n0 - 1], [n0 = |sets.p0|] *)
  p1 : int list;  (** [P1]'s ids: the rest of [faults] *)
}

val analyse :
  ?criterion:Pdf_faults.Robust.criterion ->
  ?ledger:Pdf_obs.Ledger.t ->
  Pdf_circuit.Circuit.t ->
  n_p:int ->
  n_p0:int ->
  analysis
(** {!Pdf_faults.Target_sets.build} under [criterion] (default robust)
    and the line-count delay model {!Pdf_paths.Delay_model.lines}, then
    {!of_sets}.  [ledger] records the undetectable faults'
    dispositions.  Raises [Invalid_argument] where [Target_sets.build]
    does. *)

val of_sets :
  criterion:Pdf_faults.Robust.criterion ->
  Pdf_circuit.Circuit.t ->
  Pdf_faults.Target_sets.t ->
  analysis
(** Prepare [P] of sets built under [criterion] (one
    [Fault_sim.prepare], so one [prepare] span and one
    [fault_sim.prepared] gauge setting) and lay out the id lists. *)

val p0_faults : analysis -> Fault_sim.prepared array
(** [P0]'s prepared faults, the prefix of [faults]: what
    [Fault_sim.prepare c sets.p0] returns, without preparing again. *)
