(** Structural effort attribution: per-net counters for the
    justification and simulation hot loops (DESIGN.md §14).

    A {!sheet} is a block of plain int arrays indexed by net id — cheap
    enough for the trial loop and the dirty-cone walks to bump inline.
    Sheets are domain-local and unsynchronised; a shared store {!t}
    accumulates whole sheets under a mutex via {!merge}.  All fields are
    integer sums, so merging is commutative: the merged store is
    identical whatever order the pool's sheets arrive in.

    The [inc_resims] family measures the incremental engine's actual
    per-gate work ([Cone_sim]'s persistent pass), so it moves whenever
    that engine's implementation changes while the search stays the
    same; every other counter is {e semantic} (defined by the
    search, not the engine) and byte-identical across [--jobs].
    Renderers must export only semantic counters; [inc_resims] exists
    for the effort-conservation oracle. *)

type sheet = {
  nets : int;
  trials : int array;
      (** per PI net: trial simulations rooted at this input *)
  trial_evals : int array;
      (** per gate-output net: overlay gate evaluations *)
  resim_cone : int array;
      (** per gate-output net: resimulation calls × cone membership
          (the full-pass cost, engine-invariant) *)
  conflicts : int array;
      (** per net: requirement conflicts detected at this net *)
  backtracks : int array;
      (** per decision-PI net: complete-search backtracks charged *)
  cand_evals : int array;
      (** per requirement net: candidate delta-scan touches *)
  inc_resims : int array;
      (** per gate-output net: incremental dirty-cone re-evaluations —
          engine-variant, never exported *)
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
(** Scalar [t_*] totals mirror the process-wide [justify.*] /
    [atpg.delta_evals] / [sim.inc.resim_gates] metric counters, but
    per-sheet; the conservation oracle checks both against each other
    and against the per-net array sums. *)

type t
(** A merge store sized for one circuit's nets. *)

val create : nets:int -> t

val nets : t -> int

val make_sheet : nets:int -> sheet
(** A zeroed standalone sheet. *)

val fresh : t -> sheet
(** A zeroed sheet sized for [t]'s circuit, ready for one run to bump
    without synchronisation. *)

val merge : t -> sheet -> unit
(** Add every counter of the sheet into the store, under the store's
    lock.  The sheet is not modified and may be discarded. *)

val snapshot : t -> sheet
(** A deep copy of the merged totals, taken under the lock. *)

val note_cand_scan : sheet -> (int * 'a) list -> unit
(** Charge one candidate delta scan: bumps [t_cand_scans] once and
    [cand_evals] for every requirement net in the list. *)

val semantic_total : sheet -> int -> int
(** Engine-invariant effort charged to one net — the sum of all
    per-net counters except [inc_resims]. *)

val grand_total : sheet -> int
(** Sum of {!semantic_total} over all nets. *)
