(** Selection of the target fault sets [P], [P0] and [P1]
    (paper, Section 3.1).

    [P] holds the faults of the [N_P / 2] longest enumerated paths with
    undetectable faults removed.  [P0] holds all faults on paths of length
    [>= L_{i0}], where [i0] is the smallest rank whose cumulative fault
    count reaches [N_P0]; [P1 = P - P0]. *)

type entry = { fault : Fault.t; length : int }

type t = {
  p : entry list;  (** all of [P], longest paths first *)
  p0 : entry list;
  p1 : entry list;
  i0 : int;  (** selected rank *)
  cutoff_length : int;  (** [L_{i0}] *)
  histogram : Pdf_paths.Histogram.t;  (** fault-granularity histogram of [P] *)
  undetectable : Undetectable.stats;
  enumeration : Pdf_paths.Enumerate.result;
}

val build :
  ?mode:Pdf_paths.Enumerate.mode ->
  ?criterion:Robust.criterion ->
  ?ledger:Pdf_obs.Ledger.t ->
  Pdf_circuit.Circuit.t ->
  Pdf_paths.Delay_model.t ->
  n_p:int ->
  n_p0:int ->
  t
(** [build c model ~n_p ~n_p0].  [n_p] bounds the number of faults in [P]
    during enumeration (two faults per path); [n_p0] is the [N_P0]
    threshold.  Default mode is {!Pdf_paths.Enumerate.Distance_pruned}.
    [ledger] is passed through to {!Undetectable.filter} so eliminated
    faults get provenance records.  Raises [Invalid_argument] when
    [n_p < min_n_p] or [n_p0 < min_n_p0]. *)

val min_n_p : int
(** 2, one path's two faults: the smallest [n_p] {!build} accepts. *)

val min_n_p0 : int
(** 1: the smallest [n_p0] {!build} accepts.  The CLI and the serve
    protocol reject values below both bounds. *)

val paper_n_p : int
(** 10000 — the paper's implementation constant. *)

val paper_n_p0 : int
(** 1000. *)

val split_multi : t -> thresholds:int list -> entry list list
(** Partition [P] into more than two target sets (the paper notes the
    possibility at the end of Section 3.1 but evaluates only two).
    [thresholds] are cumulative fault-count targets: each gives the
    smallest length rank whose cumulative count reaches it, in the same
    way [N_P0] defines [P0].  With [thresholds = [a; b]] the result is
    [[P0; P1; P2]] where [P0] has at least [a] faults (all longest),
    [P0 u P1] at least [b], and [P2] holds the rest.  Thresholds must be
    strictly increasing and positive; empty trailing sets are kept so the
    result always has [List.length thresholds + 1] elements. *)
