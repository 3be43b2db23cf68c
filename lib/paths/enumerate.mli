(** Bounded enumeration of the longest circuit paths (paper, Section 3.1).

    Paths grow from the primary inputs towards the primary outputs.  The
    working set [P] holds complete and partial paths; whenever it reaches
    [max_paths] entries, the least promising entries are evicted:

    - {!Simple} mode (the paper's procedure for circuits with moderate
      numbers of paths): the first partial path in list order is extended;
      only the shortest {e complete} paths are evicted, never partial
      paths and never the longest complete paths.  This is the procedure
      traced on s27 in the paper's Table 1.
    - {!Distance_pruned} mode (the extension for large circuits): every
      path [p] carries [len(p) = length(p) + d(last line)], the length of
      the longest possible completion.  The partial path with maximum
      [len] is always extended first, and entries with minimum [len] —
      partial or complete — are evicted until the bound is met or all
      remaining entries share the maximum [len].

    A path reaching a primary output is recorded as complete; if the same
    net also feeds further logic (a pseudo primary output of extracted
    sequential logic), enumeration additionally continues through it. *)

type mode = Simple | Distance_pruned

type event =
  | Completed of Path.t * int  (** complete path recorded, with length *)
  | Evicted of Path.t * int * bool  (** evicted path, length, was-complete *)

type result = {
  paths : (Path.t * int) list;
      (** complete paths with lengths, longest first *)
  steps : int;  (** extension steps performed *)
  evicted : int;
  truncated : bool;  (** stopped by the [max_steps] safety bound *)
  events : event list;  (** in order, only when [record_events] *)
}

val enumerate :
  ?mode:mode ->
  ?record_events:bool ->
  ?max_steps:int ->
  Pdf_circuit.Circuit.t ->
  Delay_model.t ->
  max_paths:int ->
  result
(** [enumerate c model ~max_paths].  Default mode is {!Distance_pruned};
    default [max_steps] is [100 * max_paths + 10_000].  Raises
    [Invalid_argument] when [max_paths < min_max_paths]. *)

val min_max_paths : int
(** 1: the smallest [max_paths] {!enumerate} accepts, the CLI's too. *)
