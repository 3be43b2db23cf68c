(** Structural effort attribution: where does justification work go?

    Re-runs the provenance workload (target-set construction,
    preparation, enrichment) with a {!Pdf_obs.Attrib} store attached,
    then aggregates the merged per-net counters into hotspot views:
    a top-K hot-net table, a per-level effort histogram, a
    ["pdf-profile-report/1"] JSON document and a Perfetto counter
    track (DESIGN.md §14).

    Everything exported here is {e semantic} effort — trials, trial
    gate evaluations, full-pass resim cost, conflicts, backtracks and
    candidate-scan touches — which is defined by the search alone.
    The rendered table and the JSON are therefore byte-identical
    across [--jobs] values and engine implementations, and contain
    integers only (no floats). *)

type t = {
  circuit : Pdf_circuit.Circuit.t;
  job : Pdf_core.Job.params;  (** the job profiled *)
  tests : int;  (** generated tests *)
  faults : int;  (** prepared faults *)
  detected : int;  (** faults detected by the run *)
  aborts : int;  (** primary justification aborts *)
  sheet : Pdf_obs.Attrib.sheet;  (** merged attribution snapshot *)
}

val profile : Pdf_core.Job.params -> Pdf_circuit.Circuit.t -> t
(** Run the job ({!Pdf_core.Job.analyse}, then enrichment) with
    attribution on and snapshot the merged sheet.  Also runs a
    verification fault-sim pass over the generated tests, whose flags
    must equal the run's own. *)

val per_level : t -> int array
(** Semantic effort summed per circuit level; index is the level. *)

(** One row of the hotspot ranking. *)
type hot = {
  net : int;
  name : string;
  level : int;
  trials : int;
  trial_evals : int;
  resim : int;  (** full-pass resim charges to this net's cone slot *)
  conflicts : int;
  backtracks : int;
  cand_evals : int;
  total : int;  (** {!Pdf_obs.Attrib.semantic_total} for this net *)
}

val top : ?k:int -> t -> hot list
(** Hottest [k] nets by semantic total (ties by net id — a total order,
    so the ranking is deterministic).  Nets with zero effort never
    appear. *)

val render : ?k:int -> t -> string
(** Human-readable profile: run summary, justification totals,
    per-level histogram and the top-[k] hot-net table. *)

val schema_id : string
(** ["pdf-profile-report/1"]. *)

val to_json : ?k:int -> t -> string
(** The profile as a JSON document under {!schema_id}: params, run
    summary, semantic totals, [per_level] and the top-[k] [hot] rows.
    Integers and quoted names only. *)

val write_json : ?k:int -> t -> string -> unit

val counter_track : t -> Pdf_obs.Trace.t -> unit
(** Add one counter sample per circuit level to a trace collector
    (name ["<circuit> effort/level"], timestamp = level in µs), in
    level order: viewed in Perfetto the track draws the per-level
    effort histogram next to the span timeline. *)
