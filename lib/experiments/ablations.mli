(** Ablation experiments beyond the paper's tables, E1-E6 ([pdfatpg
    ablations]).

    - {b E1} quantifies the paper's motivation: under a perturbed "true"
      delay model, how many truly critical faults does each test set
      cover?
    - {b E2} exercises the multi-set generalisation the paper mentions
      (three target sets instead of two).
    - {b E3} stacks static compaction on top of dynamic compaction.
    - {b E4} swaps the robust sensitization criterion for the classic
      non-robust one.
    - {b E5} contrasts the simulation-based justifier with the complete
      branch-and-bound one.
    - {b E6} sweeps [N_P0], the effort knob the paper leaves to the
      implementer. *)

val estimation_error :
  ?seed:int ->
  Workload.scale ->
  noises:int list ->
  Pdf_synth.Profiles.t list ->
  string

val multiset :
  ?seed:int -> Workload.scale -> Pdf_synth.Profiles.t list -> string
(** Two-set vs three-set enrichment: coverage per set and test counts. *)

val static_compaction :
  ?seed:int -> Workload.scale -> Pdf_synth.Profiles.t list -> string
(** Reverse-order and greedy-cover passes over the basic and enriched
    test sets; coverage is checked preserved. *)

val criterion :
  ?seed:int -> Workload.scale -> Pdf_synth.Profiles.t list -> string
(** Robust vs non-robust sensitization: detectable fault counts, coverage
    and test counts. *)

val justifier :
  ?seed:int -> Workload.scale -> Pdf_synth.Profiles.t list -> string
(** {b E5}: simulation-based vs branch-and-bound justification per P0
    fault — the paper notes branch-and-bound removes the random-selection
    variations.  Reports how many faults each resolves, including faults
    the randomized search misses and faults proved untestable. *)

val scaling :
  ?seed:int ->
  Workload.scale ->
  n_p0s:int list ->
  Pdf_synth.Profiles.t ->
  string
(** {b E6}: enrichment under several [N_P0] settings on one circuit —
    larger first sets buy more mandatory coverage at more tests, while
    the [P1] top-up keeps total coverage high throughout. *)

(** One ablation as [pdfatpg ablations] runs it. *)
type ablation = {
  id : string;  (** ["e1"] .. ["e6"], the [--only] value *)
  circuits : string list;
      (** the profiles it runs on when none are named: E1 s641 and b09,
          E2 s641, E3 b03 and b09, E4 and E5 b09 and s1196, E6 b09 *)
  run :
    seed:int -> Workload.scale -> Pdf_synth.Profiles.t list -> string;
      (** the rendered table; E1 at 20% and 50% noise, E6 one table per
          circuit at [N_P0] 100, 200 and 400 *)
}

val all : ablation list
(** E1 to E6, in order. *)
