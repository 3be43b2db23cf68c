(** Seeded differential fuzzing over the generator grid (DESIGN.md §10).

    Each round draws one random circuit from a profile's
    {!Pdf_synth.Generators.dag_params} grid (cycling through the grid)
    and runs every registered {!Oracle} on it.  A failing oracle
    triggers {!Shrink.shrink} with "the same oracle still fails" as the
    property, and — when emission is enabled — writes a two-file
    reproducer under the output directory:

    - [<oracle>-r<round>.bench] — the shrunk circuit, in ISCAS [.bench]
      format;
    - [<oracle>-r<round>.repro] — a [key: value] text file naming the
      oracle, the oracle seed, the bench file and the failure message,
      replayable with [pdfatpg fuzz --replay <file>] or {!replay}.

    Everything is deterministic in [(seed, profile, rounds)]: the master
    RNG hands each round a circuit seed and an oracle seed in a fixed
    order, oracles run in registry order, and shrinking tries candidates
    in a fixed order.  The optional time budget and the violation cap
    only truncate the round sequence, never reorder it. *)

type profile = {
  profile_name : string;
  grid : Pdf_synth.Generators.dag_params list;
      (** round [r] uses entry [r mod length] *)
  xor_pct : int;
      (** every circuit's XOR/XNOR share
          ({!Pdf_synth.Generators.random_dag}'s [xor_pct]) *)
}

val profiles : profile list
(** [default] (a mix of everything) plus the focused profiles [tiny],
    [deep], [wide], [reconv] and [fanin3], the [xor] profile (a third of
    the logic gates XOR/XNOR, which no other profile draws; not part of
    [default]) and the nightly-sized [scale] profile (600/1500-gate DAGs
    stressing the event-driven simulator; not part of [default]). *)

val profile_of_name : string -> profile option

val default_profile : profile

type config = {
  seed : int;
  rounds : int;
  profile : profile;
  time_budget_s : float option;
      (** stop before a round once this much wall-clock has elapsed *)
  out_dir : string;  (** reproducer directory, created on first failure *)
  emit : bool;  (** write reproducer files for violations *)
  max_violations : int;  (** stop after this many violations *)
  max_shrink_attempts : int;
      (** property-evaluation budget per {!Shrink.shrink} call *)
  oracles : string list;
      (** restrict the campaign to these oracles, in the given order
          (the CLI's repeatable [--oracle] flag); [[]] means the full
          registry.  {!run} raises [Invalid_argument] on an unknown
          name — a misspelt selection must not silently check
          nothing. *)
}

val default_config : config
(** seed 0, 50 rounds, default profile, no time budget, [_fuzz] output,
    emission on, stop after 5 violations, 300 shrink attempts, every
    registered oracle. *)

type violation = {
  round : int;
  oracle : string;
  circuit_seed : int;  (** generator seed of the failing circuit *)
  oracle_seed : int;  (** the failing oracle's {!Oracle.ctx} seed *)
  message : string;  (** first failure message, on the original circuit *)
  circuit : Pdf_circuit.Circuit.t;  (** as drawn from the generator *)
  shrunk : Pdf_circuit.Circuit.t;
  files : (string * string) option;
      (** (bench, repro) paths when emitted *)
}

type oracle_tally = {
  oracle_name : string;
  passed : int;  (** checks of this oracle that passed *)
  skipped : int;  (** checks of this oracle that did not apply *)
}

type summary = {
  rounds_run : int;
  checks : int;  (** oracle executions, skips included *)
  per_oracle : oracle_tally list;
      (** one tally per oracle of the campaign, in the order they ran *)
  violations : violation list;  (** in discovery order *)
  elapsed_s : float;
}

val totals : summary -> int * int
(** [(passed, skipped)] over every oracle of the campaign. *)

val idle_oracles : summary -> string list
(** The campaign's oracles that passed no check: every check they ran
    was skipped (or none ran).  A campaign that reports no violation
    has still checked nothing with them. *)

val run : ?ledger:Pdf_obs.Ledger.t -> config -> summary
(** Run the campaign.  Updates the [fuzz.rounds] / [fuzz.checks] /
    [fuzz.skips] / [fuzz.violations] counters in
    {!Pdf_obs.Metrics.default}; when [ledger] is given, appends one
    [fuzz_run] header, one [fuzz_round] record per round and one
    [fuzz_violation] record per violation (no timestamps — the ledger
    stays byte-deterministic in the configuration). *)

val replay : string -> (string * Oracle.outcome, string) result
(** [replay path] re-runs the oracle recorded in a [.repro] file against
    its [.bench] circuit (resolved relative to the file's directory) and
    returns the oracle name with the outcome — [Fail] means the
    reproducer still reproduces.  [Error] on unreadable or malformed
    files. *)
