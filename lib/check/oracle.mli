(** Differential and metamorphic oracles over one circuit (DESIGN.md §10).

    An oracle is a named property that must hold on {e every} circuit the
    pipeline can process.  Each one compares two independent computations
    of the same fact — a fast engine against a reference engine, a claim
    against exhaustive enumeration, or a logical invariant against the
    run that is supposed to establish it:

    - [packed-sim] — bit-parallel {!Pdf_bitsim.Wsim} simulation against
      the scalar {!Pdf_sim.Two_pattern} reference, lane for lane and
      component for component, including [X] lanes;
    - [inc-sim] — the event-driven {!Pdf_core.Cone_sim} over the whole
      circuit against the full-pass scalar simulator after a randomized
      flip sequence over persistent state, including X values and a
      zero-flip no-op pass; then the same state retargeted through
      target-fault cones, every trial — memo hits included — against
      the ascending cone scan of {!Trial_ref};
    - [packed-detect] / [packed-matrix] — the batch entry points
      {!Pdf_core.Fault_sim.detected_by_tests} / [detect_matrix] against
      per-test {!Pdf_core.Fault_sim.detected_by_test} rows, the scalar
      reference, on a random test set whose size the oracle seed draws
      from four shapes of packed word batches: sub-word (1–62 tests, one
      partly filled word), one word (63), a word plus one lane (64) and
      three words, the last partly filled (127–188); [packed-detect]
      also drives one whole-circuit {!Pdf_core.Cone_sim} state through
      the set, one test after another as {!Pdf_core.Atpg} does, and
      checks that every fault's {!Pdf_bitsim.Wreq.satisfied} read of it
      equals {!Pdf_core.Fault_sim.detects_values} — the reads behind
      the ATPG free check and drop scan;
    - [jobs-det] — detection flags and matrices with a 1-job pool vs a
      3-job pool, on a set drawn like [packed-detect]'s
      (byte-identical by the DESIGN.md §8.3 contract), and the 3-job
      flags against the union of the scalar rows; a test that alone
      detects some fault is moved last, so a set of two or more word
      batches puts it in the last chunk;
    - [atpg-jobs] — a full enrichment run under [--jobs 1] vs
      [--jobs 3]: tests, detection flags, abort counts and the
      provenance-ledger JSONL bytes must all agree;
    - [justify-brute] — every test that {!Pdf_core.Justify.run} and
      [run_complete] return must re-simulate to satisfy its requirements,
      at any PI count; on circuits of at most 8 PIs, each
      [Proved_unsatisfiable] is checked against brute-force enumeration
      of all PI pairs;
    - [justify-podem] — the structural {!Pdf_core.Podem} engine against
      the simulation-based complete search and (on small circuits)
      brute force: a [Found]/[Proved_unsatisfiable] disagreement in any
      direction is a violation, every [Found] test must re-simulate to
      satisfy its requirements through the independent scalar
      simulator, and the portfolio engine's answers must re-simulate
      too; this is the oracle that must catch the
      [Podem.set_injected_bug] implication mutation;
    - [robust-timing] — robust detection per {!Pdf_core.Fault_sim}
      implies physical detection by the event-driven
      {!Pdf_core.Timing.detects} ground truth with [extra = slack + 1];
    - [enrich-p0] — a-posteriori invariants of the enrichment run: P0
      coverage equals [|P0| - primary_aborts], the incrementally
      maintained detection flags equal a from-scratch batch
      re-simulation, and ledger fault dispositions match the flags;
    - [attrib] — structural effort attribution (DESIGN.md §14): over a
      full enrichment run under [--jobs 1] and under [--jobs 3], every
      sheet total equals the delta of the global counter it mirrors
      ([justify.runs], [justify.trials], [justify.trial_evals],
      [justify.resim_gates], [justify.conflict_hits],
      [justify.backtracks], [atpg.delta_evals], [sim.inc.resim_gates]),
      every per-net array sums to its total, a batch fault-simulation
      pass inside the window moves none of them, and the per-net sheets
      of the two runs are equal (jobs-invariant);
    - [implication] — the event-driven {!Pdf_sim.Implication} against the
      reference sweep {!Implication_ref} on every enumerated fault's
      robust conditions and on unions of 2–4 of them: the same values,
      or the same conflicting net and component; the same conflict from
      one state reset before each fault; the sweep's values when a
      consistent union is extended part by part; the first part's
      values after an undo to a mark taken after it, and the union's
      answer when extended again; and, from a state restricted to the
      union's requirement cone, the sweep's verdict with its values on
      every cone net and X elsewhere;
    - [portfolio] — the escalating portfolio {!Pdf_core.Justify.Engine}
      against {!Portfolio_ref}, which runs every member to completion,
      on the same kind of requirement sets: the same test (or none) and
      the same winning member.  This is what justifies stopping at
      PODEM's proof of unsatisfiability;
    - [undetectable] — the shared {!Pdf_faults.Undetectable.filter}
      against {!Pdf_faults.Undetectable.per_fault}, which classifies
      each fault from an empty implication state, on every enumerated
      fault in enumeration order and on a shuffle of them with
      repeats, under both criteria: the same kept faults in the same
      order, the same stats (with a ledger and without), and the same
      ledger records.

    Oracles are deterministic in [(circuit, seed)]; any pool width they
    set is restored on exit (including on exceptions). *)

type ctx = {
  circuit : Pdf_circuit.Circuit.t;
  seed : int;  (** seeds every random draw the oracle makes *)
}

type outcome =
  | Pass
  | Fail of string  (** violation, with a human-readable diagnosis *)
  | Skip of string
      (** property not applicable (e.g. no detectable faults, or the
          circuit is too large for brute-force enumeration) *)

type t = {
  name : string;  (** stable identifier, used in reproducer files *)
  doc : string;
  check : ctx -> outcome;
}

val all : t list
(** The registry, cheapest first, except that [implication],
    [portfolio] and then [undetectable] come last, so that adding each
    left every earlier oracle's seed unchanged.  Order is part of the fuzz harness's
    determinism contract — a round's RNG draws depend on it. *)

val find : string -> t option
(** Look up an oracle by {!field-name}. *)

val names : unit -> string list

val run : t -> ctx -> outcome
(** Run one oracle, catching exceptions: an escaping exception is a
    [Fail] (oracles must not crash on any generator output). *)

(** {2 Shared reference oracles} *)

val brute_force :
  Pdf_circuit.Circuit.t ->
  (int * Pdf_values.Req.t) list ->
  Pdf_core.Test_pair.t option
(** Exhaustive search over all [4^num_pis] fully specified two-pattern
    tests for one satisfying the requirement set — the ground truth that
    justification engines are checked against.  Enumerates first
    patterns in the outer loop, second patterns in the inner loop, both
    in increasing binary order with PI 0 as the least significant bit,
    so the witness is deterministic.  Raises [Invalid_argument] when the
    circuit has more than {!max_brute_force_pis} inputs. *)

val brute_force_satisfiable :
  Pdf_circuit.Circuit.t -> (int * Pdf_values.Req.t) list -> bool
(** [Option.is_some] of {!brute_force}. *)

val max_brute_force_pis : int
(** 10 — ~1M simulations; oracles cap themselves well below this. *)
