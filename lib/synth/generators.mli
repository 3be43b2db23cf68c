(** Synthetic circuit generators.

    The random DAG generator produces ISCAS-like combinational logic with
    controllable size, depth and reconvergence; the structured generators
    build classic arithmetic/selection blocks.  All generators are
    deterministic in their parameters (seeded). *)

type dag_params = {
  num_pis : int;
  num_gates : int;
  window : int;
      (** fan-in locality: inputs of a gate are drawn from the most recent
          [window] nets — smaller windows give deeper, narrower logic *)
  max_fanout : int;
      (** soft fanout cap per net; keeps reconvergence realistic (heavily
          shared nets make most long paths robustly untestable) *)
  reuse_pct : int;
      (** probability (percent) that a side input is drawn from recent deep
          logic instead of the shallow-biased pool; deep side inputs create
          the correlated reconvergence that makes long paths robustly
          untestable, so this directly tunes testability. *)
  restart_pct : int;
      (** probability (percent) that a gate's spine input restarts from the
          shallow pool instead of continuing a recent chain; controls logic
          depth (roughly [window/2] chains of expected length
          [100/restart_pct]). *)
  fanin3_pct : int;  (** percentage of 3-input gates *)
  inverter_pct : int;  (** percentage of NOT/BUFF gates *)
  po_taps : int;
      (** internal nets additionally exposed as outputs (pseudo-POs of
          extracted sequential logic) *)
}

val random_dag :
  ?xor_pct:int -> name:string -> seed:int -> dag_params -> Pdf_circuit.Circuit.t
(** Every net without fanout becomes a primary output, so no path dead
    ends.  [xor_pct] (default 0) is the percentage of the non-inverter
    gates that are XOR or XNOR (one of the two, evenly); at 0 the
    generator draws nothing for it, so a seed builds the same circuit
    as without the argument.  Raises [Invalid_argument] with a
    field-specific message on degenerate parameters: [num_pis < 2],
    [num_gates < 1], [window < 2], [max_fanout < 1], any percentage
    outside [0..100] ([xor_pct] included), or [po_taps < 0]. *)

val ripple_adder : bits:int -> Pdf_circuit.Circuit.t
(** [a + b + cin] with sum and carry-out outputs, AND/OR/XOR full adders. *)

val mux_cascade : selects:int -> Pdf_circuit.Circuit.t
(** A [2^selects]-to-1 multiplexer built from 2-to-1 stages. *)

val parity_tree : width:int -> Pdf_circuit.Circuit.t
(** Balanced XOR tree. *)

val comparator : bits:int -> Pdf_circuit.Circuit.t
(** Equality and greater-than of two unsigned words (no XOR gates, long
    AND/OR chains — a good path-delay workload). *)

val decoder : bits:int -> Pdf_circuit.Circuit.t
(** [bits]-to-[2^bits] one-hot decoder (wide, shallow AND plane). *)

val priority_encoder : width:int -> Pdf_circuit.Circuit.t
(** Highest-set-bit encoder: outputs [width] grant lines (one-hot) plus a
    valid flag; grant [i] is high iff input [i] is the highest set bit. *)

val barrel_shifter : selects:int -> Pdf_circuit.Circuit.t
(** Logarithmic left shifter over a [2^selects]-bit word built from
    2-to-1 mux layers; shift amount has [selects] control bits. *)

val array_multiplier : bits:int -> Pdf_circuit.Circuit.t
(** Unsigned [bits x bits] array multiplier (AND partial products reduced
    by ripple adders) — deep, heavily reconvergent arithmetic. *)
