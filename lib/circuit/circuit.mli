(** Levelised combinational circuit.

    Nets are integers: nets [0 .. num_pis - 1] are the primary inputs, and
    net [num_pis + i] is the output of gate [i].  Gates are stored in
    topological order, so a single left-to-right pass over [gates] is a
    valid evaluation order.

    Following the paper, a circuit "line" is either a stem (a net) or a
    fanout branch of a net; branches are identified by the (gate, pin) pair
    that consumes them.  Logic values live on nets — a branch always carries
    the value of its stem. *)

type gate = { kind : Gate.kind; fanins : int array }

type t = private {
  name : string;
  num_pis : int;
  gates : gate array;
  pos : int array;  (** primary-output nets, in declaration order *)
  net_names : string array;
  fanouts : (int * int) array array;
      (** per net, the [(gate, pin)] pairs that consume it *)
  is_po : bool array;
  level : int array;  (** per net; PIs are level 0 *)
  by_name : (string, int) Hashtbl.t;
}

val num_nets : t -> int

val num_gates : t -> int

val num_pos : t -> int

val is_pi : t -> int -> bool

val net_of_gate : t -> int -> int
(** Net driven by gate [i]. *)

val gate_of_net : t -> int -> int option
(** Index of the driving gate, or [None] for a PI. *)

val net_name : t -> int -> string

val find_net : t -> string -> int option

val fanout_count : t -> int -> int

val depth : t -> int
(** Maximum net level. *)

val level : t -> int -> int
(** Topological level of a net: 0 for PIs, [1 + max fanin level] for a
    gate output.  Computed and asserted once in {!unsafe_make} (every
    fanin is strictly below its gate), so the simulators that evaluate
    gates in index order — [Logic_sim], [Wsim], [Cone_sim], [Timing]'s
    initial settle — rely on this single construction-time check
    instead of re-deriving or implicitly trusting gate order. *)

val pis : t -> int list

val validate : t -> (unit, string) result
(** Structural sanity check (used by tests): topological order, fanout
    tables consistent with fanins, levels correct, POs in range. *)

(** Construction is done through {!Builder}; this signature keeps the
    representation transparent but read-only ([private]). *)

val unsafe_make :
  name:string ->
  num_pis:int ->
  gates:gate array ->
  pos:int array ->
  net_names:string array ->
  t
(** Used by {!Builder} after topological sorting; computes fanouts, levels
    and the name index.  Raises [Invalid_argument] if a gate reads a net
    that is not yet defined at its position (i.e. the order is not
    topological) or on any index out of range. *)
