(** The gate worklist of an event-driven pass over a requirement cone,
    shared by {!Justify}'s trials and {!Podem}'s implication: a binary
    min-heap of gate indices, deduplicated by stamping each gate with
    the pass that queued it.  Gates pop in ascending gate index — a
    topological order, the order a full scan of the cone visits them —
    so a pass evaluates each gate at most once, after all its fanins,
    and never outgrows the cone.  Nothing is allocated after {!create}
    ([Pdf_util.Heap] would allocate an option per pop).  A pass calls
    into this module once per gate it pops and once per gate whose
    output changed: calls between modules are not inlined in the
    default build, so the interface keeps them few (DESIGN.md §15.5). *)

type t

val create : Pdf_circuit.Circuit.t -> Req_cone.t -> t
(** A worklist over the requirement cone. *)

val start : t -> unit
(** Begin a new pass: empty the heap; every gate may be queued once
    more. *)

val pop : t -> int
(** The smallest queued gate index, removed; [-1] when the heap is
    empty. *)

val queue_fanouts : t -> int -> unit
(** [queue_fanouts wl net] queues every gate reading [net] whose output
    lies in the cone and which this pass has not queued yet. *)
