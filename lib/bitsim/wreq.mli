(** Packed requirement checking, in both lane directions.

    {b Test lanes.}  {!satisfied_mask} checks one fault's condition set
    [A(p)] against a {!Wsim.planes} simulation of up to 63 tests: bit
    [l] of the result is set iff test [l] satisfies every requirement —
    the packed equivalent of folding {!Pdf_values.Req.satisfied_by}
    over the requirement list, with the same semantics for [X] (an [X]
    simulated component never satisfies a pinned component).  The
    condition set is read as its {!literals}, one flat integer array.

    {b Fault lanes.}  {!pack_faults}/{!fault_mask} transpose the trick:
    up to 63 condition sets are packed into per-net pin masks so that
    one scalar simulation result (a candidate test assignment) can be
    evaluated against all of them in a single pass over the constrained
    nets — this is what makes the ATPG secondary-target scan's
    detection checks word-parallel. *)

val literals : (int * Pdf_values.Req.t) list -> int array
(** The pinned components of a requirement list, one literal each, in
    the list's order and, within a requirement, in component order.  A
    component [k] of the requirement on [net], pinned to [b], is the
    literal [(net lsl 3) lor (2k + b)] (with [b] as 0 or 1): its low
    three bits are the {!Wsim.planes} row holding the lanes where that
    component reads [b], the rest is the net.  The array's length is
    the sum of {!Pdf_values.Req.count_pinned} over the list.  Built once
    per condition set (see [Fault_sim.conditions]), not per check. *)

val satisfied_mask : Wsim.planes -> int array -> int
(** [satisfied_mask planes lits]: the lanes (tests) satisfying every
    requirement whose {!literals} are [lits] — the AND of the literals'
    rows at their nets.  Starts from {!Wsim.mask}, so unused high lanes
    are always clear, and stops at the first literal that leaves no
    lane.  A loop over one integer array: allocates nothing, so a batch
    scan calls it once per fault at no allocation cost. *)

type fault_pack
(** Up to 63 condition sets, packed per constrained net. *)

val pack_faults :
  (int * Pdf_values.Req.t) list array -> fault_pack array
(** [pack_faults reqs] packs [reqs.(i)] into lane [i - 63*b] of batch
    [b = i / 63] (fixed {!Wsim.batch_bounds} boundaries). *)

val base : fault_pack -> int
(** Index of the fault in lane 0. *)

val lanes : fault_pack -> int

val fault_mask : fault_pack -> Pdf_values.Triple.t array -> int
(** Lanes (faults) whose whole condition set is satisfied by the given
    scalar simulation values — bit [l] set iff fault [base + l] is
    detected.  Agrees with [Fault_sim.detects_values] lane
    for lane. *)
