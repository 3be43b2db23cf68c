(** Requirement checking over a condition set's {!literals}.

    {b Test lanes.}  {!satisfied_mask} checks one fault's condition set
    [A(p)] against a {!Wsim.planes} simulation of up to 63 tests: bit
    [l] of the result is set iff test [l] satisfies every requirement —
    the packed equivalent of folding {!Pdf_values.Req.satisfied_by}
    over the requirement list, with the same semantics for [X] (an [X]
    simulated component never satisfies a pinned component).

    {b One test.}  {!satisfied} reads the same literals against one
    scalar simulation state: the check behind the ATPG free check and
    drop scan.  The literal encoding is decoded only here. *)

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
    rows at their nets.  Starts from the planes' [p_mask], so unused
    high lanes are always clear, and stops at the first literal that
    leaves no lane.  A loop over one integer array: allocates nothing,
    so a batch scan calls it once per fault at no allocation cost. *)

val satisfied : Pdf_values.Bit.t array array -> int array -> bool
(** [satisfied values lits]: whether the scalar state [values]
    ([3 x num_nets], component-major, as [Cone_sim.values] holds it)
    satisfies every requirement whose {!literals} are [lits] — literal
    [(net lsl 3) lor (2k + b)] holds iff [values.(k).(net)] is the
    definite value [b]; an [X] satisfies no literal.  Equal to folding
    {!Pdf_values.Req.satisfied_by} over the requirement list, and so to
    [Fault_sim.detects_values] on the same simulation.  Stops at the
    first literal the state does not satisfy; allocates nothing. *)
