(** Requirement checking over a condition set's {!literals}.

    {b Test lanes.}  {!satisfied_mask} checks one fault's condition set
    [A(p)] against a {!Wsim.planes} simulation of up to 63 tests: bit
    [l] of the result is set iff test [l] satisfies every requirement —
    the packed equivalent of folding {!Pdf_values.Req.satisfied_by}
    over the requirement list, with the same semantics for [X] (an [X]
    simulated component never satisfies a pinned component).

    {b One test.}  {!satisfied} reads the same literals against one
    scalar simulation state: the check behind the ATPG free check and
    drop scan.

    {b New pins.}  {!count_new} counts what the same literals pin on
    top of an accumulated requirement set held as per-net bits: the
    value-based secondary scan's [n_Delta].  The literal encoding is
    decoded only here. *)

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

val count_new :
  seen:int array ->
  pinned:int array ->
  stamp:int ->
  int array ->
  int array ->
  int
(** [count_new ~seen ~pinned ~stamp acc lits]: how many components the
    requirements whose {!literals} are [lits] pin on top of [acc] —
    per net, the merged {!Pdf_values.Req.bits} of an accumulated
    requirement set, 0 where it holds none — or -1 if one of them
    contradicts [acc] or an earlier requirement of the list (their
    {!Pdf_values.Req.merge} would be [None]).  This is the ATPG's
    [n_Delta].  A literal's low three bits [2k + b] are exactly the
    index of the bit it sets in {!Pdf_values.Req.bits}, so the count
    needs no requirement record.  [seen] and [pinned] are per-net
    scratch arrays and [stamp] a value [seen] does not hold yet:
    [seen.(net) = stamp] once a literal fell on [net], whose merged
    bits are then [pinned.(net)], so a net listed twice merges with its
    first listing.  Equal to counting with {!Pdf_values.Req.merge} over
    the requirement list, conflicts included (checked by a property
    test); stops at the first contradicting literal; allocates
    nothing. *)
