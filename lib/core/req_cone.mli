(** The problem both justification engines solve — {!Justify}'s
    simulation-based search and the structural {!Podem}: a merged set of
    required line values, and the fan-in cone of the required nets.
    Only cone gates can influence a requirement, and only cone primary
    inputs are worth searching.

    A reusable buffer: {!create} allocates it once per engine, sized by
    the circuit, and {!merge} then {!load} overwrite it with each
    search's problem, allocating nothing.  The arrays below are
    capacity buffers: only the first [n_req], [n_gates] and [n_pis]
    entries are the problem's.

    Values and requirements are laid out as three components per net:
    0 = first pattern, 1 = intermediate, 2 = second pattern.

    {2 The requirement order}

    [req_nets] lists the required nets in ascending net id, whatever
    order the caller's list names them in: the engines see one sequence
    for one set of requirements.  The order decides
    - PODEM's objective order: its next objective is the first pinned
      component, in this order, whose implied value is still [X];
    - which net a conflict names: {!conflict_net} returns the first
      contradicted net in this order, and that net reaches the
      engines' forensics and the ledger's [last_conflict].
    It does not decide the seeding of PODEM's implication state: that
    state's fixpoint and first conflict do not depend on the order it
    is seeded in (its passes run by gate index), so PODEM seeds the
    caller's list as it is.  The cone's gates and inputs are ascending
    too, so nothing the engines read depends on the caller's order. *)

type t = private {
  c : Pdf_circuit.Circuit.t;  (** the circuit the buffers are sized for *)
  r : Pdf_values.Bit.t array array;
      (** requirements, 3 x nets; [X] = unconstrained *)
  req_nets : int array;  (** the required nets, ascending *)
  mutable n_req : int;
  gates : int array;
      (** cone gates, ascending gate index (a topological order) *)
  mutable n_gates : int;
  pis : int array;  (** cone primary inputs, ascending *)
  mutable n_pis : int;
  in_cone : bool array;  (** per net: whether it lies in the cone *)
  bits : int array;
      (** per net listed by the last {!merge}: its merged [Req.bits] *)
  listed : int array;  (** per net: the last {!merge} that listed it *)
  mutable merges : int;
}

val create : Pdf_circuit.Circuit.t -> t
(** An empty problem: no requirement, an empty cone. *)

val merge : t -> (int * Pdf_values.Req.t) list -> bool
(** Replace the problem's requirements with the list's, merged per
    net: each listed net appears once in [req_nets], in ascending net
    order, with its requirements' componentwise intersection in [r] —
    an [Any] requirement lists its net too.  [false] on a direct
    conflict (some component pinned to both values), and then the
    problem has no requirement.  The cone is left as it was: call
    {!load} after a merge that succeeds.  Costs the old and the new
    requirements plus one scan of the net ids between the lowest and
    the highest listed. *)

val load : t -> unit
(** Replace the cone with the one of the merged requirements.  Costs
    the old cone's entries plus one scan of the circuit's gates and
    inputs. *)

val mismatch : Pdf_values.Bit.t -> Pdf_values.Bit.t -> bool
(** [mismatch req v]: both definite and different. *)

val conflict_net : t -> Pdf_values.Bit.t array array -> int option
(** First required net, in [req_nets] order, whose value in [s]
    (3 x nets) contradicts its requirement. *)

val satisfied : t -> Pdf_values.Bit.t array array -> bool
(** Every definite requirement component holds exactly in [s] — a pinned
    intermediate value must simulate to that value, so a potential
    glitch fails. *)
