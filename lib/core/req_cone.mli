(** The problem both justification engines solve — {!Justify}'s
    simulation-based search and the structural {!Podem}: a merged set of
    required line values, and the fan-in cone of the required nets.
    Only cone gates can influence a requirement, and only cone primary
    inputs are worth searching.

    A reusable buffer: {!create} allocates it once per engine, sized by
    the circuit, and {!load} overwrites it with each search's problem,
    allocating nothing.  The arrays below are capacity buffers: only
    the first [n_req], [n_gates] and [n_pis] entries are the problem's.

    Values and requirements are laid out as three components per net:
    0 = first pattern, 1 = intermediate, 2 = second pattern. *)

type t = private {
  c : Pdf_circuit.Circuit.t;  (** the circuit the buffers are sized for *)
  r : Pdf_values.Bit.t array array;
      (** requirements, 3 x nets; [X] = unconstrained *)
  req_nets : int array;  (** the required nets, in {!merge} order *)
  mutable n_req : int;
  gates : int array;
      (** cone gates, ascending gate index (a topological order) *)
  mutable n_gates : int;
  pis : int array;  (** cone primary inputs, ascending *)
  mutable n_pis : int;
  in_cone : bool array;  (** per net: whether it lies in the cone *)
}

val merge :
  (int * Pdf_values.Req.t) list -> (int * Pdf_values.Req.t) list option
(** Merge requirements that list a net several times; [None] on a direct
    conflict.  The order of the result becomes [req_nets], which decides
    the net {!conflict_net} blames — a net the ledger records — so it is
    part of the byte-identity contract. *)

val create : Pdf_circuit.Circuit.t -> t
(** An empty problem: no requirement, an empty cone. *)

val load : t -> (int * Pdf_values.Req.t) list -> unit
(** Replace the problem with {!merge}'s output.  Costs the old and the
    new problem's entries plus one scan of the circuit's gates and
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
