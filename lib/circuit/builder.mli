(** Circuit construction with validation.

    Definitions may arrive in any order (as in a [.bench] file); [finish]
    topologically sorts the gates and reports structural errors. *)

type t

type error =
  | Undriven_net of string  (** used but never defined as PI or gate output *)
  | Duplicate_driver of string
  | Combinational_cycle of string list  (** one cycle, as net names *)
  | Bad_arity of string * Gate.kind * int
  | No_outputs
  | Unknown_output of string
  | Duplicate_input of string  (** an input declared twice *)

val error_to_string : error -> string

val create : string -> t
(** [create name] starts an empty builder. *)

val add_pi : t -> string -> unit

val add_po : t -> string -> unit
(** Declare a net as primary output; the net may be defined later. *)

val add_gate : t -> out:string -> Gate.kind -> string list -> unit
(** [add_gate t ~out kind fanins]. *)

val finish : t -> (Circuit.t, error) result

val finish_exn : t -> Circuit.t
(** Raises [Failure] with {!error_to_string} on error. *)
