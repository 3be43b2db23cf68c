(** Reading and writing two-pattern test sets.

    The format is one test per line, the two patterns separated by a
    slash, MSB-to-LSB in primary-input declaration order — e.g.
    ["0110100/1010110"].  Blank lines and [#] comments are ignored. *)

type parse_error = { line : int; message : string }

val error_to_string : parse_error -> string

val to_string : Test_pair.t list -> string

val of_string :
  num_pis:int -> string -> (Test_pair.t list, parse_error) result

val write_file : Test_pair.t list -> string -> unit
(** Writes {!to_string}; raises [Sys_error] when the file cannot be
    written. *)

val read_file :
  num_pis:int -> string -> (Test_pair.t list, parse_error) result
(** {!of_string} of the file's contents; raises [Sys_error] when the
    file cannot be read. *)
