(** Environment fingerprint: the identity of the build and machine a
    run executed on.

    Every benchmark report ([BENCH_*.json], DESIGN.md §11) embeds one so
    that a baseline comparison can tell "the code got slower" apart from
    "this is a different machine / compiler / pool width";
    [pdfatpg version] prints the same record, so the bench artifacts and
    the CLI agree on what was measured. *)

type t = {
  version : string;  (** library/CLI version (see {!version}) *)
  git_rev : string;  (** [git rev-parse HEAD] of the working tree, or ["unknown"] *)
  git_dirty : bool;  (** uncommitted changes present (false when unknown) *)
  ocaml_version : string;  (** [Sys.ocaml_version] *)
  hostname : string;  (** [Unix.gethostname] *)
  os_type : string;  (** [Sys.os_type] *)
  word_size : int;  (** [Sys.word_size] *)
  jobs : int;  (** pool parallelism the run was configured with *)
}

val version : string
(** The library version string (kept in sync with [Cmd.info ~version]). *)

val capture : ?jobs:int -> unit -> t
(** Capture the current environment.  [jobs] defaults to the [PDF_JOBS]
    environment variable (or 1) — pass {!Pdf_par.Pool.default_jobs}'s
    value when a pool is in play.  The git revision is read once per
    process and memoised. *)

val to_json : t -> string
(** One-line JSON object (the ["fingerprint"] field of the unified
    benchmark schema). *)

val summary_line : t -> string
(** Compact one-liner, e.g.
    ["1.0.0 (git 4dc1382, ocaml 5.1.1, 64-bit)"] — the string behind
    [pdfatpg --version]. *)

val to_table_lines : t -> (string * string) list
(** Key/value rows for [pdfatpg version]'s aligned output. *)
