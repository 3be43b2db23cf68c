type t = {
  version : string;
  git_rev : string;
  git_dirty : bool;
  ocaml_version : string;
  hostname : string;
  os_type : string;
  word_size : int;
  jobs : int;
}

let version = "1.0.0"

(* One short-lived subprocess per question, memoised for the process
   lifetime: the fingerprint is embedded in every bench report and in
   the --version string, and git's answer cannot change mid-run. *)
let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (input_line ic) with End_of_file -> None in
    (* Drain so git never blocks on a full pipe. *)
    (try
       while true do
         ignore (input_line ic)
       done
     with End_of_file -> ());
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let git_rev =
  lazy
    (match command_line "git rev-parse HEAD 2>/dev/null" with
    | Some rev -> rev
    | None -> "unknown")

let git_dirty =
  lazy
    (match command_line "git status --porcelain 2>/dev/null | head -1" with
    | Some _ -> true
    | None -> false)

let env_jobs () =
  match Sys.getenv_opt "PDF_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let capture ?jobs () =
  {
    version;
    git_rev = Lazy.force git_rev;
    git_dirty = (Lazy.force git_rev <> "unknown") && Lazy.force git_dirty;
    ocaml_version = Sys.ocaml_version;
    hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    os_type = Sys.os_type;
    word_size = Sys.word_size;
    jobs = (match jobs with Some j -> j | None -> env_jobs ());
  }

let to_json f =
  Printf.sprintf
    "{\"version\":%s,\"git_rev\":%s,\"git_dirty\":%b,\"ocaml_version\":%s,\
     \"hostname\":%s,\"os_type\":%s,\"word_size\":%d,\"jobs\":%d}"
    (Json_text.quote f.version) (Json_text.quote f.git_rev) f.git_dirty
    (Json_text.quote f.ocaml_version) (Json_text.quote f.hostname)
    (Json_text.quote f.os_type) f.word_size f.jobs

let short_rev f =
  if f.git_rev = "unknown" then "unknown"
  else String.sub f.git_rev 0 (min 7 (String.length f.git_rev))

let summary_line f =
  Printf.sprintf "%s (git %s%s, ocaml %s, %d-bit)" f.version (short_rev f)
    (if f.git_dirty then "+dirty" else "")
    f.ocaml_version f.word_size

let to_table_lines f =
  [
    ("version", f.version);
    ("git revision", f.git_rev ^ if f.git_dirty then " (dirty)" else "");
    ("ocaml", f.ocaml_version);
    ("hostname", f.hostname);
    ("os type", f.os_type);
    ("word size", string_of_int f.word_size);
    ("jobs", string_of_int f.jobs);
  ]
