(* Run provenance ledger: an append-only list of structured records
   describing what the pipeline decided and why (which secondary faults
   were folded into which test, why a fault stayed undetected, ...).

   The ledger is generic — record payloads are built by the layers that
   own the vocabulary (Target_sets, Atpg) — and deterministic: records
   carry no timestamps or other schedule-dependent data, and appends
   from a single generation run happen in program order, so the emitted
   JSONL is byte-identical across `--jobs` (DESIGN.md §9).  Appends are
   mutex-protected so a ledger shared with pool workers is still
   memory-safe; byte-determinism is only promised for ledgers fed from
   one domain (the ATPG generation loop is sequential). *)

type value =
  | S of string
  | I of int
  | B of bool
  | L of value list
  | O of (string * value) list

type record = { kind : string; fields : (string * value) list }

type t = {
  mutable rev_records : record list;
  mutable count : int;
  mutex : Mutex.t;
}

let create () = { rev_records = []; count = 0; mutex = Mutex.create () }

let record t ~kind fields =
  Mutex.lock t.mutex;
  t.rev_records <- { kind; fields } :: t.rev_records;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

let size t = t.count

let records t =
  Mutex.lock t.mutex;
  let rev = t.rev_records in
  Mutex.unlock t.mutex;
  List.rev rev

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let field r name = List.assoc_opt name r.fields

let get_string r name =
  match field r name with Some (S s) -> Some s | _ -> None

let get_int r name = match field r name with Some (I i) -> Some i | _ -> None

let find t ~kind pred =
  List.filter (fun r -> r.kind = kind && pred r) (records t)

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let rec value_to_json = function
  | S s -> Json_text.quote s
  | I i -> string_of_int i
  | B b -> if b then "true" else "false"
  | L vs -> "[" ^ String.concat "," (List.map value_to_json vs) ^ "]"
  | O kvs -> "{" ^ String.concat "," (List.map member kvs) ^ "}"

and member (k, v) = Json_text.quote k ^ ":" ^ value_to_json v

let record_to_json r =
  "{" ^ String.concat "," (List.map member (("kind", S r.kind) :: r.fields))
  ^ "}"

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (record_to_json r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf

let write_jsonl t path =
  let oc = open_out path in
  output_string oc (to_jsonl t);
  close_out oc
