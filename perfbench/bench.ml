(* pdf-enrich end-to-end benchmark: runs one seeded workload against the
   library's public entry points and prints its metrics.  The last line
   of standard output is one JSON object.  perfbench/run.py builds and
   drives this executable; see WORKLOADS.md. *)

open Common

(* Switches that would measure another program than the one users run;
   backend and pool width are chosen through public arguments instead. *)
let toggles = [ "PDF_BITSIM"; "PDF_INCSIM"; "PDF_JUSTIFY"; "PDF_JOBS" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " enrich-sim | enrich-portfolio | grade");
      ("--seed", Arg.Set_int seed, " seed all inputs derive from");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1 for the traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) toggles with
  | [] -> ()
  | set ->
    Printf.eprintf "bench: refusing to run with %s set\n" (String.concat ", " set);
    exit 2);
  let run =
    match !workload with
    | "enrich-sim" -> Enrich_wl.run ~kind:Pdf_core.Justify.Sim
    | "enrich-portfolio" -> Enrich_wl.run ~kind:Pdf_core.Justify.Portfolio
    | "grade" -> Grade_wl.run
    | w ->
      Printf.eprintf "bench: unknown workload %S\n" w;
      exit 2
  in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  say "workload %s  seed %d  seconds %g  trace %b" !workload seed seconds trace;
  Tracer.enabled := trace;
  let o = run ~seed ~seconds ~trace in
  report_slowness ();
  say "fingerprint %s"
    (Pdf_obs.Fingerprint.to_json
       (Pdf_obs.Fingerprint.capture ~jobs:(Pdf_par.Pool.default_jobs ()) ()));
  if trace then begin
    ensure_out_dir ();
    let path = Printf.sprintf "%s/%s-seed%d.trace.json" out_dir !workload seed in
    Tracer.write path;
    say "trace: %d spans in %s; self time by span:" (List.length !Tracer.closed)
      path;
    List.iter
      (fun (name, self, count) -> say "  %10.4f s %7d x  %s" self count name)
      (Tracer.self_times ())
  end;
  let metrics = if trace then o.layers else o.e2e in
  List.iter (fun m -> say "%-32s %16.6f %s" m.key m.value m.unit) metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then say "a metric is not a finite number";
  let correct = o.failed = 0 && finite in
  let quote = Pdf_obs.Json_text.quote in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (quote m.key)
              (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value
               else "0")
              (quote m.unit))
          metrics));
  exit (if correct then 0 else 1)
