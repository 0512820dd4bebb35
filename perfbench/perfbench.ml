(* The repository benchmark.  One invocation runs one workload:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --root CHECKOUT --run-dir DIR --report FILE
                   [--plant] [--cores N]

   Workloads (the reasons for each are kept beside its code):
   - serve-mixed      (serve_mixed.ml)      the `trollc serve` daemon
                                            over a Unix socket;
   - animate-company  (animate_company.ml)  in-process steps, reads and
                                            interface calls (the WAL in
                                            the traced run);
   - refine-cert      (refine_cert.ml)      in-process certified
                                            refinement checks.

   Every configuration runs on one domain (the daemon with --jobs 1, no
   probe pool anywhere in this process) and a guard fails the run if a
   parallel dispatch happens.

   --trace 0 measures the end-to-end metrics: throughput, latency p50
   and p99, set-up time (the median of [setups] repetitions) and peak
   resident set.  --trace 1 is a separate run that records spans around
   the calls into each layer and reads the program's counters (see
   layers.ml); it makes two traced passes over the same operations, so
   the counts a later claim may rest on are reported as exact or not,
   and an untraced pass over the same operations, so the tracing
   overhead is measured on identical work.

   Every output is checked (see each workload); a mismatch is counted
   in [failed] and the run exits with status 1.  --plant plants one
   wrong expectation, for the self-test.  The report (metrics with
   sample counts, mismatches, guards) is written to --report; the
   runner (run.py) adds provenance and prints the result line. *)

open Common

(* ------------------------------------------------------------------ *)
(* The in-process driver                                               *)
(* ------------------------------------------------------------------ *)

type inproc =
  | Inproc : {
      setup : ctx -> ledger -> 's;
      run_op : 's -> int;  (** one checked operation; its duration in ns *)
      finish : 's -> unit;  (** end-of-pass checks *)
      dispose : 's -> unit;
      sample_probes : 's -> unit;
      setup_metrics : 's -> (string * float) list;
      extra_metrics : 's -> ops:int -> metric list;
    }
      -> inproc

let animate =
  Animate_company.(
    Inproc
      {
        setup; run_op; finish; dispose; sample_probes; setup_metrics; extra_metrics;
      })

let refine =
  Refine_cert.(
    Inproc
      {
        setup; run_op; finish; dispose; sample_probes; setup_metrics; extra_metrics;
      })

let until deadline f =
  let m = Meter.create ~seconds:(float_of_int (deadline - now_ns ()) *. 1e-9) in
  while now_ns () < deadline do
    let lat_ns = f () in
    Meter.record m ~lat_ns ~t1:(now_ns ())
  done;
  m

let untraced ctx (Inproc w) =
  let ledger = ledger () in
  let st, setup_s =
    repeated_setup ~setup:(fun () -> w.setup ctx ledger) ~dispose:w.dispose
  in
  let m = until (now_ns () + int_of_float (ctx.seconds *. 1e9)) (fun () -> w.run_op st) in
  let rss = peak_rss_mb "self" in
  w.finish st;
  expect ledger (parallel_dispatches () = 0) "a probe was dispatched to parallel domains";
  let metrics, rates = end_to_end m ~setup_s ~rss in
  { ledger; metrics; facts = [ rates ] }

let traced ctx (Inproc w) =
  let ledger = ledger () in
  (* one pass: fresh set-up, [ops] operations (or until the deadline) *)
  let pass ~trace ?deadline ops =
    (* every pass starts from a compacted heap, so the untraced and
       traced passes over the same operations are comparable *)
    Gc.compact ();
    let st = w.setup ctx ledger in
    reset_counters ();
    Tracer.reset ();
    if trace then Tracer.start ();
    let c0 = read_counters () in
    let t0 = now_ns () in
    let n =
      match deadline with
      | Some d ->
          let m = until d (fun () -> w.run_op st) in
          m.Meter.ops
      | None ->
          for _ = 1 to ops do
            ignore (w.run_op st)
          done;
          ops
    in
    let secs = float_of_int (now_ns () - t0) *. 1e-9 in
    let c1 = read_counters () in
    let counts = Layers.counter_metrics ~ops:n c0 c1 @ w.extra_metrics st ~ops:n in
    if trace then w.sample_probes st;
    Tracer.stop ();
    let spans = Layers.span_metrics () in
    let setup = w.setup_metrics st in
    w.finish st;
    (n, secs, counts, spans, setup)
  in
  let third = ctx.seconds /. 3. in
  let n, secs_a, counts_a, _, _ =
    pass ~trace:true ~deadline:(now_ns () + int_of_float (third *. 1e9)) 0
  in
  let _, secs_u, _, _, _ = pass ~trace:false n in
  let _, secs_b, counts_b, spans, setup = pass ~trace:true n in
  expect ledger (parallel_dispatches () = 0) "a probe was dispatched to parallel domains";
  let exact, report = Layers.exact_repeat counts_a counts_b in
  {
    ledger;
    metrics =
      counts_b @ spans
      @ List.map (fun (name, ms) -> metric ~samples:1 name "ms" ms) setup
      @ [
          metric ~samples:n "trace.throughput_rps" "1/s" (float_of_int n /. secs_a);
          metric ~samples:n "trace.overhead_pct" "%"
            (100. *. ((((secs_a +. secs_b) /. 2.) /. secs_u) -. 1.));
          metric ~samples:5 "repeat.exact_counts" "count" (float_of_int exact);
        ];
    facts =
      [
        ("exact_repeat", report);
        ("exact_repeat_basis", Json.String "two traced passes over the same operations");
      ];
  }

(* ------------------------------------------------------------------ *)
(* Metric names (the same lists as BENCHMARK.json)                     *)
(* ------------------------------------------------------------------ *)

let declared_end_to_end =
  [
    ("throughput_rps", "1/s"); ("latency_p50_us", "us"); ("latency_p99_us", "us");
    ("setup_s", "s"); ("peak_rss_mb", "MB");
  ]

let declared_per_layer =
  [
    ("json.decode_us", "us"); ("protocol.decode_us", "us"); ("protocol.encode_us", "us");
    ("server.residence_us_mean.fire", "us"); ("server.residence_us_mean.attr", "us");
    ("server.residence_us_mean.enabled", "us"); ("server.residence_us_mean.candidates", "us");
    ("server.transport_us_p50", "us"); ("server.jobs_per_step_batch", "count");
    ("server.probe_requests_per_batch", "count"); ("outbuf.bytes_per_flush", "B");
    ("outbuf.flushes_per_request", "count");
    ("view.freeze_us", "us"); ("view.thaw_us", "us"); ("view.views_per_probe_request", "count");
    ("engine.enabled_batch_us", "us"); ("pool.parallel_dispatches", "count");
    ("engine.step_us_accepted", "us"); ("engine.step_us_rejected", "us");
    ("dispatch.hit_ratio", "ratio"); ("dispatch.monitor_fast_step_ratio", "ratio");
    ("txn.journal_entries_per_commit", "count"); ("txn.bytes_snapshotted_per_commit", "B");
    ("txn.probe_us", "us"); ("txn.probes_per_check", "count");
    ("txn.savepoint_rollbacks_per_check", "count");
    ("wal.append_us", "us"); ("wal.bytes_per_commit", "B"); ("wal.fsyncs_per_request", "count");
    ("wal.attach_ms", "ms");
    ("interface.attr_us", "us"); ("interface.fire_us", "us");
    ("refinement.check_us", "us"); ("refinement.cases_per_check", "count");
    ("refinement.us_per_case", "us"); ("certificate.encode_us", "us");
    ("certificate.bytes", "B"); ("validator.validate_us", "us");
    ("compile.load_ms", "ms");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections_per_kop", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.throughput_rps", "1/s"); ("trace.overhead_pct", "%"); ("repeat.exact_counts", "count");
  ]

(** The declared metric set, in declared order; a layer that did no work
    in this workload reports 0 with no samples. *)
let select names (ms : metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m -> { m with unit_ }
      | None -> metric name unit_ 0.)
    names

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  "perfbench --workload serve-mixed|animate-company|refine-cert --seed N --seconds S \
   --trace 0|1 --root DIR --run-dir DIR --report FILE [--plant] [--cores N]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let root = ref "" and run_dir = ref "" and report = ref "" and plant = ref false in
  let cores = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "timed phase length");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--root", Arg.Set_string root, "checkout holding the specifications and trollc");
      ("--run-dir", Arg.Set_string run_dir, "scratch directory");
      ("--report", Arg.Set_string report, "report file");
      ("--plant", Arg.Set plant, "plant one wrong expectation (self-test)");
      ("--cores", Arg.Set_int cores, "the machine's processor count");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !root = "" || !run_dir = "" || !report = "" then begin
    prerr_endline usage;
    exit 2
  end;
  (* every workload runs on one domain; nothing may create a wider pool *)
  Pool.set_default_jobs 1;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ctx =
    {
      root = !root; run_dir = !run_dir; seed = !seed; seconds = !seconds; trace = !trace = 1;
      plant = !plant; cores = !cores;
    }
  in
  Sys.chdir ctx.run_dir;
  let result =
    try
      match !workload with
      | "serve-mixed" -> Serve_mixed.run ctx
      | "animate-company" -> if ctx.trace then traced ctx animate else untraced ctx animate
      | "refine-cert" -> if ctx.trace then traced ctx refine else untraced ctx refine
      | w ->
          Printf.eprintf "unknown workload %S\n" w;
          exit 2
    with Bench_error m ->
      Printf.eprintf "perfbench: %s\n" m;
      exit 2
  in
  let metrics = select (if ctx.trace then declared_per_layer else declared_end_to_end) result.metrics in
  let l = result.ledger in
  let failed_ratio = ratio l.failed (max 1 l.attempted) in
  Printf.printf "workload %s, seed %d, %s run\n" !workload ctx.seed
    (if ctx.trace then "traced" else "untraced");
  List.iter
    (fun m -> Printf.printf "  %-40s %14.4f %-6s (n=%d)\n" m.name m.value m.unit_ m.samples)
    metrics;
  Printf.printf "  %-40s %14.6f %-6s (n=%d)\n" "failed_ratio" failed_ratio "ratio" l.attempted;
  Printf.printf "  checked %d outcomes: %d expected refusals, %d failed\n" l.attempted l.refused
    l.failed;
  List.iter (fun n -> Printf.printf "  MISMATCH %s\n" n) (List.rev l.notes);
  if ctx.trace then Tracer.dump (Filename.concat ctx.run_dir "spans.jsonl");
  let doc =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int ctx.seed);
        ("trace", Json.Bool ctx.trace);
        ("correct", Json.Bool (l.failed = 0));
        ("attempted", Json.Int (max 1 l.attempted));
        ("failed", Json.Int l.failed);
        ("refused", Json.Int l.refused);
        ("failed_ratio", Json.Float failed_ratio);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", Json.Float m.value);
                       ("unit", Json.String m.unit_);
                       ("samples", Json.Int m.samples);
                     ] ))
               metrics) );
        ( "spans",
          Json.List
            (List.map
               (fun (s, calls, total, self) ->
                 Json.Obj
                   [
                     ("name", Json.String s);
                     ("calls", Json.Int calls);
                     ("total_us", Json.Float total);
                     ("self_us", Json.Float self);
                   ])
               (if ctx.trace then Tracer.summary () else [])) );
        ("mismatches", Json.List (List.rev_map (fun s -> Json.String s) l.notes));
        ("benchmark_peak_rss_mb", Json.Float (peak_rss_mb "self"));
        ("wal_attached", Json.Bool !wal_attached);
        ("facts", Json.Obj result.facts);
      ]
  in
  let oc = open_out !report in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  exit (if l.failed = 0 then 0 else 1)
