(* The per-layer metrics of a traced run: self times from the spans the
   benchmark records around public calls, and ratios of the counters the
   program keeps, read at the boundaries of a pass.

   Each layer row names the end-to-end metric it should move and the
   workload where it does most of its work:

   layer        metrics                                  moves            most work
   wire codec   json.decode_us protocol.{de,en}code_us   rps, p50         serve-mixed
   loop         server.* outbuf.*                        p99, rps         serve-mixed
   probe path   view.* engine.enabled_batch_us pool.*    rps, p99         serve-mixed
   step path    engine.step_us_* dispatch.*              rps, p50         animate-company
   journal      txn.*                                    rps              animate-company (commits),
                                                                          refine-cert (rollbacks)
   durability   wal.*                                    rps, p99, setup  animate-company
   views        interface.*                              p50              animate-company
   refinement   refinement.* certificate.* validator.*   rps, p50, p99    refine-cert
   front end    compile.load_ms                          setup            all (refine-cert per op)
   runtime      gc.*                                     p99, rss         all

   A layer that does no work in a workload reports 0 there. *)

open Common

(* span names, shared by every workload *)
let s_op = Tracer.name "op"
let s_json_decode = Tracer.name "json.decode"
let s_protocol_decode = Tracer.name "protocol.decode"
let s_protocol_encode = Tracer.name "protocol.encode"
let s_view_freeze = Tracer.name "view.freeze"
let s_view_thaw = Tracer.name "view.thaw"
let s_enabled_batch = Tracer.name "engine.enabled_batch"
let s_step_accepted = Tracer.name "engine.step.accepted"
let s_step_rejected = Tracer.name "engine.step.rejected"
let s_session_attr = Tracer.name "session.attr"
let s_enabled = Tracer.name "engine.enabled"
let s_wal_append = Tracer.name "wal.append"
let s_iface_attr = Tracer.name "interface.attr"
let s_iface_fire = Tracer.name "interface.fire"
let s_refine_check = Tracer.name "refinement.check"
let s_cert_finish = Tracer.name "certificate.finish"
let s_cert_encode = Tracer.name "certificate.encode"
let s_validate = Tracer.name "validator.validate"
let s_txn_probe = Tracer.name "txn.probe"

(** Per-layer metrics read off the spans: mean self time per call. *)
let span_metrics () =
  List.map
    (fun (metric_name, span) ->
      let calls, us = Tracer.self_us span in
      metric ~samples:calls metric_name "us" us)
    [
      ("json.decode_us", s_json_decode);
      ("protocol.decode_us", s_protocol_decode);
      ("protocol.encode_us", s_protocol_encode);
      ("view.freeze_us", s_view_freeze);
      ("view.thaw_us", s_view_thaw);
      ("engine.enabled_batch_us", s_enabled_batch);
      ("engine.step_us_accepted", s_step_accepted);
      ("engine.step_us_rejected", s_step_rejected);
      ("wal.append_us", s_wal_append);
      ("interface.attr_us", s_iface_attr);
      ("interface.fire_us", s_iface_fire);
      ("refinement.check_us", s_refine_check);
      ("certificate.encode_us", s_cert_encode);
      ("validator.validate_us", s_validate);
      ("txn.probe_us", s_txn_probe);
    ]

(** Counter ratios over one pass of [ops] operations. *)
let counter_metrics ~ops (c0 : counters) (c1 : counters) =
  let d rows0 rows1 label = row rows1 label - row rows0 label in
  let txn = d c0.txn c1.txn and disp = d c0.dispatch c1.dispatch in
  let probe = d c0.probe c1.probe in
  let committed = txn "transactions committed" in
  let hits = disp "dispatch hits" in
  let batches = c1.wal.Wal.batches - c0.wal.Wal.batches in
  [
    metric ~samples:committed "txn.journal_entries_per_commit" "count"
      (ratio (txn "journal entries") committed);
    metric ~samples:committed "txn.bytes_snapshotted_per_commit" "B"
      (ratio (txn "bytes snapshotted") committed);
    metric ~samples:ops "txn.probes_per_check" "count" (ratio (txn "probes") ops);
    metric ~samples:ops "txn.savepoint_rollbacks_per_check" "count"
      (ratio (txn "savepoint rollbacks") ops);
    metric ~samples:(hits + disp "interpreted fallbacks") "dispatch.hit_ratio"
      "ratio"
      (ratio hits (hits + disp "interpreted fallbacks"));
    metric ~samples:hits "dispatch.monitor_fast_step_ratio" "ratio"
      (ratio (disp "monitor fast steps") hits);
    metric ~samples:batches "wal.bytes_per_commit" "B"
      (ratio (c1.wal.Wal.bytes - c0.wal.Wal.bytes) batches);
    metric ~samples:ops "wal.fsyncs_per_request" "count"
      (ratio (c1.wal.Wal.fsyncs - c0.wal.Wal.fsyncs) ops);
    metric ~samples:ops "view.views_per_probe_request" "count"
      (ratio (probe "views taken") ops);
    metric ~samples:ops "pool.parallel_dispatches" "count"
      (float_of_int (probe "parallel dispatches"));
    metric ~samples:ops "gc.minor_words_per_op" "words"
      ((c1.minor_words -. c0.minor_words) /. float_of_int (max 1 ops));
    metric ~samples:ops "gc.major_collections_per_kop" "count"
      (1000. *. ratio (c1.major_collections - c0.major_collections) ops);
    metric ~samples:1 "gc.top_heap_mb" "MB" (gc_top_heap_mb ());
  ]

(** Wrap the commit hook {!Wal.attach} installed, so every WAL append is
    a [wal.append] span (a child of the step that commits). *)
let time_wal_appends community =
  match community.Community.commit_hook with
  | None -> die "no WAL commit hook installed"
  | Some hook ->
      community.Community.commit_hook <-
        Some (fun j -> Tracer.span s_wal_append (fun () -> hook j))

(** The counts a later claim may rest on only when they repeat exactly
    across two traced passes over the same operations. *)
let repeat_names =
  [
    "refinement.cases_per_check";
    "certificate.bytes";
    "txn.journal_entries_per_commit";
    "wal.bytes_per_commit";
    "dispatch.hit_ratio";
  ]

let value_of name ms =
  match List.find_opt (fun m -> m.name = name) ms with
  | Some m -> m.value
  | None -> 0.

(** Compare the repeatable counts of two passes: the number that agree
    exactly, and a per-count report. *)
let exact_repeat a b =
  let rows =
    List.map
      (fun n ->
        let x = value_of n a and y = value_of n b in
        (n, x, y, Float.equal x y))
      repeat_names
  in
  let exact = List.length (List.filter (fun (_, _, _, e) -> e) rows) in
  ( exact,
    Json.Obj
      (List.map
         (fun (n, x, y, e) ->
           ( n,
             Json.Obj
               [
                 ("first", Json.Float x);
                 ("second", Json.Float y);
                 ("exact", Json.Bool e);
               ] ))
         rows) )
