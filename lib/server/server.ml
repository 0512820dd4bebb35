(** The society server — a single-threaded [select] loop.  See the
    interface for the execution model. *)

type config = {
  queue_capacity : int;
  default_deadline_ms : int option;
  save_on_shutdown : string option;
  jobs : int;  (** probe pool size; 1 = sequential (and fork-safe) *)
  out_high_water : int;
      (** pause reading a connection whose output backlog reaches this *)
  out_low_water : int;  (** resume reading once the backlog drains to this *)
  evict_after : float;
      (** seconds a paused connection may stay paused before it is
          evicted; doubles as the drain deadline on shutdown *)
}

let default_config =
  {
    queue_capacity = 1024;
    default_deadline_ms = None;
    save_on_shutdown = None;
    jobs = 1;
    out_high_water = 1 lsl 20;
    out_low_water = 1 lsl 16;
    evict_after = 30.;
  }

(* one client connection; [inbuf] frames its input in place, [inq]
   holds the connection's admitted-but-unexecuted requests in arrival
   order, [out] its coalesced responses *)
type conn = {
  fd : Unix.file_descr;
  out_fd : Unix.file_descr;  (** = [fd] except in stdio mode *)
  out : Outbuf.t;
  inbuf : Inbuf.t;
  inq : job Queue.t;
  mutable alive : bool;
  owned : bool;
      (** accepted by the listener (so the server closes it); the stdio
          descriptors belong to the caller *)
  mutable reading : bool;
      (** false after input EOF: the connection only drains *)
  mutable paused_since : float;
      (** 0. = reading normally; otherwise the time the output backlog
          crossed the high-water mark and reading stopped *)
  mutable ship : bool;
      (** negotiated the [wal] capability in [hello]: shipped WAL
          records are pushed to this connection at turn boundaries *)
}

and job = {
  conn : conn;
  id : Json.t;
  request : Protocol.request;
  op : string;
  enqueued_at : float;
  deadline : float option;  (** absolute, seconds since epoch *)
}

type counters = {
  mutable received : int;
  mutable executed : int;
  mutable ok : int;
  mutable rejected : int;  (** structured errors from execution *)
  mutable expired : int;
  mutable overloaded : int;
  mutable shed : int;  (** answered [shutting_down] while draining *)
  mutable malformed : int;
  mutable probe_requests : int;  (** enabled/candidates answered *)
  mutable probe_batches : int;  (** coalesced probe dispatches *)
  mutable step_batches : int;  (** coalesced single-step dispatches *)
  mutable step_batch_members : int;  (** steps answered by those *)
  mutable pauses : int;  (** high-water read pauses *)
  mutable resumes : int;  (** low-water read resumes *)
  mutable evictions : int;  (** connections dropped at the deadline *)
  mutable max_turn_jobs : int;  (** largest single-turn job count *)
}

type t = {
  session : Troll.Session.t;
  config : config;
  mutable queued : int;  (** jobs across every connection's [inq] *)
  mutable rr : int;  (** round-robin start offset for fair interleave *)
  mutable draining : bool;
  mutable drain_deadline : float;
      (** absolute; past it, a drain stops waiting for slow readers *)
  mutable conns : conn list;
  stats : counters;
  latency : (string, Trace.Latency.t) Hashtbl.t;
  mutable view : View.t option;
      (** frozen projection reused across fanned-out probe dispatches
          until the community changes (one freeze per quiescent point);
          sequential probes never take one *)
  mutable pool : Pool.t option;
      (** probe pool, created lazily on the first probe request — a
          server that never probes never spawns a domain and stays
          fork-safe *)
  wal : Wal.t option;
      (** durability log; appends happen inside commits via the
          community's hook, the serve loop group-fsyncs at turn
          boundaries *)
  mutable prepared : Engine.prepared option;
      (** the open transaction of a two-phase commit; while [Some],
          everything except ping/hello/commit/abort/stats/shutdown is
          answered with [txn_pending] *)
  ship_queue : (int * string) Queue.t;
      (** WAL records appended since the last turn boundary, waiting to
          be pushed to [ship] connections *)
}

let create ?(config = default_config) ?wal session =
  let t =
  {
    session;
    config;
    wal;
    prepared = None;
    ship_queue = Queue.create ();
    queued = 0;
    rr = 0;
    draining = false;
    drain_deadline = infinity;
    conns = [];
    stats =
      {
        received = 0;
        executed = 0;
        ok = 0;
        rejected = 0;
        expired = 0;
        overloaded = 0;
        shed = 0;
        malformed = 0;
        probe_requests = 0;
        probe_batches = 0;
        step_batches = 0;
        step_batch_members = 0;
        pauses = 0;
        resumes = 0;
        evictions = 0;
        max_turn_jobs = 0;
      };
    latency = Hashtbl.create 16;
    view = None;
    pool = None;
  }
  in
  (* mirror every appended WAL record to subscribed connections; the
     queue only fills while someone is actually listening *)
  Option.iter
    (fun w ->
      Wal.set_shipper w
        (Some
           (fun seq payload ->
             if List.exists (fun c -> c.ship && c.alive) t.conns then
               Queue.add (seq, payload) t.ship_queue)))
    wal;
  t

let stop t =
  t.draining <- true;
  if t.drain_deadline = infinity then
    t.drain_deadline <- Unix.gettimeofday () +. t.config.evict_after

(* ------------------------------------------------------------------ *)
(* Probe views and pool                                                *)
(* ------------------------------------------------------------------ *)

(** The frozen view for the current quiescent point, freezing a fresh
    one only when the cached view went stale (schema edit, committed
    step, restore).  Only a probe dispatch that fans out to pool
    domains needs one. *)
let current_view t : View.t =
  let community = Troll.Session.community t.session in
  match t.view with
  | Some v when View.valid v && View.source v == community -> v
  | prior ->
      if Option.is_some prior then View.note_invalidated ();
      let v = View.freeze community in
      t.view <- Some v;
      v

let probe_pool t : Pool.t =
  match t.pool with
  | Some p -> p
  | None ->
      let p = Pool.create ~jobs:t.config.jobs in
      t.pool <- Some p;
      p

let shutdown_pool t =
  match t.pool with
  | Some p ->
      Pool.shutdown p;
      t.pool <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* responses append to the connection's output buffer; the serve loop
   flushes once per turn (coalescing a whole turn into one write) and
   resumes partial writes from the select write set *)
let send conn frame = if conn.alive then Outbuf.add_frame conn.out frame
let send_error conn ~id err = send conn (Protocol.error_frame ~id err)

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    conn.reading <- false;
    (* answers already encoded get one last best-effort write *)
    Outbuf.flush conn.out;
    Outbuf.kill conn.out;
    t.queued <- t.queued - Queue.length conn.inq;
    Queue.clear conn.inq;
    if conn.owned then begin
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      if conn.out_fd <> conn.fd then
        try Unix.close conn.out_fd with Unix.Unix_error _ -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let record_latency t op seconds =
  let h =
    match Hashtbl.find_opt t.latency op with
    | Some h -> h
    | None ->
        let h = Trace.Latency.create () in
        Hashtbl.add t.latency op h;
        h
  in
  Trace.Latency.record h seconds

let json_of_us us =
  if us = infinity then Json.Null else Json.Int (int_of_float us)

let stats_json t : Json.t =
  let s = t.stats in
  let latency_rows =
    Hashtbl.fold
      (fun op h acc ->
        ( op,
          Json.Obj
            [
              ("count", Json.Int (Trace.Latency.count h));
              ("mean_us", Json.Int (int_of_float (Trace.Latency.mean_us h)));
              ("max_us", Json.Int (int_of_float (Trace.Latency.max_us h)));
              ("p50_us", json_of_us (Trace.Latency.quantile_us h 0.5));
              ("p99_us", json_of_us (Trace.Latency.quantile_us h 0.99));
              ( "buckets",
                Json.List
                  (List.map
                     (fun (bound, count) ->
                       Json.List [ json_of_us bound; Json.Int count ])
                     (Trace.Latency.buckets h)) );
            ] )
        :: acc)
      t.latency []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Json.Obj
    [
      ( "server",
        Json.Obj
          [
            ("received", Json.Int s.received);
            ("executed", Json.Int s.executed);
            ("ok", Json.Int s.ok);
            ("rejected", Json.Int s.rejected);
            ("expired", Json.Int s.expired);
            ("overloaded", Json.Int s.overloaded);
            ("shed", Json.Int s.shed);
            ("malformed", Json.Int s.malformed);
            ("queue_depth", Json.Int t.queued);
            ("draining", Json.Bool t.draining);
          ] );
      ( "pipeline",
        Json.Obj
          ([
             ("sessions", Json.Int (List.length t.conns));
             ("queued", Json.Int t.queued);
             ("step_batches", Json.Int s.step_batches);
             ("step_batch_members", Json.Int s.step_batch_members);
             ("pauses", Json.Int s.pauses);
             ("resumes", Json.Int s.resumes);
             ("evictions", Json.Int s.evictions);
             ("max_turn_jobs", Json.Int s.max_turn_jobs);
           ]
          @ List.map
              (fun (label, n) -> (label, Json.Int n))
              (Outbuf.stats_rows ())) );
      ( "txn",
        Json.Obj
          (List.map
             (fun (label, n) -> (label, Json.Int n))
             (Trace.txn_stats_rows ())) );
      ( "dispatch",
        Json.Obj
          (List.map
             (fun (label, n) -> (label, Json.Int n))
             (Trace.dispatch_stats_rows ())) );
      ( "probe",
        Json.Obj
          (("requests", Json.Int s.probe_requests)
          :: ("batches", Json.Int s.probe_batches)
          :: ("jobs", Json.Int t.config.jobs)
          :: List.map
               (fun (label, n) -> (label, Json.Int n))
               (Trace.probe_stats_rows ())) );
      ( "wal",
        match t.wal with
        | None -> Json.Obj [ ("attached", Json.Bool false) ]
        | Some w ->
            let ws = Wal.stats () in
            let mean_us =
              if ws.Wal.fsyncs = 0 then 0
              else ws.Wal.fsync_total_us / ws.Wal.fsyncs
            in
            Json.Obj
              [
                ("attached", Json.Bool true);
                ("dir", Json.String (Wal.dir w));
                ("last_seq", Json.Int (Wal.last_seq w));
                ("depth", Json.Int (Wal.depth w));
                ("batches", Json.Int ws.Wal.batches);
                ("effects", Json.Int ws.Wal.effects);
                ("bytes", Json.Int ws.Wal.bytes);
                ("snapshots", Json.Int ws.Wal.snapshots);
                ("fsyncs", Json.Int ws.Wal.fsyncs);
                ("fsync_mean_us", Json.Int mean_us);
                ("fsync_max_us", Json.Int ws.Wal.fsync_max_us);
              ] );
      ("latency_us", Json.Obj latency_rows);
    ]

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let instance_to_json (inst : Interface.instance) : Json.t =
  Json.Obj (List.map (fun (n, id) -> (n, Protocol.ident_to_json id)) inst)

let unknown_class_error cls =
  Protocol.Wire_error.of_reason (Runtime_error.Unknown_class cls)

(** Operations that stay answerable while a prepared transaction is
    open.  Everything else would observe (or destroy) tentative state. *)
let allowed_while_prepared = function
  | Protocol.Ping | Protocol.Hello _ | Protocol.Commit | Protocol.Abort
  | Protocol.Stats | Protocol.Shutdown ->
      true
  | _ -> false

let txn_pending =
  Protocol.Wire_error.make ~code:"txn_pending"
    "a prepared transaction is open; commit or abort it first"

(** Answer probe requests ([enabled], [candidates]) at the current
    quiescent point, with every enabledness check of every request
    pooled into one array.  Templates, liveness and descriptors come
    from the live community.  When the pool would run the array
    sequentially anyway ({!Pool.fans_out}), each check is a
    {!Txn.probe} on the live community itself: at a quiescent point it
    sees exactly what a thawed copy would, rolls back bit for bit,
    bumps no version and fires no commit hook, so cached views and the
    WAL are undisturbed.  Only a dispatch that really fans out freezes
    a {!View} for the pool's domains to thaw.  Callers guarantee no
    prepared transaction is open. *)
let answer_probes t (reqs : Protocol.request list) :
    (Json.t, Protocol.Wire_error.t) result list =
  let community = Troll.Session.community t.session in
  let evs = ref [] and n_evs = ref 0 in
  let push id name =
    evs := Event.make id name [] :: !evs;
    incr n_evs;
    !n_evs - 1
  in
  let plans =
    List.map
      (fun req ->
        t.stats.probe_requests <- t.stats.probe_requests + 1;
        match req with
        | Protocol.Enabled id -> (
            match Community.find_template community id.Ident.cls with
            | None -> `Done (unknown_class_error id.Ident.cls)
            | Some _ -> (
                match Community.living community id with
                | None -> `Enabled ([||], [||])
                | Some o ->
                    let descs =
                      Engine.nullary_descriptors community o.Obj_state.template
                    in
                    `Enabled
                      ( descs,
                        Array.map
                          (fun (ed : Template.event_def) ->
                            push id ed.Template.ed_name)
                          descs )))
        | Protocol.Candidates id -> (
            match Community.find_template community id.Ident.cls with
            | None -> `Done (unknown_class_error id.Ident.cls)
            | Some tpl ->
                let cands = Engine.candidate_descriptors community tpl in
                let alive = Option.is_some (Community.living community id) in
                `Cands
                  ( cands,
                    Array.map
                      (fun (name, params) ->
                        if alive && params = [] then Some (push id name)
                        else None)
                      cands ))
        | _ -> assert false)
      reqs
  in
  let evs = Array.of_list (List.rev !evs) in
  let pool = probe_pool t in
  let ok =
    if Pool.fans_out pool ~n:(Array.length evs) then
      Engine.enabled_batch_par ~pool (current_view t) evs
    else Array.map (Engine.enabled community) evs
  in
  List.map
    (function
      | `Done err -> Error err
      | `Enabled (descs, offs) ->
          let names = ref [] in
          for i = Array.length descs - 1 downto 0 do
            if ok.(offs.(i)) then names := descs.(i).Template.ed_name :: !names
          done;
          Ok (Protocol.enabled_to_json !names)
      | `Cands (cands, slots) ->
          Ok
            (Protocol.candidates_to_json
               (List.init (Array.length cands) (fun i ->
                    let name, params = cands.(i) in
                    (name, params, Option.map (fun k -> ok.(k)) slots.(i))))))
    plans

let server_caps t =
  (if Option.is_some t.wal then [ "wal" ] else [])
  @ (if t.config.jobs > 1 then [ "jobs" ] else [])
  @ [ "steps"; "pipeline" ]

let execute t (req : Protocol.request) :
    (Json.t, Protocol.Wire_error.t) result =
  let s = t.session in
  let community = Troll.Session.community s in
  if Option.is_some t.prepared && not (allowed_while_prepared req) then
    Error txn_pending
  else
  match req with
  | Protocol.Ping -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Hello { version; caps } ->
      if version <> Protocol.version then
        Error
          (Protocol.Wire_error.make ~code:"version_mismatch"
             (Printf.sprintf
                "server speaks protocol version %d, client offered %d"
                Protocol.version version))
      else begin
        ignore caps;
        let mine = server_caps t in
        Ok
          (Json.Obj
             [
               ("version", Json.Int Protocol.version);
               ("caps", Json.List (List.map (fun c -> Json.String c) mine));
             ])
      end
  | Protocol.Prepare step -> (
      match Engine.prepare community step with
      | Ok p ->
          t.prepared <- Some p;
          Ok (Protocol.outcome_to_json (Engine.outcome_of_prepared p))
      | Error reason -> Error (Protocol.Wire_error.of_reason reason))
  | Protocol.Commit -> (
      match t.prepared with
      | None ->
          Error
            (Protocol.Wire_error.make ~code:"no_txn"
               "no prepared transaction to commit")
      | Some p ->
          t.prepared <- None;
          Engine.commit_prepared p;
          Ok (Json.Obj [ ("committed", Json.Bool true) ]))
  | Protocol.Abort -> (
      match t.prepared with
      | None -> Ok (Json.Obj [ ("aborted", Json.Bool false) ])
      | Some p ->
          t.prepared <- None;
          Engine.rollback_prepared p;
          Ok (Json.Obj [ ("aborted", Json.Bool true) ]))
  | Protocol.Catchup { base; records } -> (
      let restored =
        match base with
        | None -> Ok ()
        | Some dump -> (
            match Persist.load community dump with
            | Ok () -> Ok ()
            | Error m ->
                Error (Protocol.Wire_error.make ~code:"restore_error" m))
      in
      match restored with
      | Error e -> Error e
      | Ok () -> (
          let rec replay n = function
            | [] -> Ok n
            | payload :: rest -> (
                match Effect_log.decode payload with
                | Error m -> Error m
                | Ok effs -> (
                    match Effect_log.apply community effs with
                    | Ok () -> replay (n + 1) rest
                    | Error m -> Error m))
          in
          match replay 0 records with
          | Error m ->
              Error (Protocol.Wire_error.make ~code:"catchup_error" m)
          | Ok n ->
              (* the replay bypassed the journal; re-anchor the WAL on
                 the caught-up state *)
              t.view <- None;
              Option.iter Wal.snapshot t.wal;
              Ok (Json.Obj [ ("applied", Json.Int n) ])))
  | Protocol.Step step -> (
      match Troll.step s step with
      | Ok outcome -> Ok (Protocol.outcome_to_json outcome)
      | Error reason -> Error (Protocol.Wire_error.of_reason reason))
  | Protocol.Steps steps ->
      let results = List.map (Troll.step s) steps in
      Ok
        (Json.Obj
           [
             ( "results",
               Json.List
                 (List.map
                    (function
                      | Ok outcome ->
                          Json.Obj
                            [
                              ("ok", Json.Bool true);
                              ("result", Protocol.outcome_to_json outcome);
                            ]
                      | Error reason ->
                          Json.Obj
                            [
                              ("ok", Json.Bool false);
                              ( "error",
                                Protocol.Wire_error.to_json
                                  (Protocol.Wire_error.of_reason reason) );
                            ])
                    results) );
           ])
  | Protocol.Attr { target; attr } -> (
      match Troll.Session.attr s target attr with
      | Ok v -> Ok (Json.Obj [ ("value", Protocol.value_to_json v) ])
      | Error e -> Error (Protocol.Wire_error.of_error e))
  | Protocol.Eval expr -> (
      match Troll.Session.eval s expr with
      | Ok v -> Ok (Json.Obj [ ("value", Protocol.value_to_json v) ])
      | Error e -> Error (Protocol.Wire_error.of_error e))
  | Protocol.Extension cls -> (
      match Community.find_template community cls with
      | None ->
          Error
            (Protocol.Wire_error.of_reason (Runtime_error.Unknown_class cls))
      | Some _ ->
          Ok
            (Json.Obj
               [
                 ( "members",
                   Json.List
                     (List.map Protocol.ident_to_json
                        (Troll.Session.extension s cls)) );
               ]))
  | (Protocol.Enabled _ | Protocol.Candidates _) as probe ->
      List.hd (answer_probes t [ probe ])
  | Protocol.View { view; what } -> (
      match Troll.Session.view s view with
      | None ->
          Error
            (Protocol.Wire_error.make ~code:"unknown_view"
               (Printf.sprintf "no interface class %s" view))
      | Some v -> (
          match what with
          | Protocol.Rows ->
              Ok
                (Json.Obj
                   [
                     ("view", Json.String view);
                     ( "attrs",
                       Json.List
                         (List.map
                            (fun n -> Json.String n)
                            (Interface.attr_names v)) );
                     ( "rows",
                       Json.List
                         (List.map Protocol.value_to_json
                            (Interface.tabulate v)) );
                   ])
          | Protocol.Members ->
              Ok
                (Json.Obj
                   [
                     ("view", Json.String view);
                     ( "members",
                       Json.List
                         (List.map instance_to_json (Interface.extension v))
                     );
                   ])))
  | Protocol.Save None ->
      (* [wal_seq] anchors the dump in the WAL: records with seq <= it
         are already part of the state (a mirroring router uses this to
         discard stale shipments) *)
      Ok
        (Json.Obj
           (("state", Json.String (Persist.save community))
           ::
           (match t.wal with
           | None -> []
           | Some w -> [ ("wal_seq", Json.Int (Wal.last_seq w)) ])))
  | Protocol.Save (Some path) -> (
      match Persist.save_file community path with
      | () -> Ok (Json.Obj [ ("path", Json.String path) ])
      | exception Sys_error m ->
          Error (Protocol.Wire_error.make ~code:"io_error" m))
  | Protocol.Restore { path; state } -> (
      let dump =
        match (state, path) with
        | Some s, _ -> Ok s
        | None, Some p -> (
            match
              let ic = open_in_bin p in
              let n = in_channel_length ic in
              let s = really_input_string ic n in
              close_in ic;
              s
            with
            | s -> Ok s
            | exception Sys_error m ->
                Error (Protocol.Wire_error.make ~code:"io_error" m))
        | None, None ->
            Error
              (Protocol.Wire_error.make ~code:"bad_request"
                 "restore needs a \"path\" or a \"state\"")
      in
      match dump with
      | Error e -> Error e
      | Ok dump -> (
          match Persist.load community dump with
          | Ok () ->
              (* the restore bypassed the journal, so the WAL tail no
                 longer describes this state: compact immediately *)
              Option.iter Wal.snapshot t.wal;
              Ok (Json.Obj [ ("restored", Json.Bool true) ])
          | Error m ->
              Error (Protocol.Wire_error.make ~code:"restore_error" m)))
  | Protocol.Snapshot -> (
      match t.wal with
      | None ->
          Error
            (Protocol.Wire_error.make ~code:"no_wal"
               "server is running without a WAL")
      | Some w ->
          Wal.snapshot w;
          Ok
            (Json.Obj
               [
                 ("snapshot_seq", Json.Int (Wal.last_seq w));
                 ("depth", Json.Int (Wal.depth w));
               ]))
  | Protocol.Stats -> Ok (stats_json t)
  | Protocol.Shutdown -> Ok (Json.Obj [ ("draining", Json.Bool true) ])

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

let process t (job : job) =
  let now = Unix.gettimeofday () in
  (match job.deadline with
  | Some d when now >= d ->
      t.stats.expired <- t.stats.expired + 1;
      send_error job.conn ~id:job.id
        (Protocol.Wire_error.make ~code:"deadline_expired"
           "deadline passed before execution")
  | _ -> (
      let result = execute t job.request in
      t.stats.executed <- t.stats.executed + 1;
      (* [hello] negotiates per-connection capabilities: subscribing to
         WAL shipments needs the connection, which [execute] (exposed
         connection-free) never sees *)
      (match (job.request, result) with
      | Protocol.Hello { caps; _ }, Ok _ ->
          job.conn.ship <- List.mem "wal" caps && Option.is_some t.wal
      | _ -> ());
      (match result with
      | Ok body ->
          t.stats.ok <- t.stats.ok + 1;
          send job.conn (Protocol.ok_frame ~id:job.id body)
      | Error err ->
          t.stats.rejected <- t.stats.rejected + 1;
          send_error job.conn ~id:job.id err);
      (* shutdown drains: admission stops, the queues finish *)
      match job.request with Protocol.Shutdown -> stop t | _ -> ()));
  record_latency t job.op (Unix.gettimeofday () -. job.enqueued_at)

let is_probe (job : job) =
  match job.request with
  | Protocol.Enabled _ | Protocol.Candidates _ -> true
  | _ -> false

let is_single_step (job : job) =
  match job.request with Protocol.Step _ -> true | _ -> false

(** Per-job bookkeeping shared by the batched paths: counters, the
    response frame, the latency sample. *)
let finish_job t (job : job) result =
  t.stats.executed <- t.stats.executed + 1;
  (match result with
  | Ok body ->
      t.stats.ok <- t.stats.ok + 1;
      send job.conn (Protocol.ok_frame ~id:job.id body)
  | Error err ->
      t.stats.rejected <- t.stats.rejected + 1;
      send_error job.conn ~id:job.id err);
  record_latency t job.op (Unix.gettimeofday () -. job.enqueued_at)

(** Answer the expired jobs of a batch immediately and return the rest.
    The batch paths check deadlines once, up front — a whole batch runs
    at one quiescent point, so there is no later point to re-check at. *)
let drop_expired t (jobs : job list) =
  let now = Unix.gettimeofday () in
  List.filter
    (fun job ->
      match job.deadline with
      | Some d when now >= d ->
          t.stats.expired <- t.stats.expired + 1;
          send_error job.conn ~id:job.id
            (Protocol.Wire_error.make ~code:"deadline_expired"
               "deadline passed before execution");
          record_latency t job.op (Unix.gettimeofday () -. job.enqueued_at);
          false
      | _ -> true)
    jobs

(** Answer a run of consecutive probe jobs through one {!answer_probes}
    call, so every enabledness check of the run goes out as one
    dispatch.  Per-job deadline checks, counters and latency recording
    are exactly those of per-job {!process}; the answers equal per-job
    execution because all jobs in the run see the same quiescent
    point.  Probes observe state, so an open prepared transaction
    answers the whole run [txn_pending], as {!execute} would. *)
let process_probe_batch t (jobs : job list) =
  match drop_expired t jobs with
  | [] -> ()
  | live when Option.is_some t.prepared ->
      List.iter (fun job -> finish_job t job (Error txn_pending)) live
  | live ->
      t.stats.probe_batches <- t.stats.probe_batches + 1;
      List.iter2 (finish_job t) live
        (answer_probes t (List.map (fun job -> job.request) live))

(** Answer a run of consecutive single-event fires from every session as
    one batch: deadlines are checked once, up front, then each member
    executes in order, one {!Engine.step} apiece — so the responses
    (and the community) equal per-job {!process}.  Callers guarantee no
    prepared transaction is open and the session is unsharded. *)
let process_step_batch t (jobs : job list) =
  match drop_expired t jobs with
  | [] -> ()
  | [ job ] -> process t job
  | live ->
      t.stats.step_batches <- t.stats.step_batches + 1;
      t.stats.step_batch_members <-
        t.stats.step_batch_members + List.length live;
      List.iter (fun job -> finish_job t job (execute t job.request)) live

(* ------------------------------------------------------------------ *)
(* Admission and scheduling                                            *)
(* ------------------------------------------------------------------ *)

let admit t (job : job) =
  if t.draining then begin
    t.stats.shed <- t.stats.shed + 1;
    send_error job.conn ~id:job.id
      (Protocol.Wire_error.make ~code:"shutting_down" "server is draining")
  end
  else if t.queued >= t.config.queue_capacity then begin
    t.stats.overloaded <- t.stats.overloaded + 1;
    send_error job.conn ~id:job.id
      (Protocol.Wire_error.make ~code:"overloaded"
         (Printf.sprintf "admission queue full (%d requests)"
            t.config.queue_capacity))
  end
  else begin
    Queue.add job job.conn.inq;
    t.queued <- t.queued + 1
  end

(** Drain every per-session queue into one execution order: cycling
    round-robin over the sessions, one job per session per cycle, so a
    session that pipelined a hundred frames cannot starve the others —
    while each session's own jobs stay FIFO.  The cycle's start rotates
    every turn. *)
let gather_jobs t : job list =
  if t.queued = 0 then []
  else begin
    let conns = Array.of_list (List.rev t.conns) in
    let n = Array.length conns in
    let out = ref [] in
    let remaining = ref t.queued in
    let i = ref t.rr in
    while !remaining > 0 do
      (match Queue.take_opt conns.(!i mod n).inq with
      | Some job ->
          out := job :: !out;
          decr remaining
      | None -> ());
      incr i
    done;
    t.queued <- 0;
    t.rr <- (t.rr + 1) mod n;
    List.rev !out
  end

(** Execute one turn's jobs, coalescing maximal contiguous runs: probes
    answer at one quiescent point in one dispatch, single-event fires
    run as one batch (only while no prepared transaction is open and the
    session is unsharded — checked per run, because a [prepare]
    executing mid-turn closes the window). *)
let run_jobs t (jobs : job list) =
  let span p l =
    let rec go acc = function
      | x :: rest when p x -> go (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    go [] l
  in
  let can_batch_steps () =
    Option.is_none t.prepared
    && Option.is_none (Troll.Session.shard_map t.session)
  in
  let rec go = function
    | [] -> ()
    | job :: _ as l when is_probe job ->
        let run, rest = span is_probe l in
        process_probe_batch t run;
        go rest
    | job :: _ as l when is_single_step job && can_batch_steps () ->
        let run, rest = span is_single_step l in
        process_step_batch t run;
        go rest
    | job :: rest ->
        process t job;
        go rest
  in
  let njobs = List.length jobs in
  if njobs > t.stats.max_turn_jobs then t.stats.max_turn_jobs <- njobs;
  go jobs

let handle_frame t conn (read : Frame.read) =
  match read with
  | Frame.Eof -> assert false
  | Frame.Malformed msg ->
      t.stats.malformed <- t.stats.malformed + 1;
      send_error conn ~id:Json.Null
        (Protocol.Wire_error.make ~code:"bad_request"
           (Printf.sprintf "malformed frame: %s" msg))
  | Frame.Frame doc -> (
      let env = Protocol.decode doc in
      match env.Protocol.request with
      | Error msg ->
          t.stats.malformed <- t.stats.malformed + 1;
          send_error conn ~id:env.Protocol.req_id
            (Protocol.Wire_error.make ~code:"bad_request" msg)
      | Ok request ->
          t.stats.received <- t.stats.received + 1;
          let enqueued_at = Unix.gettimeofday () in
          let deadline_ms =
            match env.Protocol.deadline_ms with
            | Some ms -> Some ms
            | None -> t.config.default_deadline_ms
          in
          admit t
            {
              conn;
              id = env.Protocol.req_id;
              request;
              op = Protocol.op_name request;
              enqueued_at;
              deadline =
                Option.map
                  (fun ms -> enqueued_at +. (float_of_int ms /. 1000.))
                  deadline_ms;
            })

(* ------------------------------------------------------------------ *)
(* Connection input                                                    *)
(* ------------------------------------------------------------------ *)

(** Read a select-ready connection dry — the descriptor is nonblocking,
    so the loop drains everything the kernel has buffered and every
    complete frame is admitted in this wakeup (decode-ahead).  [false]
    once nothing more will be read: end of input, or an unterminated
    frame past {!Frame.max_frame_bytes}, which is answered [bad_request]
    and closes the connection. *)
let service_input t conn =
  match Inbuf.read conn.inbuf conn.fd (handle_frame t conn) with
  | Inbuf.Open -> true
  | Inbuf.Eof -> false
  | Inbuf.Overlong ->
      send_error conn ~id:Json.Null
        (Protocol.Wire_error.make ~code:"bad_request" Frame.too_long);
      close_conn t conn;
      false

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

(** Roll back a prepared transaction abandoned by its coordinator, so
    shutdown never persists tentative state. *)
let abort_abandoned t =
  match t.prepared with
  | None -> ()
  | Some p ->
      t.prepared <- None;
      Engine.rollback_prepared p

let flush_snapshot t =
  abort_abandoned t;
  match t.config.save_on_shutdown with
  | None -> ()
  | Some path -> Persist.save_file (Troll.Session.community t.session) path

let all_flushed t =
  List.for_all (fun c -> not (Outbuf.need_write c.out)) t.conns

(** Flush every connection once (all frames appended this turn leave in
    one write each), then apply backpressure policy: a backlog past the
    high-water mark pauses reading, one drained to the low-water mark
    resumes it, a dead buffer (write error) closes the connection, and a
    half-closed connection that has fully drained is reaped. *)
let flush_and_police t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if c.alive then begin
        Outbuf.flush c.out;
        if not (Outbuf.alive c.out) then close_conn t c
        else begin
          let backlog = Outbuf.pending c.out in
          if c.paused_since = 0. then begin
            if backlog >= t.config.out_high_water then begin
              c.paused_since <- now;
              t.stats.pauses <- t.stats.pauses + 1
            end
          end
          else if backlog <= t.config.out_low_water then begin
            c.paused_since <- 0.;
            t.stats.resumes <- t.stats.resumes + 1
          end;
          if
            c.owned
            && (not c.reading)
            && Queue.is_empty c.inq
            && backlog = 0
            && not c.ship
          then close_conn t c
        end
      end)
    t.conns;
  t.conns <- List.filter (fun c -> c.alive) t.conns

(** Evict connections that have sat at their high-water pause for the
    whole eviction window: the peer is not draining, and an unbounded
    backlog (or a read stopped forever) must not outlive it. *)
let evict_overdue t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if
        c.alive && c.paused_since > 0.
        && now -. c.paused_since >= t.config.evict_after
      then begin
        t.stats.evictions <- t.stats.evictions + 1;
        close_conn t c
      end)
    t.conns;
  t.conns <- List.filter (fun c -> c.alive) t.conns

let make_conn ~owned ~fd ~out_fd =
  {
    fd;
    out_fd;
    out = Outbuf.create out_fd;
    inbuf = Inbuf.create ();
    inq = Queue.create ();
    alive = true;
    owned;
    reading = true;
    paused_since = 0.;
    ship = false;
  }

(** One select-poll-and-execute turn; [listener] accepts new
    connections while not draining.  [input_open] is false once the
    (stdio) input saw EOF. *)
let serve_loop t ~listener =
  let input_open = ref true in
  let rec loop () =
    evict_overdue t;
    let now = Unix.gettimeofday () in
    let done_ =
      (t.draining && t.queued = 0
      && (all_flushed t || now >= t.drain_deadline))
      || (listener = None && (not !input_open) && t.queued = 0
         && all_flushed t)
    in
    if not done_ then begin
      let read_fds =
        (match listener with Some l when not t.draining -> [ l ] | _ -> [])
        @ List.filter_map
            (fun c ->
              if c.alive && c.reading && c.paused_since = 0. then Some c.fd
              else None)
            t.conns
      in
      let write_fds =
        List.filter_map
          (fun c -> if Outbuf.need_write c.out then Some c.out_fd else None)
          t.conns
      in
      let timeout = if t.queued > 0 then 0. else 0.1 in
      (match Unix.select read_fds write_fds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, writable, _ ->
          (* drain writable backlogs first: room opens up before this
             turn's work appends more *)
          List.iter
            (fun fd ->
              match List.find_opt (fun c -> c.out_fd = fd) t.conns with
              | Some c when c.alive -> Outbuf.flush c.out
              | _ -> ())
            writable;
          List.iter
            (fun fd ->
              if Some fd = listener then begin
                match Unix.accept fd with
                | exception Unix.Unix_error (_, _, _) -> ()
                | cfd, _ ->
                    t.conns <-
                      make_conn ~owned:true ~fd:cfd ~out_fd:cfd :: t.conns
              end
              else
                match List.find_opt (fun c -> c.fd = fd) t.conns with
                | None -> ()
                | Some conn ->
                    if not (service_input t conn) then begin
                      (* end of input: in stdio mode the loop drains and
                         exits; a socket connection half-closes — its
                         admitted jobs still execute and the answers
                         still flush before the reaper closes it *)
                      conn.reading <- false;
                      if listener = None then input_open := false
                    end)
            ready);
      run_jobs t (gather_jobs t);
      (* group fsync at the turn boundary: everything committed by the
         jobs of this turn becomes durable in one fsync (a no-op when
         nothing was appended, or under the per-batch fsync policy) *)
      Option.iter Wal.sync t.wal;
      (* push the records made durable by that fsync to subscribed
         connections, as one unsolicited frame per turn *)
      if not (Queue.is_empty t.ship_queue) then begin
        let records = List.of_seq (Queue.to_seq t.ship_queue) in
        Queue.clear t.ship_queue;
        let frame = Protocol.wal_frame records in
        List.iter (fun c -> if c.ship && c.alive then send c frame) t.conns
      end;
      flush_and_police t;
      loop ()
    end
  in
  loop ()

let serve_fds t in_fd out_fd =
  (try Unix.set_nonblock in_fd with Unix.Unix_error _ -> ());
  t.conns <- make_conn ~owned:false ~fd:in_fd ~out_fd :: t.conns;
  serve_loop t ~listener:None;
  shutdown_pool t;
  Option.iter Wal.detach t.wal;
  flush_snapshot t

let listen_unix t ~path =
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let on_signal _ = stop t in
  let previous =
    List.filter_map
      (fun s ->
        try Some (s, Sys.signal s (Sys.Signal_handle on_signal))
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigint; Sys.sigterm ]
  in
  serve_loop t ~listener:(Some listener);
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  List.iter (fun (s, behaviour) -> Sys.set_signal s behaviour) previous;
  shutdown_pool t;
  Option.iter Wal.detach t.wal;
  flush_snapshot t
