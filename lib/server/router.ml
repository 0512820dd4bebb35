(** Society-interface routing over the wire protocol — see the
    interface for the model.  One single-threaded [select] loop fronts
    N shard servers: plain steps are forwarded asynchronously (several
    shards commit — and fsync — concurrently), cross-shard steps run
    the two-phase protocol synchronously, and every shipped WAL record
    is mirrored so a dead shard can be respawned and caught up. *)

type client = {
  cl_fd : Unix.file_descr;
  cl_in : Inbuf.t;
  cl_out : Outbuf.t;
  mutable cl_alive : bool;
}

(* what the router is waiting for under one internal request id *)
type pending =
  | P_client of client * Json.t
      (** a forwarded client request: relay the reply under the
          client's original id *)
  | P_sync of Json.t option ref
      (** a router-internal call: park the reply frame in the cell
          ([Null] = the link died first) *)

type link = {
  lk_id : int;
  lk_path : string;
  mutable lk_fd : Unix.file_descr option;
  mutable lk_out : Outbuf.t option;  (** paired with [lk_fd] *)
  lk_in : Inbuf.t;
  lk_inflight : (string, pending) Hashtbl.t;
  (* WAL mirror: a base dump plus every record shipped since, enough
     to rebuild the shard from nothing *)
  mutable lk_base : string;
  mutable lk_base_seq : int;
  mutable lk_records : (int * string) list;  (** newest first *)
  mutable lk_nrecords : int;
}

type counters = {
  mutable forwarded : int;
  mutable cross : int;
  mutable recoveries : int;
  mutable failed : int;
}

type t = {
  community : Community.t;
  map : Shard.map;
  links : link array;
  respawn : (int -> unit) option;
  mutable draining : bool;
  mutable clients : client list;
  mutable next_id : int;
  stats : counters;
}

let create ~community ~map ~paths ?respawn () =
  let n = Shard.shards map in
  if Array.length paths <> n then
    invalid_arg "Router.create: one socket path per shard";
  {
    community;
    map;
    links =
      Array.init n (fun k ->
          {
            lk_id = k;
            lk_path = paths.(k);
            lk_fd = None;
            lk_out = None;
            lk_in = Inbuf.create ();
            lk_inflight = Hashtbl.create 16;
            lk_base = "";
            lk_base_seq = 0;
            lk_records = [];
            lk_nrecords = 0;
          });
    respawn;
    draining = false;
    clients = [];
    next_id = 0;
    stats = { forwarded = 0; cross = 0; recoveries = 0; failed = 0 };
  }

let stop t = t.draining <- true

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

(* frames append to nonblocking output buffers and flush
   opportunistically; leftovers drain via the loop's write select, so a
   stalled peer never blocks routing for everyone else *)
let send_client c frame =
  if c.cl_alive then begin
    Outbuf.add_frame c.cl_out frame;
    Outbuf.flush c.cl_out;
    if not (Outbuf.alive c.cl_out) then c.cl_alive <- false
  end

let error_to_client c ~id err =
  send_client c (Protocol.error_frame ~id err)

let shard_unavailable k =
  Protocol.Wire_error.of_reason (Runtime_error.Shard_unavailable k)

let fresh_id t =
  t.next_id <- t.next_id + 1;
  Printf.sprintf "r%d" t.next_id

(** Replace (or add) the ["id"] member of a request document. *)
let with_id id = function
  | Json.Obj fields -> Json.Obj (("id", id) :: List.remove_assoc "id" fields)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Shard links                                                         *)
(* ------------------------------------------------------------------ *)

(** The link's peer is gone: fail everything in flight.  Recovery is
    the main loop's business. *)
let link_down t link =
  (match link.lk_fd with
  | None -> ()
  | Some fd ->
      link.lk_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ()));
  Option.iter Outbuf.kill link.lk_out;
  link.lk_out <- None;
  Inbuf.clear link.lk_in;
  Hashtbl.iter
    (fun _ p ->
      match p with
      | P_client (c, id) ->
          t.stats.failed <- t.stats.failed + 1;
          error_to_client c ~id (shard_unavailable link.lk_id)
      | P_sync cell -> cell := Some Json.Null)
    link.lk_inflight;
  Hashtbl.reset link.lk_inflight

(** An unsolicited [{"wal": …}] shipment: extend the mirror, dropping
    records the base dump already contains. *)
let mirror_records link j =
  match Json.member "wal" j with
  | Json.List items ->
      List.iter
        (fun item ->
          match
            ( Json.to_int_opt (Json.member "seq" item),
              Json.to_string_opt (Json.member "payload" item) )
          with
          | Some seq, Some payload when seq > link.lk_base_seq ->
              link.lk_records <- (seq, payload) :: link.lk_records;
              link.lk_nrecords <- link.lk_nrecords + 1
          | _ -> ())
        items
  | _ -> ()

let handle_shard_frame link j =
  match Json.to_string_opt (Json.member "id" j) with
  | Some iid when Hashtbl.mem link.lk_inflight iid -> (
      let p = Hashtbl.find link.lk_inflight iid in
      Hashtbl.remove link.lk_inflight iid;
      match p with
      | P_client (c, id) -> send_client c (with_id id j)
      | P_sync cell -> cell := Some j)
  | _ -> mirror_records link j

let service_link t link =
  match link.lk_fd with
  | None -> ()
  | Some fd -> (
      match
        Inbuf.read link.lk_in fd (function
          | Frame.Frame doc -> handle_shard_frame link doc
          | Frame.Malformed _ | Frame.Eof -> ())
      with
      | Inbuf.Eof -> link_down t link
      | Inbuf.Open | Inbuf.Overlong -> ())

(** Append one frame to a link's output buffer and flush what the
    socket accepts; [Error] (with the link torn down) when the link is
    or just went dead. *)
let link_write t link doc : (unit, unit) result =
  match link.lk_out with
  | None -> Error ()
  | Some out ->
      Outbuf.add_frame out doc;
      Outbuf.flush out;
      if Outbuf.alive out then Ok ()
      else begin
        link_down t link;
        Error ()
      end

(** Send a request on a link and register a parked-reply cell for it.
    [None] when the link is (or just went) down. *)
let send_op t link fields : (link * Json.t option ref) option =
  match link.lk_fd with
  | None -> None
  | Some _ -> (
      let iid = fresh_id t in
      let cell = ref None in
      Hashtbl.replace link.lk_inflight iid (P_sync cell);
      match link_write t link (with_id (Json.String iid) fields) with
      | Ok () -> Some (link, cell)
      | Error () ->
          (* link_down already failed and cleared the inflight table *)
          None)

let sync_timeout = 60.

(** Service the involved links until every cell is filled, a link
    dies, or the timeout passes.  Replies to *other* requests arriving
    on those links are dispatched normally on the way. *)
let await_cells t cells =
  let deadline = Unix.gettimeofday () +. sync_timeout in
  let rec loop () =
    let waiting =
      List.filter (fun (l, c) -> !c = None && l.lk_fd <> None) cells
    in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      let fds = List.filter_map (fun (l, _) -> l.lk_fd) waiting in
      let wfds =
        List.filter_map
          (fun (l, _) ->
            match (l.lk_fd, l.lk_out) with
            | Some fd, Some out when Outbuf.need_write out -> Some fd
            | _ -> None)
          waiting
      in
      (match Unix.select fds wfds [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, writable, _ ->
          List.iter
            (fun (l, _) ->
              match (l.lk_fd, l.lk_out) with
              | Some fd, Some out when List.mem fd writable ->
                  Outbuf.flush out;
                  if not (Outbuf.alive out) then link_down t l
              | _ -> ())
            waiting;
          List.iter
            (fun (l, _) ->
              match l.lk_fd with
              | Some fd when List.mem fd ready -> service_link t l
              | _ -> ())
            waiting);
      loop ()
    end
  in
  loop ()

(** Interpret a parked reply frame as the usual result. *)
let cell_result link cell : (Json.t, Protocol.Wire_error.t) result =
  match !cell with
  | None | Some Json.Null -> Error (shard_unavailable link.lk_id)
  | Some j -> (
      match Json.member "ok" j with
      | Json.Bool true -> Ok (Json.member "result" j)
      | _ -> (
          match Protocol.Wire_error.of_json (Json.member "error" j) with
          | Ok e -> Error e
          | Error m -> Error (Protocol.Wire_error.make ~code:"bad_frame" m)))

(** Synchronous call on one link. *)
let rpc t link fields : (Json.t, Protocol.Wire_error.t) result =
  match send_op t link fields with
  | None -> Error (shard_unavailable link.lk_id)
  | Some ((_, cell) as sent) ->
      await_cells t [ sent ];
      if !cell = None then begin
        (* timed out: the reply id stays registered and would confuse a
           later request — drop the link instead *)
        link_down t link;
        Error
          (Protocol.Wire_error.make ~code:"deadline_expired"
             (Printf.sprintf "shard %d did not answer within %.0fs"
                link.lk_id sync_timeout))
      end
      else cell_result link cell

(** Same request to every link; first error wins, results come back in
    shard order. *)
let scatter t fields : (Json.t list, Protocol.Wire_error.t) result =
  let sent = Array.map (fun l -> (l, send_op t l fields)) t.links in
  let cells =
    Array.to_list sent |> List.filter_map (fun (_, s) -> s)
  in
  await_cells t cells;
  Array.fold_left
    (fun acc (l, s) ->
      match acc with
      | Error _ -> acc
      | Ok results -> (
          match s with
          | None -> Error (shard_unavailable l.lk_id)
          | Some (_, cell) -> (
              match cell_result l cell with
              | Ok r -> Ok (results @ [ r ])
              | Error e -> Error e)))
    (Ok []) sent

(* ------------------------------------------------------------------ *)
(* Connect, mirror, recover                                            *)
(* ------------------------------------------------------------------ *)

let hello_fields =
  Json.Obj
    [
      ("op", Json.String "hello");
      ("version", Json.Int Protocol.version);
      ("caps", Json.List [ Json.String "wal" ]);
    ]

let connect_attempts = 100 (* x 50 ms *)

let connect_link t link : (unit, string) result =
  let rec attempt i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX link.lk_path) with
    | () -> Ok fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if i >= connect_attempts then
          Error
            (Printf.sprintf "cannot connect to shard %d at %s" link.lk_id
               link.lk_path)
        else begin
          ignore (Unix.select [] [] [] 0.05);
          attempt (i + 1)
        end
  in
  match attempt 0 with
  | Error _ as e -> e
  | Ok fd -> (
      link.lk_fd <- Some fd;
      link.lk_out <- Some (Outbuf.create fd);
      Inbuf.clear link.lk_in;
      match rpc t link hello_fields with
      | Error e ->
          link_down t link;
          Error
            (Printf.sprintf "shard %d handshake failed: %s" link.lk_id
               e.Protocol.Wire_error.message)
      | Ok result -> (
          match Json.to_int_opt (Json.member "version" result) with
          | Some v when v = Protocol.version -> Ok ()
          | _ ->
              link_down t link;
              Error
                (Printf.sprintf "shard %d speaks another protocol version"
                   link.lk_id)))

(** Re-base the mirror on a fresh dump (initial connect, and
    compaction once the record tail grows long). *)
let refresh_mirror t link : (unit, Protocol.Wire_error.t) result =
  match rpc t link (Json.Obj [ ("op", Json.String "save") ]) with
  | Error e -> Error e
  | Ok result -> (
      match Json.to_string_opt (Json.member "state" result) with
      | None ->
          Error
            (Protocol.Wire_error.make ~code:"bad_frame"
               "shard save reply without \"state\"")
      | Some dump ->
          link.lk_base <- dump;
          link.lk_base_seq <-
            Option.value ~default:0
              (Json.to_int_opt (Json.member "wal_seq" result));
          link.lk_records <- [];
          link.lk_nrecords <- 0;
          Ok ())

let catchup_link t link : (unit, Protocol.Wire_error.t) result =
  let records = List.rev_map snd link.lk_records in
  match
    rpc t link
      (Json.Obj
         [
           ("op", Json.String "catchup");
           ("base", Json.String link.lk_base);
           ( "records",
             Json.List (List.map (fun r -> Json.String r) records) );
         ])
  with
  | Error e -> Error e
  | Ok _ -> Ok ()

(** Respawn (when a callback was given), reconnect and catch the shard
    up from the mirror.  A failure leaves the link down; the next loop
    turn tries again. *)
let recover t link =
  if not t.draining then begin
    t.stats.recoveries <- t.stats.recoveries + 1;
    (match t.respawn with Some f -> f link.lk_id | None -> ());
    match connect_link t link with
    | Error _ -> ()
    | Ok () -> (
        match catchup_link t link with
        | Ok () -> ()
        | Error _ -> link_down t link)
  end

let mirror_compact_after = 1024

let maybe_compact t link =
  if
    link.lk_fd <> None
    && Hashtbl.length link.lk_inflight = 0
    && link.lk_nrecords > mirror_compact_after
  then ignore (refresh_mirror t link)

(* ------------------------------------------------------------------ *)
(* Client requests                                                     *)
(* ------------------------------------------------------------------ *)

let forward t link client ~id doc =
  match link.lk_fd with
  | None -> error_to_client client ~id (shard_unavailable link.lk_id)
  | Some _ -> (
      let iid = fresh_id t in
      Hashtbl.replace link.lk_inflight iid (P_client (client, id));
      match link_write t link (with_id (Json.String iid) doc) with
      | Ok () -> t.stats.forwarded <- t.stats.forwarded + 1
      | Error () ->
          (* link_down already answered the parked client *)
          ())

let merge_outcomes results =
  let gather field =
    Json.List
      (List.concat_map (fun r -> Json.to_list (Json.member field r)) results)
  in
  Json.Obj
    [
      ("committed", gather "committed");
      ("created", gather "created");
      ("destroyed", gather "destroyed");
    ]

(** The two-phase protocol over prepared shard transactions.  Runs
    synchronously: prepares go out together (their work overlaps), and
    only when every involved shard voted yes are the open transactions
    committed.  Any refusal — or a shard dying mid-protocol — aborts
    every prepared transaction, restoring each shard bit-identically. *)
let coordinate t client ~id subs =
  t.stats.cross <- t.stats.cross + 1;
  let prepare_fields sub =
    Json.Obj
      [
        ("op", Json.String "prepare");
        ("step", Protocol.request_of_step ~id:Json.Null sub);
      ]
  in
  let sent =
    List.map
      (fun (k, sub) ->
        let link = t.links.(k) in
        (link, send_op t link (prepare_fields sub)))
      subs
  in
  await_cells t (List.filter_map snd sent);
  let votes =
    List.map
      (fun (link, s) ->
        match s with
        | None -> (link, false, Error (shard_unavailable link.lk_id))
        | Some (_, cell) -> (
            match cell_result link cell with
            | Ok r -> (link, true, Ok r)
            | Error e ->
                (* [txn_pending]/refusal means nothing was prepared
                   there; a dead link has no transaction left either *)
                (link, false, Error e)))
      sent
  in
  let all_yes = List.for_all (fun (_, yes, _) -> yes) votes in
  if not all_yes then begin
    (* phase 2: abort everything that did prepare *)
    let aborts =
      List.filter_map
        (fun (link, yes, _) ->
          if yes then send_op t link (Json.Obj [ ("op", Json.String "abort") ])
          else None)
        votes
    in
    await_cells t aborts;
    (* the same phase ranking {!Shard.coordinate} applies: the engine
       validates life cycles of the whole synchronous set before any
       permission, so when several sub-steps refuse independently the
       earliest-phase refusal must surface; ties keep shard order *)
    let rank (e : Protocol.Wire_error.t) =
      match e.Protocol.Wire_error.code with
      | "unknown_shard" | "shard_unavailable" -> 0
      | "unknown_class" | "unknown_object" | "unknown_event"
      | "unknown_attribute" | "already_alive" | "not_alive" | "not_birth" ->
          1
      | _ -> 2
    in
    let best_error =
      List.fold_left
        (fun acc (_, _, r) ->
          match (acc, r) with
          | None, Error e -> Some e
          | Some a, Error e when rank e < rank a -> Some e
          | _ -> acc)
        None votes
    in
    t.stats.failed <- t.stats.failed + 1;
    error_to_client client ~id
      (Option.value best_error
         ~default:
           (Protocol.Wire_error.make ~code:"internal" "prepare failed"))
  end
  else begin
    let commits =
      List.filter_map
        (fun (link, _, _) ->
          send_op t link (Json.Obj [ ("op", Json.String "commit") ]))
        votes
    in
    await_cells t commits;
    let commit_error =
      if List.length commits <> List.length votes then
        (* a participant died between its yes vote and the commit send *)
        List.find_map
          (fun (link, _, _) ->
            if link.lk_fd = None then Some (shard_unavailable link.lk_id)
            else None)
          votes
      else
        List.find_map
          (fun (link, cell) ->
            match cell_result link cell with
            | Ok _ -> None
            | Error e -> Some e)
          commits
    in
    match commit_error with
    | Some e ->
        (* in-doubt window: some shards committed before one failed;
           the survivors keep their state, the dead shard is caught up
           from its own last shipped record *)
        t.stats.failed <- t.stats.failed + 1;
        error_to_client client ~id e
    | None ->
        let outcomes =
          List.filter_map
            (fun (_, _, r) -> match r with Ok o -> Some o | Error _ -> None)
            votes
        in
        send_client client (Protocol.ok_frame ~id (merge_outcomes outcomes))
  end

let router_caps = [ "shards" ]

let unsupported what =
  Protocol.Wire_error.make ~code:"unsupported"
    (Printf.sprintf "%s is not available through the shard router" what)

let stats_json t =
  Json.Obj
    [
      ( "router",
        Json.Obj
          [
            ("shards", Json.Int (Array.length t.links));
            ("map", Json.String (Shard.to_string t.map));
            ("forwarded", Json.Int t.stats.forwarded);
            ("cross_shard", Json.Int t.stats.cross);
            ("recoveries", Json.Int t.stats.recoveries);
            ("failed", Json.Int t.stats.failed);
          ] );
      ( "shards",
        Json.List
          (Array.to_list
             (Array.map
                (fun l ->
                  Json.Obj
                    [
                      ("id", Json.Int l.lk_id);
                      ("path", Json.String l.lk_path);
                      ("connected", Json.Bool (l.lk_fd <> None));
                      ("inflight", Json.Int (Hashtbl.length l.lk_inflight));
                      ("mirrored_records", Json.Int l.lk_nrecords);
                    ])
                t.links)) );
    ]

let handle_client_doc t client doc =
  let env = Protocol.decode doc in
  let id = env.Protocol.req_id in
  let reply_ok body = send_client client (Protocol.ok_frame ~id body) in
  let reply_err e = error_to_client client ~id e in
  let links = Array.length t.links in
  let forward_owner target =
    match Shard.owner_ident t.map target with
    | Error r -> reply_err (Protocol.Wire_error.of_reason r)
    | Ok k -> forward t t.links.(k) client ~id doc
  in
  match env.Protocol.request with
  | Error msg ->
      reply_err (Protocol.Wire_error.make ~code:"bad_request" msg)
  | Ok Protocol.Ping -> reply_ok (Json.Obj [ ("pong", Json.Bool true) ])
  | Ok (Protocol.Hello { version; caps = _ }) ->
      if version <> Protocol.version then
        reply_err
          (Protocol.Wire_error.make ~code:"version_mismatch"
             (Printf.sprintf
                "router speaks protocol version %d, client offered %d"
                Protocol.version version))
      else
        reply_ok
          (Json.Obj
             [
               ("version", Json.Int Protocol.version);
               ( "caps",
                 Json.List (List.map (fun c -> Json.String c) router_caps) );
               ("shards", Json.Int links);
               ("map", Json.String (Shard.to_string t.map));
             ])
  | Ok (Protocol.Step step) -> (
      match Shard.split t.map step with
      | Error reason -> reply_err (Protocol.Wire_error.of_reason reason)
      | Ok subs
        when List.exists (fun (k, _) -> k < 0 || k >= links) subs ->
          let k, _ = List.find (fun (k, _) -> k < 0 || k >= links) subs in
          reply_err
            (Protocol.Wire_error.of_reason (Runtime_error.Unknown_shard k))
      | Ok [ (k, sub) ] ->
          forward t t.links.(k) client ~id
            (Protocol.request_of_step ~id:Json.Null sub)
      | Ok [] -> assert false (* split routes empty steps to shard 0 *)
      | Ok subs -> coordinate t client ~id subs)
  | Ok (Protocol.Attr { target; _ }) -> forward_owner target
  | Ok (Protocol.Enabled target) -> forward_owner target
  | Ok (Protocol.Candidates target) -> forward_owner target
  | Ok (Protocol.Extension _) -> (
      match scatter t doc with
      | Error e -> reply_err e
      | Ok results ->
          let members =
            List.concat_map
              (fun r -> Json.to_list (Json.member "members" r))
              results
          in
          reply_ok (Json.Obj [ ("members", Json.List members) ]))
  | Ok (Protocol.Steps _) -> reply_err (unsupported "steps")
  | Ok (Protocol.Eval _) -> reply_err (unsupported "eval")
  | Ok (Protocol.View _) -> reply_err (unsupported "view")
  | Ok (Protocol.Restore _) -> reply_err (unsupported "restore")
  | Ok (Protocol.Prepare _ | Protocol.Commit | Protocol.Abort
       | Protocol.Catchup _) ->
      reply_err
        (Protocol.Wire_error.make ~code:"bad_request"
           "coordination ops are only spoken router-to-shard")
  | Ok (Protocol.Save path) -> (
      match scatter t (Json.Obj [ ("op", Json.String "save") ]) with
      | Error e -> reply_err e
      | Ok results -> (
          let dumps =
            List.map
              (fun r -> Json.to_string_opt (Json.member "state" r))
              results
          in
          if List.exists Option.is_none dumps then
            reply_err
              (Protocol.Wire_error.make ~code:"bad_frame"
                 "shard save reply without \"state\"")
          else begin
            (* shard dumps are disjoint by construction: merge them in
               shard order into the facade community *)
            Community.reset_instance_state t.community;
            let rec merge = function
              | [] -> Ok ()
              | Some d :: rest -> (
                  match Persist.load ~reset:false t.community d with
                  | Ok () -> merge rest
                  | Error m -> Error m)
              | None :: _ -> assert false
            in
            match merge dumps with
            | Error m ->
                reply_err
                  (Protocol.Wire_error.make ~code:"restore_error"
                     (Printf.sprintf "shard state merge failed: %s" m))
            | Ok () -> (
                let dump = Persist.save t.community in
                match path with
                | None ->
                    reply_ok (Json.Obj [ ("state", Json.String dump) ])
                | Some p -> (
                    match
                      let oc = open_out_bin p in
                      output_string oc dump;
                      close_out oc
                    with
                    | () -> reply_ok (Json.Obj [ ("path", Json.String p) ])
                    | exception Sys_error m ->
                        reply_err
                          (Protocol.Wire_error.make ~code:"io_error" m)))
          end))
  | Ok Protocol.Snapshot -> (
      match scatter t (Json.Obj [ ("op", Json.String "snapshot") ]) with
      | Error e -> reply_err e
      | Ok results -> reply_ok (Json.Obj [ ("shards", Json.List results) ]))
  | Ok Protocol.Stats -> reply_ok (stats_json t)
  | Ok Protocol.Shutdown ->
      t.draining <- true;
      let cells =
        Array.to_list t.links
        |> List.filter_map (fun l ->
               send_op t l (Json.Obj [ ("op", Json.String "shutdown") ]))
      in
      await_cells t cells;
      reply_ok (Json.Obj [ ("draining", Json.Bool true) ])

(* a client's fd is closed when the loop reaps it, once it is no
   longer alive *)
let close_client c =
  c.cl_alive <- false;
  Outbuf.kill c.cl_out

let service_client t client =
  match
    Inbuf.read client.cl_in client.cl_fd (function
      | Frame.Frame doc -> handle_client_doc t client doc
      | Frame.Malformed _ | Frame.Eof -> ())
  with
  | Inbuf.Open -> ()
  | Inbuf.Eof -> client.cl_alive <- false
  | Inbuf.Overlong ->
      error_to_client client ~id:Json.Null
        (Protocol.Wire_error.make ~code:"bad_request" Frame.too_long);
      close_client client

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

(* a client that stopped draining its responses cannot be allowed to
   buffer without bound; past this it is dropped *)
let client_backlog_limit = 8 * 1024 * 1024

let reap_clients t =
  t.clients <-
    List.filter
      (fun c ->
        c.cl_alive
        ||
        (Outbuf.kill c.cl_out;
         (try Unix.close c.cl_fd with Unix.Unix_error _ -> ());
         false))
      t.clients

let listen_unix t ~path : (unit, string) result =
  (* bring every shard up before accepting anyone *)
  let initial =
    Array.fold_left
      (fun acc link ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match connect_link t link with
            | Error m -> Error m
            | Ok () -> (
                match refresh_mirror t link with
                | Ok () -> Ok ()
                | Error e ->
                    Error
                      (Printf.sprintf "shard %d mirror failed: %s" link.lk_id
                         e.Protocol.Wire_error.message))))
      (Ok ()) t.links
  in
  match initial with
  | Error _ as e -> e
  | Ok () ->
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
      let inflight () =
        Array.exists (fun l -> Hashtbl.length l.lk_inflight > 0) t.links
      in
      let rec loop () =
        if not (t.draining && not (inflight ())) then begin
          if not t.draining then
            Array.iter
              (fun l ->
                if l.lk_fd = None then recover t l else maybe_compact t l)
              t.links;
          List.iter
            (fun c ->
              if c.cl_alive then begin
                if not (Outbuf.alive c.cl_out) then c.cl_alive <- false
                else if Outbuf.pending c.cl_out > client_backlog_limit then
                  close_client c
              end)
            t.clients;
          reap_clients t;
          let read_fds =
            (if t.draining then [] else [ listener ])
            @ List.map (fun c -> c.cl_fd) t.clients
            @ List.filter_map (fun l -> l.lk_fd) (Array.to_list t.links)
          in
          let write_fds =
            List.filter_map
              (fun c ->
                if Outbuf.need_write c.cl_out then Some c.cl_fd else None)
              t.clients
            @ List.filter_map
                (fun l ->
                  match (l.lk_fd, l.lk_out) with
                  | Some fd, Some out when Outbuf.need_write out -> Some fd
                  | _ -> None)
                (Array.to_list t.links)
          in
          (match Unix.select read_fds write_fds [] 0.1 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, writable, _ ->
              List.iter
                (fun fd ->
                  match
                    Array.find_opt (fun l -> l.lk_fd = Some fd) t.links
                  with
                  | Some link ->
                      Option.iter Outbuf.flush link.lk_out;
                      if
                        not
                          (Option.fold ~none:false ~some:Outbuf.alive
                             link.lk_out)
                      then link_down t link
                  | None -> (
                      match
                        List.find_opt (fun c -> c.cl_fd = fd) t.clients
                      with
                      | Some client -> Outbuf.flush client.cl_out
                      | None -> ()))
                writable;
              List.iter
                (fun fd ->
                  if fd = listener then begin
                    match Unix.accept fd with
                    | exception Unix.Unix_error (_, _, _) -> ()
                    | cfd, _ ->
                        t.clients <-
                          {
                            cl_fd = cfd;
                            cl_in = Inbuf.create ();
                            cl_out = Outbuf.create cfd;
                            cl_alive = true;
                          }
                          :: t.clients
                  end
                  else
                    match
                      Array.find_opt (fun l -> l.lk_fd = Some fd) t.links
                    with
                    | Some link -> service_link t link
                    | None -> (
                        match
                          List.find_opt (fun c -> c.cl_fd = fd) t.clients
                        with
                        | Some client -> service_client t client
                        | None -> ()))
                ready);
          loop ()
        end
      in
      loop ();
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      List.iter close_client t.clients;
      reap_clients t;
      (* best effort: ask still-running shards to drain too (a no-op
         when shutdown came in over the wire and was already relayed) *)
      let cells =
        Array.to_list t.links
        |> List.filter_map (fun l ->
               send_op t l (Json.Obj [ ("op", Json.String "shutdown") ]))
      in
      await_cells t cells;
      Array.iter (fun l -> link_down t l) t.links;
      List.iter (fun (s, behaviour) -> Sys.set_signal s behaviour) previous;
      Ok ()
