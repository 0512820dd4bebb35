(** Society-interface routing over the wire protocol — see the
    interface for the model.  One single-threaded {!Conn} loop fronts N
    shard servers: plain steps are forwarded asynchronously (several
    shards commit — and fsync — concurrently), cross-shard steps run
    {!Shard.two_phase} synchronously over link participants, and every
    shipped WAL record is mirrored so a dead shard can be respawned and
    caught up. *)

(* what a connection of the router's loop is *)
type peer = Client | Link of link

(* what the router is waiting for under one internal request id *)
and pending =
  | P_client of peer Conn.t * Json.t
      (** a forwarded client request: relay the reply under the
          client's original id *)
  | P_sync of Json.t option ref
      (** a router-internal call: park the reply frame in the cell
          ([Null] = the link died first) *)

and link = {
  lk_id : int;
  lk_path : string;
  mutable lk_conn : peer Conn.t option;  (** [None] while the shard is down *)
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
  conns : peer Conn.set;  (** the clients and the connected links *)
  mutable draining : bool;
  mutable next_id : int;
  stats : counters;
}

let shard_unavailable k =
  Protocol.Wire_error.of_reason (Runtime_error.Shard_unavailable k)

(** The link's connection closed: fail everything in flight.  Recovery
    is the main loop's business. *)
let link_closed stats link =
  link.lk_conn <- None;
  Hashtbl.iter
    (fun _ p ->
      match p with
      | P_client (c, id) ->
          stats.failed <- stats.failed + 1;
          Conn.send_error c ~id (shard_unavailable link.lk_id)
      | P_sync cell -> cell := Some Json.Null)
    link.lk_inflight;
  Hashtbl.reset link.lk_inflight

let create ~community ~map ~paths ?respawn () =
  let n = Shard.shards map in
  if Array.length paths <> n then
    invalid_arg "Router.create: one socket path per shard";
  let links =
    Array.init n (fun k ->
        {
          lk_id = k;
          lk_path = paths.(k);
          lk_conn = None;
          lk_inflight = Hashtbl.create 16;
          lk_base = "";
          lk_base_seq = 0;
          lk_records = [];
          lk_nrecords = 0;
        })
  in
  let stats = { forwarded = 0; cross = 0; recoveries = 0; failed = 0 } in
  (* a half-closed client is reaped once no shard still owes it a reply *)
  let owes c l =
    Seq.exists
      (function P_client (c', _) -> c' == c | P_sync _ -> false)
      (Hashtbl.to_seq_values l.lk_inflight)
  in
  {
    community;
    map;
    links;
    respawn;
    conns =
      Conn.create
        ~fresh:(fun () -> Client)
        ~idle:(fun c -> not (Array.exists (owes c) links))
        ~on_close:(fun c ->
          match Conn.data c with Client -> () | Link l -> link_closed stats l)
        ();
    draining = false;
    next_id = 0;
    stats;
  }

let stop t = t.draining <- true

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

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

let link_down link = Option.iter Conn.close link.lk_conn

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

(* a shard link's frame: a reply, or an unsolicited WAL shipment *)
let link_frame conn j =
  match Conn.data conn with
  | Client -> ()
  | Link link -> (
      match Json.to_string_opt (Json.member "id" j) with
      | Some iid when Hashtbl.mem link.lk_inflight iid -> (
          let p = Hashtbl.find link.lk_inflight iid in
          Hashtbl.remove link.lk_inflight iid;
          match p with
          | P_client (c, id) -> Conn.send c (with_id id j)
          | P_sync cell -> cell := Some j)
      | _ -> mirror_records link j)

(** Send a request on a link and register a parked-reply cell for it.
    [None] when the link is down. *)
let send_op t link fields : (link * Json.t option ref) option =
  match link.lk_conn with
  | None -> None
  | Some c ->
      let iid = fresh_id t in
      let cell = ref None in
      Hashtbl.replace link.lk_inflight iid (P_sync cell);
      Conn.send c (with_id (Json.String iid) fields);
      Some (link, cell)

let sync_timeout = 60.

(** Turn the involved links until every cell is filled, a link dies,
    or the [deadline] (default: the timeout from now) passes.  Replies
    to *other* requests arriving on those links are dispatched normally
    on the way. *)
let await_cells ?(deadline = Unix.gettimeofday () +. sync_timeout) t cells =
  let rec loop () =
    let waiting =
      List.filter_map
        (fun (l, c) -> if !c = None then l.lk_conn else None)
        cells
    in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      Conn.turn ~only:waiting t.conns ~accept:false ~timeout:0.1 link_frame;
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
        link_down link;
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

let shutdown_fields = Json.Obj [ ("op", Json.String "shutdown") ]
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
          Unix.sleepf 0.05;
          attempt (i + 1)
        end
  in
  match attempt 0 with
  | Error _ as e -> e
  | Ok fd -> (
      link.lk_conn <- Some (Conn.add t.conns ~upstream:true fd (Link link));
      match rpc t link hello_fields with
      | Error e ->
          link_down link;
          Error
            (Printf.sprintf "shard %d handshake failed: %s" link.lk_id
               e.Protocol.Wire_error.message)
      | Ok result -> (
          match Json.to_int_opt (Json.member "version" result) with
          | Some v when v = Protocol.version -> Ok ()
          | _ ->
              link_down link;
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
        | Error _ -> link_down link)
  end

let mirror_compact_after = 1024

let maybe_compact t link =
  if
    link.lk_conn <> None
    && Hashtbl.length link.lk_inflight = 0
    && link.lk_nrecords > mirror_compact_after
  then ignore (refresh_mirror t link)

(* ------------------------------------------------------------------ *)
(* Client requests                                                     *)
(* ------------------------------------------------------------------ *)

let forward t link client ~id doc =
  match link.lk_conn with
  | None -> Conn.send_error client ~id (shard_unavailable link.lk_id)
  | Some c ->
      let iid = fresh_id t in
      Hashtbl.replace link.lk_inflight iid (P_client (client, id));
      Conn.send c (with_id (Json.String iid) doc);
      t.stats.forwarded <- t.stats.forwarded + 1

(** A shard link as a {!Shard.two_phase} participant: each phase sends
    its frame at once and waits on the link only when its answer is
    asked for, so the prepares of one step overlap. *)
let link_participant t link : Protocol.Wire_error.t Shard.participant =
  let call fields =
    match send_op t link fields with
    | None -> fun () -> Error (shard_unavailable link.lk_id)
    | Some ((_, cell) as sent) ->
        (* due [sync_timeout] after the send, however late it is
           awaited: one silent shard does not extend the others' wait *)
        let deadline = Unix.gettimeofday () +. sync_timeout in
        fun () ->
          await_cells ~deadline t [ sent ];
          cell_result link cell
  in
  let op name = Json.Obj [ ("op", Json.String name) ] in
  {
    Shard.prepare =
      (fun sub ->
        let wait =
          call
            (Json.Obj
               [
                 ("op", Json.String "prepare");
                 ("step", Protocol.request_of_step ~id:Json.Null sub);
               ])
        in
        fun () ->
          Result.bind (wait ()) (fun r ->
              Result.map_error
                (fun m -> Protocol.Wire_error.make ~code:"bad_frame" m)
                (Protocol.outcome_of_json r)));
    commit =
      (fun () ->
        let wait = call (op "commit") in
        fun () -> Result.map ignore (wait ()));
    abort =
      (fun () ->
        let wait = call (op "abort") in
        fun () -> ignore (wait ()));
  }

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
                      ("connected", Json.Bool (l.lk_conn <> None));
                      ("inflight", Json.Int (Hashtbl.length l.lk_inflight));
                      ("mirrored_records", Json.Int l.lk_nrecords);
                    ])
                t.links)) );
      ("pipeline", Json.Obj (Conn.pipeline_rows t.conns));
    ]

let handle_client_doc t client doc =
  let env = Protocol.decode doc in
  let id = env.Protocol.req_id in
  let reply_ok body = Conn.send client (Protocol.ok_frame ~id body) in
  let reply_err e = Conn.send_error client ~id e in
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
      | Ok [ (k, sub) ] ->
          forward t t.links.(k) client ~id
            (Protocol.request_of_step ~id:Json.Null sub)
      | Ok subs -> (
          t.stats.cross <- t.stats.cross + 1;
          match
            Shard.two_phase
              ~rank:(fun (e : Protocol.Wire_error.t) ->
                Runtime_error.code_rank e.Protocol.Wire_error.code)
              (Array.map (link_participant t) t.links)
              subs
          with
          | Ok outcome -> reply_ok (Protocol.outcome_to_json outcome)
          | Error e ->
              t.stats.failed <- t.stats.failed + 1;
              reply_err e))
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
            List.filter_map
              (fun r -> Json.to_string_opt (Json.member "state" r))
              results
          in
          if List.compare_lengths dumps results <> 0 then
            reply_err
              (Protocol.Wire_error.make ~code:"bad_frame"
                 "shard save reply without \"state\"")
          else begin
            (* shard dumps are disjoint by construction: merge them
               into the facade community *)
            match Persist.merge t.community dumps with
            | Error m ->
                reply_err
                  (Protocol.Wire_error.make ~code:"restore_error"
                     (Printf.sprintf "shard state merge failed: %s" m))
            | Ok () -> (
                match path with
                | None ->
                    reply_ok
                      (Json.Obj
                         [ ("state", Json.String (Persist.save t.community)) ])
                | Some p -> (
                    match Server.save_file t.community p with
                    | Ok body -> reply_ok body
                    | Error e -> reply_err e))
          end))
  | Ok Protocol.Snapshot -> (
      match scatter t (Json.Obj [ ("op", Json.String "snapshot") ]) with
      | Error e -> reply_err e
      | Ok results -> reply_ok (Json.Obj [ ("shards", Json.List results) ]))
  | Ok Protocol.Stats -> reply_ok (stats_json t)
  | Ok Protocol.Shutdown ->
      t.draining <- true;
      await_cells t
        (Array.to_list t.links
        |> List.filter_map (fun l -> send_op t l shutdown_fields));
      reply_ok (Json.Obj [ ("draining", Json.Bool true) ])

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

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
      let inflight () =
        Array.exists (fun l -> Hashtbl.length l.lk_inflight > 0) t.links
      in
      let on_frame c doc =
        match Conn.data c with
        | Client -> handle_client_doc t c doc
        | Link _ -> link_frame c doc
      in
      let rec loop () =
        if not (t.draining && not (inflight ())) then begin
          if not t.draining then
            Array.iter
              (fun l ->
                if l.lk_conn = None then recover t l else maybe_compact t l)
              t.links;
          Conn.turn t.conns ~accept:(not t.draining) ~timeout:0.1 on_frame;
          Conn.police t.conns;
          loop ()
        end
      in
      Conn.listen_unix t.conns ~path
        ~stop:(fun () -> stop t)
        (fun () ->
          loop ();
          (* best effort: ask still-running shards to drain too (a no-op
             when shutdown came in over the wire and was already
             relayed) *)
          await_cells t
            (Array.to_list t.links
            |> List.filter_map (fun l -> send_op t l shutdown_fields)));
      Ok ()
