(* serve-mixed: the daemon as users run it, `trollc serve --socket …
   --jobs 1` on examples/specs/cells.trl, driven over its Unix socket by
   this process
   through 2 connections in a closed loop, each keeping 16 requests in
   flight.  During set-up each connection creates its own 64 CELLs;
   connections own disjoint cells, so every response is independent of
   how the daemon interleaves them.  The seeded steady mix (percent):
   50 accepted `fire add(1)`, 10 `add` refused by `{ Total + n >= 0 }`,
   15 `attr`, 15 `enabled`, 10 `candidates`.

   Why: this is the user-facing path.  The JSON / protocol codec, the
   select loop's queues and coalescing, Outbuf and the probe path do
   most of the work while the engine step is trivial.  Writes interleave
   with probes, so every probe run takes a fresh View.freeze and thaw;
   when the workload was sized the probes took ~70% of daemon time
   (31k req/s with them, 108k with attr reads in their place).

   Most work: Json, Frame, Protocol, Server, Outbuf, View, the probe
   half of Engine.  Little or none: Interface, Refinement, Certificate,
   Validator, Wal; the step path sees only one-slot CELL steps.

   Kept out, each measured on a 2-core box with 3-5 runs per
   configuration, because it would not hold still:
   - a forked router with 2 shards: 19.2-26.5k req/s, p99 3.2-6.5 ms
     (run-to-run timing spread 3.6-6.9%, against 1.3% single-daemon);
   - the WAL on an ext4 disk: p99 4.6-9.3 ms, against 2.25-2.46 ms on
     tmpfs.  The benchmark may write only inside its checkout, which is
     not RAM-backed, and the daemon fsyncs its WAL at every turn that
     committed, so `--wal` stays off here: with it, 1-second windows of
     one run ranged 17.6-29.2k req/s and whole runs 18.4-23.4k; without
     it 27.5-30.3k.  The WAL is measured (and recovered) in
     animate-company, which appends without a per-operation fsync;
   - a 2-domain pool (--jobs 2): p99 4.4-6.7 ms against ~2.0 ms, and
     certified refinement 2x slower;
   - a 1,024-cell society under this mix: 4.0k req/s, with the probe
     path doing nearly all the work;
   - the daemon and this client free to run on both processors: whole
     runs swung between ~30k and ~41k req/s (ten-seed spread 24%, p50
     27%) with identical batch sizes, so run.py pins the benchmark and
     the daemon it starts to one processor (five-seed spread 6%).
   Sharded and parallel arms wait for a harness that can hold them
   steady; load comes from one client process with at most nproc
   connections. *)

open Common

let n_conns = 2
let depth = 16
let cells_per_conn = 64
let warmup_per_conn = 4000
let socket = "serve.sock"

(* ------------------------------------------------------------------ *)
(* The seeded request stream of one connection                         *)
(* ------------------------------------------------------------------ *)

type kind = Create | Add | Refused_add | Attr | Enabled | Candidates

type gen = {
  conn : int;
  rng : Random.State.t;
  totals : int array;  (** shadow of each own cell's Total *)
  targets : string array;  (** the "cls"/"key" fields of each own cell *)
  mutable k : int;  (** requests generated *)
}

(* a connection's cells spread over the spec's 8 identical classes *)
let cell_class conn i = Printf.sprintf "CELL%d" (((conn * cells_per_conn) + i) mod 8)
let cell_key conn i = Printf.sprintf "c%dx%02d" conn i

let new_gen seed conn =
  {
    conn;
    rng = Random.State.make [| seed; 0x53; conn |];
    totals = Array.make cells_per_conn 0;
    targets =
      Array.init cells_per_conn (fun i ->
          Printf.sprintf {|"cls":"%s","key":"%s"|} (cell_class conn i) (cell_key conn i));
    k = 0;
  }

let id_of conn k = (conn * 1_000_000_000) + k + 1

(** The next request line of the stream, and what kind it is.  The first
    [cells_per_conn] requests create the connection's cells. *)
let next g =
  let k = g.k in
  g.k <- k + 1;
  let id = id_of g.conn k in
  if k < cells_per_conn then
    (Printf.sprintf {|{"id":%d,"op":"create",%s}|} id g.targets.(k), Create)
  else
    let i = Random.State.int g.rng cells_per_conn in
    let t = g.targets.(i) in
    match Random.State.int g.rng 100 with
    | r when r < 50 ->
        g.totals.(i) <- g.totals.(i) + 1;
        (Printf.sprintf {|{"id":%d,"op":"fire",%s,"event":"add","args":[1]}|} id t, Add)
    | r when r < 60 ->
        let n = -(g.totals.(i) + 1 + Random.State.int g.rng 8) in
        (Printf.sprintf {|{"id":%d,"op":"fire",%s,"event":"add","args":[%d]}|} id t n, Refused_add)
    | r when r < 75 ->
        (Printf.sprintf {|{"id":%d,"op":"attr",%s,"attr":"Total"}|} id t, Attr)
    | r when r < 90 -> (Printf.sprintf {|{"id":%d,"op":"enabled",%s}|} id t, Enabled)
    | _ -> (Printf.sprintf {|{"id":%d,"op":"candidates",%s}|} id t, Candidates)

(* ------------------------------------------------------------------ *)
(* The closed-loop client                                              *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  g : gen;
  mutable acked : int;
  send_ns : int array;  (** ring of send times, by request index *)
  rbuf : Buffer.t;  (** control responses *)
  wbuf : Buffer.t;
  responses : Buffer.t;
      (** the response stream as received: kept whole (not line by line)
          so the client adds no per-response garbage for its GC *)
  mutable line_start : int;  (** offset of the next unread line *)
}

let ring = 64

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(** Top the connection up to [depth] requests in flight, sending no
    request with index [limit] or beyond. *)
let refill c ~limit =
  Buffer.clear c.wbuf;
  while c.g.k - c.acked < depth && c.g.k < limit do
    let index = c.g.k in
    let line, _ = next c.g in
    c.send_ns.(index mod ring) <- now_ns ();
    Buffer.add_string c.wbuf line;
    Buffer.add_char c.wbuf '\n'
  done;
  if Buffer.length c.wbuf > 0 then write_all c.fd (Buffer.contents c.wbuf)

(* the id is the first field of every response frame *)
let response_id b ~from ~upto =
  let prefix = {|{"id":|} in
  let p = String.length prefix in
  let rec matches i = i = p || (from + i < upto && Buffer.nth b (from + i) = prefix.[i] && matches (i + 1)) in
  if not (matches 0) then -1
  else
    let rec digits i acc =
      if i < upto && Buffer.nth b i >= '0' && Buffer.nth b i <= '9' then
        digits (i + 1) ((acc * 10) + Char.code (Buffer.nth b i) - 48)
      else acc
    in
    digits (from + p) 0

let chunk = Bytes.create 65536

(** Read what the daemon sent, check FIFO order and record latencies. *)
let receive ledger meter c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> die "the daemon closed a connection"
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | n ->
      let base = Buffer.length c.responses in
      Buffer.add_subbytes c.responses chunk 0 n;
      let rec lines i =
        match Bytes.index_from_opt chunk i '\n' with
        | Some j when j < n ->
            let t1 = now_ns () in
            let want = id_of c.g.conn c.acked in
            let got = response_id c.responses ~from:c.line_start ~upto:(base + j) in
            if got <> want then
              mismatch ledger "connection %d: expected response id %d, got %d" c.g.conn want
                got;
            Option.iter
              (fun m -> Meter.record m ~lat_ns:(t1 - c.send_ns.(c.acked mod ring)) ~t1)
              meter;
            c.acked <- c.acked + 1;
            c.line_start <- base + j + 1;
            lines (j + 1)
        | _ -> ()
      in
      lines 0

(** Drive every connection in a closed loop until it has sent and been
    answered up to request index [limit], or, with [deadline], until the
    deadline passes (then drain what is in flight). *)
let drive ledger ?meter ?deadline conns ~limit =
  let stopped () = match deadline with Some d -> now_ns () >= d | None -> false in
  List.iter (fun c -> refill c ~limit) conns;
  let busy c = c.acked < c.g.k in
  let rec loop () =
    match List.filter busy conns with
    | [] -> ()
    | live ->
        let readable, _, _ =
          Unix.select (List.map (fun c -> c.fd) live) [] [] 10.0
        in
        if readable = [] then die "the daemon stopped answering";
        List.iter
          (fun c ->
            if List.memq c.fd readable then begin
              receive ledger meter c;
              if not (stopped ()) then refill c ~limit
            end)
          live;
        loop ()
  in
  loop ()

(** One blocking request/response on an idle connection (control
    traffic after the stream: stats, save, shutdown). *)
let rpc c body =
  write_all c.fd (body ^ "\n");
  let rec wait () =
    let data = Buffer.contents c.rbuf in
    match String.index_opt data '\n' with
    | Some nl ->
        Buffer.clear c.rbuf;
        Buffer.add_substring c.rbuf data (nl + 1) (String.length data - nl - 1);
        String.sub data 0 nl
    | None -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> die "the daemon closed the control connection"
        | n ->
            Buffer.add_subbytes c.rbuf chunk 0 n;
            wait ())
  in
  match Json.of_string (wait ()) with
  | Ok j when Json.member "ok" j = Json.Bool true -> Json.member "result" j
  | Ok j -> die "control request %s failed: %s" body (Json.to_string j)
  | Error e -> die "unparseable control response: %s" e

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; conns : conn list; mutable exited : bool }

let trollc ctx = Filename.concat ctx.root "_build/default/bin/trollc.exe"

let connect () =
  let deadline = now_ns () + 20_000_000_000 in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if now_ns () > deadline then die "cannot connect to the daemon";
        Unix.sleepf 0.005;
        attempt ()
  in
  attempt ()

let reap d =
  if not d.exited then begin
    d.exited <- true;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
    let deadline = now_ns () + 10_000_000_000 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now_ns () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid);
          false
      | _, Unix.WEXITED 0 -> true
      | _ -> false
    in
    wait ()
  end
  else true

let kill d =
  if not d.exited then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap d)
  end

(** Start the daemon, connect, create every connection's cells and run
    the warm-up prefix of the stream. *)
let start ctx ledger =
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let exe = trollc ctx in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; socket; "--jobs"; "1";
        spec_path ctx "cells.trl";
      |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = ref { pid; conns = []; exited = false } in
  try
    let conns =
      List.init n_conns (fun c ->
          {
            fd = connect ();
            g = new_gen ctx.seed c;
            acked = 0;
            send_ns = Array.make ring 0;
            rbuf = Buffer.create 4096;
            wbuf = Buffer.create 4096;
            responses = Buffer.create (1 lsl 24);
            line_start = 0;
          })
    in
    d := { !d with conns };
    if List.length conns > ctx.cores then
      mismatch ledger "the client opened %d connections on %d cores" (List.length conns)
        ctx.cores;
    drive ledger conns ~limit:cells_per_conn;
    drive ledger conns ~limit:(cells_per_conn + warmup_per_conn);
    !d
  with e ->
    kill !d;
    raise e

let stop d =
  let c = List.hd d.conns in
  ignore (rpc c {|{"id":0,"op":"shutdown"}|});
  reap d

(* ------------------------------------------------------------------ *)
(* Checks: a sequential in-process replay through Server.execute       *)
(* ------------------------------------------------------------------ *)

let frame_of ~id = function
  | Ok body -> Json.to_string (Protocol.ok_frame ~id body)
  | Error e -> Json.to_string (Protocol.error_frame ~id e)

let decode line =
  match Json.of_string line with
  | Error e -> die "generated an unparseable request %S: %s" line e
  | Ok doc -> (
      let env = Protocol.decode doc in
      match env.Protocol.request with
      | Ok req -> (env.Protocol.req_id, req)
      | Error e -> die "generated a bad request %S: %s" line e)

let saved_state result =
  match Json.to_string_opt (Json.member "state" result) with
  | Some s -> s
  | None -> die "save returned no state"

(** Replay every connection's stream, in order, through Server.execute
    on a fresh session; every daemon response must equal the replay's
    for the same id, and predicted refusals must be refusals.  Returns
    the replay's final dump. *)
let check_replay ctx ledger d src =
  let server = Server.create (load_session src) in
  let planted = ref ctx.plant in
  List.iter
    (fun c ->
      let g = new_gen ctx.seed c.g.conn in
      let received = Buffer.contents c.responses in
      let pos = ref 0 in
      for _ = 1 to c.acked do
        let line, kind = next g in
        let id, req = decode line in
        let result = Server.execute server req in
        let want = frame_of ~id result in
        let want = if !planted then (planted := false; want ^ " ") else want in
        ledger.attempted <- ledger.attempted + 1;
        let stop = String.index_from received !pos '\n' in
        let got = String.sub received !pos (stop - !pos) in
        pos := stop + 1;
        if not (String.equal got want) then
          mismatch ledger "request %s: daemon answered %s, replay %s" line got want;
        match (kind, result) with
        | Refused_add, Error e when e.Protocol.Wire_error.code = "permission_denied" ->
            ledger.refused <- ledger.refused + 1
        | Refused_add, _ -> mismatch ledger "request %s: expected a refusal" line
        | _, Error e -> mismatch ledger "request %s: unexpected %s" line e.Protocol.Wire_error.code
        | _ -> ()
      done)
    d.conns;
  match Server.execute server (Protocol.Save None) with
  | Ok r -> saved_state r
  | Error e -> die "replay save failed: %s" e.Protocol.Wire_error.code

(* ------------------------------------------------------------------ *)
(* Traced replay: the functions the daemon calls, in its turn order    *)
(* ------------------------------------------------------------------ *)

(** Every request line the daemon executed, in the order of its turns:
    one request per connection per cycle, [depth] per connection per
    turn (what the loop sees with this client's pipelining). *)
let turn_order ctx d =
  let streams =
    List.map
      (fun c ->
        let g = new_gen ctx.seed c.g.conn in
        Array.init c.acked (fun _ -> fst (next g)))
      d.conns
  in
  let out = ref [] in
  let pos = Array.make n_conns 0 in
  let remaining () = List.exists2 (fun s p -> p < Array.length s) streams (Array.to_list pos) in
  while remaining () do
    for _ = 1 to depth do
      List.iteri
        (fun i s ->
          if pos.(i) < Array.length s then begin
            out := s.(pos.(i)) :: !out;
            pos.(i) <- pos.(i) + 1
          end)
        streams
    done;
    out := "" :: !out (* turn boundary *)
  done;
  Array.of_list (List.rev !out)

let enabled_result names =
  Json.Obj [ ("events", Json.List (List.map (fun n -> Json.String n) names)) ]

let candidates_result cands =
  Json.Obj
    [
      ( "candidates",
        Json.List
          (List.map
             (fun (name, params, en) ->
               Json.Obj
                 ([
                    ("event", Json.String name);
                    ("params", Json.List (List.map (fun t -> Json.String (Vtype.to_string t)) params));
                  ]
                 @ match en with None -> [] | Some b -> [ ("enabled", Json.Bool b) ]))
             cands) );
    ]

(** One replay pass over [order]; returns (requests, seconds) and leaves
    the counters and spans of the pass behind. *)
let replay_pass src order =
  let session = load_session src in
  let community = Troll.Session.community session in
  let pool = Pool.create ~jobs:1 in
  let out = Buffer.create 65536 in
  let view = ref None in
  let current_view () =
    match !view with
    | Some v when View.valid v -> v
    | _ ->
        let v = Tracer.span Layers.s_view_freeze (fun () -> View.freeze community) in
        view := Some v;
        v
  in
  let encode id result =
    Tracer.span Layers.s_protocol_encode (fun () ->
        Frame.add_line out
          (match result with
          | Ok body -> Protocol.ok_frame ~id body
          | Error e -> Protocol.error_frame ~id e))
  in
  let probe_run jobs =
    let v = current_view () in
    let c0 = Tracer.span Layers.s_view_thaw (fun () -> View.thaw_cached v) in
    let evs = ref [] and n = ref 0 in
    let push ev =
      evs := ev :: !evs;
      incr n;
      !n - 1
    in
    let plans =
      List.map
        (fun (id, req) ->
          match req with
          | Protocol.Enabled target -> (
              match Community.living c0 target with
              | None -> (id, `Enabled ([||], [||]))
              | Some o ->
                  let descs = Engine.nullary_descriptors c0 o.Obj_state.template in
                  (id, `Enabled (descs, Array.map (fun ed -> push (Event.make target ed.Template.ed_name [])) descs)))
          | Protocol.Candidates target ->
              let tpl = Community.template_exn c0 target.Ident.cls in
              let cands = Engine.candidate_descriptors c0 tpl in
              let alive = Option.is_some (Community.living c0 target) in
              ( id,
                `Cands
                  ( cands,
                    Array.map
                      (fun (name, params) ->
                        if alive && params = [] then Some (push (Event.make target name [])) else None)
                      cands ) )
          | _ -> die "non-probe request in a probe run")
        jobs
    in
    let ok =
      Tracer.span Layers.s_enabled_batch (fun () ->
          Engine.enabled_batch_par ~pool v (Array.of_list (List.rev !evs)))
    in
    List.iter
      (fun (id, plan) ->
        match plan with
        | `Enabled (descs, offs) ->
            let names = ref [] in
            for i = Array.length descs - 1 downto 0 do
              if ok.(offs.(i)) then names := descs.(i).Template.ed_name :: !names
            done;
            encode id (Ok (enabled_result !names))
        | `Cands (cands, slots) ->
            encode id
              (Ok
                 (candidates_result
                    (List.init (Array.length cands) (fun i ->
                         let name, params = cands.(i) in
                         (name, params, Option.map (fun k -> ok.(k)) slots.(i)))))))
      plans
  in
  let execute (id, req) =
    match req with
    | Protocol.Step step ->
        Tracer.enter ();
        let r = Troll.step session step in
        Tracer.leave (match r with Ok _ -> Layers.s_step_accepted | Error _ -> Layers.s_step_rejected);
        encode id
          (match r with
          | Ok o -> Ok (Protocol.outcome_to_json o)
          | Error reason -> Error (Protocol.Wire_error.of_reason reason))
    | Protocol.Attr { target; attr } ->
        let r = Tracer.span Layers.s_session_attr (fun () -> Troll.Session.attr session target attr) in
        encode id
          (match r with
          | Ok v -> Ok (Json.Obj [ ("value", Protocol.value_to_json v) ])
          | Error e -> Error (Protocol.Wire_error.of_error e))
    | _ -> die "unexpected request in the stream"
  in
  let is_probe (_, r) = match r with Protocol.Enabled _ | Protocol.Candidates _ -> true | _ -> false in
  let rec run = function
    | [] -> ()
    | job :: _ as l when is_probe job ->
        let rec span acc = function
          | j :: rest when is_probe j -> span (j :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let batch, rest = span [] l in
        probe_run batch;
        run rest
    | job :: rest ->
        execute job;
        run rest
  in
  let t0 = now_ns () in
  let turn = ref [] and requests = ref 0 in
  Array.iter
    (fun line ->
      if line = "" then begin
        run (List.rev !turn);
        turn := [];
        Buffer.clear out
      end
      else begin
        incr requests;
        Tracer.set_op !requests;
        let job =
          Tracer.span Layers.s_op (fun () ->
              let doc =
                match Tracer.span Layers.s_json_decode (fun () -> Json.of_string line) with
                | Ok doc -> doc
                | Error e -> die "replay: %s" e
              in
              let env = Tracer.span Layers.s_protocol_decode (fun () -> Protocol.decode doc) in
              match env.Protocol.request with
              | Ok req -> (env.Protocol.req_id, req)
              | Error e -> die "replay: %s" e)
        in
        turn := job :: !turn
      end)
    order;
  let secs = float_of_int (now_ns () - t0) *. 1e-9 in
  Pool.shutdown pool;
  (* txn.probe_us: Txn.probe around one Engine.step of add(1) per cell *)
  if !Tracer.on then
    for _ = 1 to 10 do
      for conn = 0 to n_conns - 1 do
        for i = 0 to cells_per_conn - 1 do
          let ev =
            Event.make
              (Ident.make (cell_class conn i) (Value.String (cell_key conn i)))
              "add" [ Value.Int 1 ]
          in
          Tracer.span Layers.s_txn_probe (fun () ->
              ignore (Txn.probe community (fun () -> Engine.step community (Step.Fire ev))))
        done
      done
    done;
  (!requests, secs)

(* ------------------------------------------------------------------ *)
(* The daemon's own counters                                           *)
(* ------------------------------------------------------------------ *)

let stat doc path =
  let v = List.fold_left (fun j k -> Json.member k j) doc path in
  match v with
  | Json.Int n -> n
  | Json.Float f -> int_of_float f
  | _ -> die "stats field %s missing" (String.concat "." path)

(** Per-layer metrics the daemon reports: residence time per op kind,
    batching and flush ratios, and the counter ratios over the timed
    phase (the difference of two stats frames). *)
let daemon_metrics ~rtt_p50 s0 s1 =
  let d path = stat s1 path - stat s0 path in
  let requests = d [ "server"; "executed" ] in
  let residence op =
    let count = stat s1 [ "latency_us"; op; "count" ] in
    let mean = float_of_int (stat s1 [ "latency_us"; op; "mean_us" ]) in
    (count, mean)
  in
  let ops = [ "fire"; "attr"; "enabled"; "candidates" ] in
  let per_op = List.map (fun op -> (op, residence op)) ops in
  let total = List.fold_left (fun a (_, (n, _)) -> a + n) 0 per_op in
  let mean_residence =
    List.fold_left (fun a (_, (n, m)) -> a +. (float_of_int n *. m)) 0. per_op
    /. float_of_int (max 1 total)
  in
  let committed = d [ "txn"; "transactions committed" ] in
  let hits = d [ "dispatch"; "dispatch hits" ] in
  let fallbacks = d [ "dispatch"; "interpreted fallbacks" ] in
  let probe_requests = d [ "probe"; "requests" ] in
  let flushes = d [ "pipeline"; "out_flushes" ] in
  List.map
    (fun (op, (n, mean)) -> metric ~samples:n ("server.residence_us_mean." ^ op) "us" mean)
    per_op
  @ [
      metric ~samples:requests "server.transport_us_p50" "us" (rtt_p50 -. mean_residence);
      metric ~samples:(d [ "pipeline"; "step_batches" ]) "server.jobs_per_step_batch" "count"
        (ratio (d [ "pipeline"; "step_batch_members" ]) (d [ "pipeline"; "step_batches" ]));
      metric ~samples:(d [ "probe"; "batches" ]) "server.probe_requests_per_batch" "count"
        (ratio probe_requests (d [ "probe"; "batches" ]));
      metric ~samples:flushes "outbuf.bytes_per_flush" "B"
        (ratio (d [ "pipeline"; "out_bytes" ]) flushes);
      metric ~samples:requests "outbuf.flushes_per_request" "count" (ratio flushes requests);
      metric ~samples:probe_requests "view.views_per_probe_request" "count"
        (ratio (d [ "probe"; "views taken" ]) probe_requests);
      metric ~samples:requests "pool.parallel_dispatches" "count"
        (float_of_int (stat s1 [ "probe"; "parallel dispatches" ]));
      metric ~samples:committed "txn.journal_entries_per_commit" "count"
        (ratio (d [ "txn"; "journal entries" ]) committed);
      metric ~samples:committed "txn.bytes_snapshotted_per_commit" "B"
        (ratio (d [ "txn"; "bytes snapshotted" ]) committed);
      metric ~samples:requests "txn.probes_per_check" "count"
        (ratio (d [ "txn"; "probes" ]) requests);
      metric ~samples:requests "txn.savepoint_rollbacks_per_check" "count"
        (ratio (d [ "txn"; "savepoint rollbacks" ]) requests);
      metric ~samples:(hits + fallbacks) "dispatch.hit_ratio" "ratio" (ratio hits (hits + fallbacks));
      metric ~samples:hits "dispatch.monitor_fast_step_ratio" "ratio"
        (ratio (d [ "dispatch"; "monitor fast steps" ]) hits);
    ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let timed_phase ledger d ~seconds =
  let c0 = List.hd d.conns in
  let s0 = rpc c0 {|{"id":0,"op":"stats"}|} in
  let meter = Meter.create ~seconds in
  let deadline = meter.Meter.t_start + int_of_float (seconds *. 1e9) in
  drive ledger ~meter ~deadline d.conns ~limit:max_int;
  let s1 = rpc c0 {|{"id":0,"op":"stats"}|} in
  let rss = peak_rss_mb (string_of_int d.pid) in
  (meter, s0, s1, rss)

(** Stop the daemon and run every output check on its run. *)
let check_run ctx ledger d ~src ~final =
  let state = saved_state (rpc (List.hd d.conns) {|{"id":0,"op":"save"}|}) in
  expect ledger
    (stat final [ "probe"; "parallel dispatches" ] = 0)
    "the daemon dispatched probes to parallel domains";
  if not (stop d) then mismatch ledger "the daemon did not shut down cleanly";
  let expected = check_replay ctx ledger d src in
  expect ledger (String.equal state expected)
    "the daemon's final save differs from the sequential replay"

let run ctx =
  let ledger = ledger () in
  let src = read_file (spec_path ctx "cells.trl") in
  let setup () = start ctx ledger in
  let dispose d =
    if not (stop d) then mismatch ledger "the daemon did not shut down cleanly"
  in
  if not ctx.trace then begin
    let d, setup_s = repeated_setup ~setup ~dispose in
    Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
    let meter, _, s1, rss = timed_phase ledger d ~seconds:ctx.seconds in
    check_run ctx ledger d ~src ~final:s1;
    let metrics, rates = end_to_end meter ~setup_s ~rss in
    {
      ledger;
      metrics;
      facts = [ ("connections", Json.Int n_conns); ("depth", Json.Int depth); rates ];
    }
  end
  else begin
    (* traced: the daemon's stats over a timed phase, then spans from
       replaying the same stream in-process — a traced pass, an untraced
       pass for the overhead, and a second traced pass for exactness *)
    let d = setup () in
    let meter, s0, s1, _ =
      Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
      let r = timed_phase ledger d ~seconds:(ctx.seconds /. 2.) in
      let _, _, s1, _ = r in
      check_run ctx ledger d ~src ~final:s1;
      r
    in
    let rtt_p50, _ = Meter.latency meter 0.5 in
    let order = turn_order ctx d in
    let pass ~traced =
      Gc.compact ();
      reset_counters ();
      Tracer.reset ();
      if traced then Tracer.start () else Tracer.stop ();
      let c0 = read_counters () in
      let n, secs = replay_pass src order in
      let c1 = read_counters () in
      Tracer.stop ();
      (n, secs, Layers.counter_metrics ~ops:n c0 c1)
    in
    let _, secs_a, counts_a = pass ~traced:true in
    let _, secs_u, _ = pass ~traced:false in
    let n, secs_b, counts_b = pass ~traced:true in
    expect ledger (parallel_dispatches () = 0) "the replay dispatched to parallel domains";
    let spans = Layers.span_metrics () in
    let load_ms =
      let t0 = now_ns () in
      ignore (load_session src);
      float_of_int (now_ns () - t0) /. 1e6
    in
    let exact, report = Layers.exact_repeat counts_a counts_b in
    (* the daemon's own counters where it reports them, the replay's
       (its GC figures) elsewhere *)
    let daemon = daemon_metrics ~rtt_p50 s0 s1 in
    let in_daemon m = List.exists (fun d -> d.name = m.name) daemon in
    {
      ledger;
      metrics =
        daemon
        @ List.filter (fun m -> not (in_daemon m)) counts_b
        @ spans
        @ [
            metric ~samples:1 "compile.load_ms" "ms" load_ms;
            metric ~samples:n "trace.throughput_rps" "1/s" (float_of_int n /. secs_b);
            metric ~samples:n "trace.overhead_pct" "%"
              (100. *. ((((secs_a +. secs_b) /. 2.) /. secs_u) -. 1.));
            metric ~samples:5 "repeat.exact_counts" "count" (float_of_int exact);
          ];
      facts =
        [
          ("connections", Json.Int n_conns);
          ("depth", Json.Int depth);
          ("daemon_throughput_rps", Json.Float (Meter.throughput meter));
          ("exact_repeat", report);
          ("exact_repeat_basis", Json.String "two traced in-process replays of the daemon's stream");
        ];
    }
  end
