(* E20: many-connection pipelined throughput of `trollc serve`.
 *
 * Forks a fresh server child per arm, connects CONNS Unix-socket
 * sessions and drives a deterministic mixed probe/step workload over
 * every connection at a fixed pipeline depth (requests in flight per
 * connection), for depths 1, 8 and 64.  Every connection works on its
 * own CELL counters (the independent-classes spec behind E17), so the
 * final community state is independent of interleaving; each arm's
 * final `save` dump must be bit-identical to a sequential in-process
 * replay of the same requests, and every connection's responses must
 * come back FIFO.  The binary fails unless the deepest arm beats
 * depth 1 on requests per second.  Results go to BENCH_E20.json with
 * provenance fields.
 *
 * Usage: serve_many_bench [-c CONNS] [-n PER_CONN] [-d D1,D2,..]
 *                         [-o BENCH_E20.json]
 *)

let default_spec = "examples/specs/cells.trl"
let default_out = "BENCH_E20.json"

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* ---------------------------------------------------------------- *)
(* The per-connection script                                         *)
(* ---------------------------------------------------------------- *)

let n_cells = 4

(* Spread each connection's cells over the spec's 8 structurally
   identical CELL classes; every key is connection-unique, so the
   connections touch disjoint objects. *)
let cell_cls c i = Printf.sprintf "CELL%d" ((c + i) mod 8)
let cell_key c i = Printf.sprintf "c%03dx%d" c i

(* Every request in the script must succeed, so a response is checked
   with nothing but its FIFO position and its [ok] flag.  The script
   comes in two phases with a client-side barrier between them — all
   objects exist before any event fires, so the final dump cannot
   depend on how the arms interleave connections. *)
let script_for ~steady c : string array * string array =
  let lines = ref [] in
  let next_id = ref 0 in
  let add fmt =
    incr next_id;
    Printf.ksprintf (fun body ->
        lines := Printf.sprintf {|{"id":%d,%s}|} !next_id body :: !lines)
      fmt
  in
  for i = 0 to n_cells - 1 do
    add {|"op":"create","cls":"%s","key":"%s"|} (cell_cls c i) (cell_key c i)
  done;
  let setup = Array.of_list (List.rev !lines) in
  lines := [];
  for k = 0 to steady - 1 do
    let i = k mod n_cells in
    match k mod 4 with
    | 0 | 1 ->
        add {|"op":"fire","cls":"%s","key":"%s","event":"add","args":[1]|}
          (cell_cls c i) (cell_key c i)
    | 2 -> add {|"op":"attr","cls":"%s","key":"%s","attr":"Total"|}
             (cell_cls c i) (cell_key c i)
    | _ -> add {|"op":"ping"|}
  done;
  (setup, Array.of_list (List.rev !lines))

(* ---------------------------------------------------------------- *)
(* Sequential in-process reference                                   *)
(* ---------------------------------------------------------------- *)

let load_session spec =
  match Troll.Session.load_file spec with
  | Ok s -> s
  | Error e -> fail "cannot load %s: %s" spec (Troll.Error.to_string e)

let reference_state spec scripts =
  let server = Server.create (load_session spec) in
  let execute line =
    let doc =
      match Json.of_string line with
      | Ok j -> j
      | Error e -> fail "reference: unparseable request %S: %s" line e
    in
    let env = Protocol.decode doc in
    match env.Protocol.request with
    | Error e -> fail "reference: bad request %S: %s" line e
    | Ok req -> (
        match Server.execute server req with
        | Ok _ -> ()
        | Error we ->
            fail "reference: %S rejected: %s" line we.Protocol.Wire_error.code)
  in
  Array.iter (fun (setup, _) -> Array.iter execute setup) scripts;
  Array.iter (fun (_, steady) -> Array.iter execute steady) scripts;
  match Server.execute server (Protocol.Save None) with
  | Ok result -> (
      match Json.to_string_opt (Json.member "state" result) with
      | Some s -> s
      | None -> fail "reference: save returned no state")
  | Error we -> fail "reference save failed: %s" we.Protocol.Wire_error.code

(* ---------------------------------------------------------------- *)
(* The pipelined multi-connection client                             *)
(* ---------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable script : string array;  (** the phase being driven *)
  mutable next : int;  (** next script index to send *)
  mutable id_base : int;  (** ids already consumed by earlier phases *)
  inflight : (int * float) Queue.t;  (** (expected id, send time) FIFO *)
  rbuf : Buffer.t;
  mutable wpend : string;  (** partially written bytes *)
  mutable woff : int;
  mutable answered : int;
}

let start_phase c script =
  c.id_base <- c.id_base + Array.length c.script;
  c.script <- script;
  c.next <- 0

let conn_done c =
  c.next >= Array.length c.script
  && Queue.is_empty c.inflight
  && c.wpend = ""

(* Stage up to the depth window, then write what the kernel takes. *)
let pump_writes depth c =
  if c.wpend = "" then begin
    let buf = Buffer.create 256 in
    while
      c.next < Array.length c.script && Queue.length c.inflight < depth
    do
      Buffer.add_string buf c.script.(c.next);
      Buffer.add_char buf '\n';
      Queue.push (c.id_base + c.next + 1, Unix.gettimeofday ()) c.inflight;
      c.next <- c.next + 1
    done;
    c.wpend <- Buffer.contents buf;
    c.woff <- 0
  end;
  if c.wpend <> "" then begin
    (match
       Unix.write_substring c.fd c.wpend c.woff (String.length c.wpend - c.woff)
     with
    | n -> c.woff <- c.woff + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if c.woff >= String.length c.wpend then begin
      c.wpend <- "";
      c.woff <- 0
    end
  end

let consume_lines rtts c =
  let data = Buffer.contents c.rbuf in
  let n = String.length data in
  let pos = ref 0 in
  (try
     while true do
       let nl = String.index_from data !pos '\n' in
       let line = String.sub data !pos (nl - !pos) in
       pos := nl + 1;
       let resp =
         match Json.of_string line with
         | Ok j -> j
         | Error e -> fail "unparseable response %S: %s" line e
       in
       let expected_id, t0 =
         match Queue.take_opt c.inflight with
         | Some x -> x
         | None -> fail "unsolicited response %s" line
       in
       if Json.member "id" resp <> Json.Int expected_id then
         fail "responses left FIFO order: expected id %d, got %s" expected_id
           line;
       if Json.member "ok" resp <> Json.Bool true then
         fail "request %d failed: %s" expected_id line;
       rtts := (Unix.gettimeofday () -. t0) :: !rtts;
       c.answered <- c.answered + 1
     done
   with Not_found -> ());
  Buffer.clear c.rbuf;
  Buffer.add_substring c.rbuf data !pos (n - !pos)

(* Drive every connection's current phase to completion — this is the
   barrier between the setup and steady phases. *)
let drive_phase ~depth rtts conns =
  let chunk = Bytes.create 65536 in
  List.iter (pump_writes depth) conns;
  let live () = List.filter (fun c -> not (conn_done c)) conns in
  let rec loop remaining =
    match remaining with
    | [] -> ()
    | _ ->
        let rd =
          List.filter_map
            (fun c ->
              if Queue.is_empty c.inflight then None else Some c.fd)
            remaining
        and wr =
          List.filter_map
            (fun c ->
              if
                c.wpend <> ""
                || (c.next < Array.length c.script
                   && Queue.length c.inflight < depth)
              then Some c.fd
              else None)
            remaining
        in
        let rds, wrs, _ = Unix.select rd wr [] 10.0 in
        if rds = [] && wrs = [] then fail "client stalled: server unresponsive";
        List.iter
          (fun c ->
            if List.memq c.fd wrs then pump_writes depth c;
            if List.memq c.fd rds then begin
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> fail "server closed a connection mid-run"
              | n ->
                  Buffer.add_subbytes c.rbuf chunk 0 n;
                  consume_lines rtts c
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            end)
          remaining;
        loop (live ())
  in
  loop (live ())

(* ---------------------------------------------------------------- *)
(* One arm: fresh server, CONNS pipelined sessions, final save       *)
(* ---------------------------------------------------------------- *)

let connect_retry path =
  let rec attempt i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if i > 500 then fail "cannot connect to the bench server";
        ignore (Unix.select [] [] [] 0.01);
        attempt (i + 1)
  in
  attempt 0

let run_arm ~spec ~depth scripts =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "troll-serve-many-%d-%d.sock" (Unix.getpid ()) depth)
  in
  (match Unix.fork () with
  | 0 ->
      let config =
        { Server.default_config with Server.queue_capacity = 1 lsl 16 }
      in
      let server = Server.create ~config (load_session spec) in
      Server.listen_unix server ~path:socket_path;
      exit 0
  | _pid -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
  do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Sys.file_exists socket_path) then fail "server never bound socket";

  let conns =
    Array.to_list
      (Array.map
         (fun (setup, _) ->
           let fd = connect_retry socket_path in
           Unix.set_nonblock fd;
           {
             fd;
             script = setup;
             next = 0;
             id_base = 0;
             inflight = Queue.create ();
             rbuf = Buffer.create 4096;
             wpend = "";
             woff = 0;
             answered = 0;
           })
         scripts)
  in
  let t_start = Unix.gettimeofday () in
  let rtts = ref [] in
  drive_phase ~depth rtts conns;
  List.iteri
    (fun i c ->
      let _, steady = scripts.(i) in
      start_phase c steady)
    conns;
  drive_phase ~depth rtts conns;
  let rtts = !rtts in
  let wall_s = Unix.gettimeofday () -. t_start in
  List.iter (fun c -> Unix.close c.fd) conns;

  (* final state through a fresh control connection, then shutdown *)
  let ctl = connect_retry socket_path in
  let ic = Unix.in_channel_of_descr ctl
  and oc = Unix.out_channel_of_descr ctl in
  let rpc obj =
    output_string oc (Frame.to_line obj);
    flush oc;
    match input_line ic with
    | exception End_of_file -> fail "control connection lost"
    | line -> (
        match Json.of_string line with
        | Ok j -> j
        | Error e -> fail "unparseable control response %S: %s" line e)
  in
  let save =
    rpc (Json.Obj [ ("id", Json.Int 1); ("op", Json.String "save") ])
  in
  let state =
    match
      Json.to_string_opt (Json.member "state" (Json.member "result" save))
    with
    | Some s -> s
    | None -> fail "final save failed: %s" (Json.to_string save)
  in
  ignore (rpc (Json.Obj [ ("id", Json.Int 2); ("op", Json.String "shutdown") ]));
  close_out_noerr oc;
  ignore (Unix.wait ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());

  let total = List.fold_left (fun a c -> a + c.answered) 0 conns in
  (total, wall_s, rtts, state)

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)
(* ---------------------------------------------------------------- *)

let () =
  let conns = ref 200 in
  let steady = ref 40 in
  let depths = ref [ 1; 8; 64 ] in
  let out_path = ref default_out in
  let spec = ref default_spec in
  let rec parse = function
    | [] -> ()
    | "-c" :: n :: rest -> conns := int_of_string n; parse rest
    | "-n" :: n :: rest -> steady := int_of_string n; parse rest
    | "-d" :: ds :: rest ->
        depths := List.map int_of_string (String.split_on_char ',' ds);
        parse rest
    | "-o" :: p :: rest -> out_path := p; parse rest
    | s :: rest -> spec := s; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !depths = [] then fail "-d needs at least one depth";

  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());

  let scripts = Array.init !conns (script_for ~steady:!steady) in
  let expected = reference_state !spec scripts in

  let arms =
    List.map
      (fun depth ->
        let total, wall_s, rtts, state = run_arm ~spec:!spec ~depth scripts in
        if not (String.equal state expected) then begin
          let dump name s =
            let path =
              Filename.concat (Filename.get_temp_dir_name ())
                (Printf.sprintf "troll-e20-%s.dump" name)
            in
            let oc = open_out path in
            output_string oc s;
            close_out oc;
            path
          in
          fail "depth %d: final state differs from the sequential replay \
                (expected %s, got %s)"
            depth (dump "expected" expected) (dump "actual" state)
        end;
        let rtts = Array.of_list rtts in
        Array.sort compare rtts;
        let n = Array.length rtts in
        if n <> total then fail "depth %d: lost %d responses" depth (total - n);
        let us x = x *. 1e6 in
        let pct p =
          us rtts.(min (n - 1) (int_of_float (float_of_int n *. p)))
        in
        let mean = us (Array.fold_left ( +. ) 0. rtts /. float_of_int n) in
        let req_per_s = float_of_int total /. wall_s in
        Printf.printf
          "E20 depth %3d: %d requests over %d connections in %.3f s (%.0f \
           req/s); rtt p50 %.0f us, p99 %.0f us; state: bit-identical\n%!"
          depth total !conns wall_s req_per_s (pct 0.50) (pct 0.99);
        ( depth,
          Json.Obj
            [
              ("depth", Json.Int depth);
              ("requests", Json.Int total);
              ("wall_s", Json.Float wall_s);
              ("req_per_s", Json.Float (Float.round req_per_s));
              ( "rtt_us",
                Json.Obj
                  [
                    ("mean", Json.Float (Float.round mean));
                    ("p50", Json.Float (Float.round (pct 0.50)));
                    ("p99", Json.Float (Float.round (pct 0.99)));
                    ("max", Json.Float (Float.round (us rtts.(n - 1))));
                  ] );
            ],
          req_per_s ))
      !depths
  in

  let rate d =
    List.find_map (fun (d', _, r) -> if d = d' then Some r else None) arms
  in
  let shallow = List.hd !depths
  and deep = List.nth !depths (List.length !depths - 1) in
  (match (rate shallow, rate deep) with
  | Some r1, Some rn when List.length !depths > 1 ->
      Printf.printf "E20: depth %d vs depth %d speedup %.2fx\n%!" deep shallow
        (rn /. r1);
      if rn <= r1 then
        fail "pipelining regression: depth %d (%.0f req/s) not faster than \
              depth %d (%.0f req/s)" deep rn shallow r1
  | _ -> ());

  let doc =
    Json.Obj
      ([
        ("experiment", Json.String "E20");
        ( "description",
          Json.String
            "many-connection pipelined throughput: concurrent Unix-socket \
             sessions drive a mixed probe/step workload against trollc \
             serve at fixed pipeline depths; per-connection FIFO and a \
             final state bit-identical to a sequential replay are \
             enforced" );
      ]
      @ Workload.provenance ()
      @ [
        ("spec", Json.String !spec);
        ("connections", Json.Int !conns);
        ( "requests_per_connection",
          Json.Int
            (let setup, steady = scripts.(0) in
             Array.length setup + Array.length steady) );
        ("arms", Json.List (List.map (fun (_, j, _) -> j) arms));
        ("state_check", Json.String "bit-identical");
      ])
  in
  let oc = open_out !out_path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !out_path
