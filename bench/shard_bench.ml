(* E17: sharded step throughput — does partitioning the society over N
 * shard processes scale fsync-bound step throughput?
 *
 * For each shard count the bench forks N shard servers (each owning a
 * slice of examples/specs/cells.trl's eight independent counter
 * classes, each with its own WAL under per-batch fsync) plus the
 * router, then drives a pipelined stream of single-shard steps with a
 * bounded window.  Every step costs one WAL fsync on its owning
 * shard; with N shards those fsyncs overlap across processes, so
 * steps/s should rise with N even on one CPU.  The merged `save`
 * state must be bit-identical across all shard counts — the same
 * differential check the sharded fuzz oracle applies.
 *
 * Besides the class-group maps (Shard.auto) the bench runs one arm on
 * the identity-hash map (Shard.by_hash, "hash:2"): the spec's classes
 * never interact across identities, so by_hash admits it, and routing
 * by hash(key) rather than by class takes the other owner-resolution
 * path through the router.  The final state must match the class-map
 * arms bit for bit.
 *
 * Usage: shard_bench [-n STEPS] [-o BENCH_E17.json] [SPEC.trl]
 *)

let default_spec = "examples/specs/cells.trl"
let default_out = "BENCH_E17.json"
let window = 32
let jobs = 2
let classes = Array.init 8 (fun i -> Printf.sprintf "CELL%d" i)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* ---------------------------------------------------------------- *)
(* One arm: N shards + router + pipelined client                     *)
(* ---------------------------------------------------------------- *)

type arm = {
  shards : int;
  kind : string;  (** "auto" (class groups) or "hash" (by identity) *)
  wall_s : float;
  steps_per_s : float;
  state : string;
}

let run_arm ~src ~steps ~shards ~by_hash : arm =
  let kind = if by_hash then "hash" else "auto" in
  let tag = Printf.sprintf "e17-%d-%d-%s" (Unix.getpid ()) shards kind in
  let sock_root =
    Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock")
  in
  (* WAL on the real filesystem — fsync cost is the point *)
  let wal_root = Printf.sprintf "_bench_%s_wal" tag in
  (try Unix.mkdir wal_root 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let community =
    match Troll.Session.load src with
    | Ok facade -> Troll.Session.community facade
    | Error e -> fail "load: %s" (Troll.Error.to_string e)
  in
  let map =
    if by_hash then
      match Shard.by_hash community ~shards with
      | Ok m -> m
      | Error e -> fail "by_hash map rejected: %s" e
    else Shard.auto community ~shards
  in
  let wire = Shard.to_string map in
  let shard_sock k = Printf.sprintf "%s.%d" sock_root k in
  let spec_digest = Digest.to_hex (Digest.string src) in
  let spawn k =
    match Unix.fork () with
    | 0 ->
        let code =
          match Troll.Session.load_shard_cell ~map:wire ~shard:k src with
          | Error e ->
              Printf.eprintf "shard %d: %s\n" k (Troll.Error.to_string e);
              1
          | Ok session -> (
              let dir = Filename.concat wal_root (string_of_int k) in
              match
                Wal.attach ~dir ~spec_digest ~fsync:`Batch ~snapshot_every:0
                  (Troll.Session.community session)
              with
              | Error m ->
                  Printf.eprintf "shard %d wal: %s\n" k m;
                  1
              | Ok (wal, _) ->
                  let config = { Server.default_config with Server.jobs } in
                  let server = Server.create ~config ~wal session in
                  Server.listen_unix server ~path:(shard_sock k);
                  0)
        in
        exit code
    | pid -> pid
  in
  let shard_pids = List.init shards spawn in
  let router_pid =
    match Unix.fork () with
    | 0 ->
        let router =
          Router.create ~community ~map
            ~paths:(Array.init shards shard_sock)
            ()
        in
        let code =
          match Router.listen_unix router ~path:sock_root with
          | Ok () -> 0
          | Error m ->
              Printf.eprintf "router: %s\n" m;
              1
        in
        exit code
    | pid -> pid
  in
  (* connect to the router *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (Sys.file_exists sock_root)) && Unix.gettimeofday () < deadline
  do
    ignore (Unix.select [] [] [] 0.02)
  done;
  if not (Sys.file_exists sock_root) then fail "router never bound socket";
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX sock_root);
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  let next_id = ref 0 in
  let send fields =
    incr next_id;
    output_string oc
      (Frame.to_line (Json.Obj (("id", Json.Int !next_id) :: fields)));
    flush oc
  in
  let recv_ok what =
    match input_line ic with
    | exception End_of_file -> fail "%s: router closed the connection" what
    | line -> (
        match Json.of_string line with
        | Error e -> fail "%s: bad frame %S: %s" what line e
        | Ok j ->
            if Json.member "ok" j <> Json.Bool true then
              fail "%s failed: %s" what line;
            j)
  in
  let rpc what fields =
    send fields;
    recv_ok what
  in
  let op name = ("op", Json.String name) in
  ignore
    (rpc "hello" [ op "hello"; ("version", Json.Int 1) ]);
  (* distinct keys per class, so the hash map spreads identities over
     the shards instead of collapsing them onto hash("x") *)
  let key_of k = Json.String (Printf.sprintf "x%d" k) in
  Array.iteri
    (fun k cls ->
      ignore
        (rpc "create"
           [ op "create"; ("cls", Json.String cls); ("key", key_of k) ]))
    classes;
  (* the measured loop: pipelined single-shard steps, every 16th one an
     enabledness probe (exercising the shard's --jobs pool) *)
  let in_flight = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to steps - 1 do
    let k = i mod Array.length classes in
    let cls = Json.String classes.(k) in
    (if i mod 16 = 15 then
       send [ op "enabled"; ("cls", cls); ("key", key_of k) ]
     else
       send
         [
           op "fire";
           ("cls", cls);
           ("key", key_of k);
           ("event", Json.String "add");
           ("args", Json.List [ Json.Int 1 ]);
         ]);
    incr in_flight;
    if !in_flight >= window then begin
      ignore (recv_ok "step");
      decr in_flight
    end
  done;
  while !in_flight > 0 do
    ignore (recv_ok "drain");
    decr in_flight
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let state =
    match
      Json.to_string_opt
        (Json.member "state" (Json.member "result" (rpc "save" [ op "save" ])))
    with
    | Some s -> s
    | None -> fail "save returned no state"
  in
  ignore (rpc "shutdown" [ op "shutdown" ]);
  close_out_noerr oc;
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (router_pid :: shard_pids);
  rm_rf wal_root;
  Array.iter
    (fun k -> try Unix.unlink (shard_sock k) with Unix.Unix_error _ -> ())
    (Array.init shards (fun k -> k));
  {
    shards;
    kind;
    wall_s;
    steps_per_s = float_of_int steps /. wall_s;
    state;
  }

(* ---------------------------------------------------------------- *)

let () =
  let steps = ref 1500 in
  let out_path = ref default_out in
  let spec = ref default_spec in
  let rec parse = function
    | [] -> ()
    | "-n" :: n :: rest ->
        steps := int_of_string n;
        parse rest
    | "-o" :: p :: rest ->
        out_path := p;
        parse rest
    | s :: rest ->
        spec := s;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let src = read_file !spec in
  let arms =
    List.map
      (fun (shards, by_hash) -> run_arm ~src ~steps:!steps ~shards ~by_hash)
      [ (1, false); (2, false); (4, false); (2, true) ]
  in
  (* the same stream must leave the same society regardless of the
     partitioning — class maps and the hash map alike *)
  (match arms with
  | first :: rest ->
      List.iter
        (fun a ->
          if not (String.equal a.state first.state) then
            fail "final state diverges between 1 shard and %d/%s" a.shards
              a.kind)
        rest
  | [] -> ());
  let doc =
    Json.Obj
      [
        ("experiment", Json.String "E17");
        ( "description",
          Json.String
            "sharded step throughput: pipelined single-shard steps against \
             trollc-shard-style processes (per-shard WAL, per-batch fsync), \
             window 32, one enabled-probe per 16 steps" );
        ("git_rev", Json.String (Workload.git_rev ()));
        ("date", Json.String (Workload.iso_date ()));
        ("host", Json.String (Unix.gethostname ()));
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("spec", Json.String !spec);
        ("steps", Json.Int !steps);
        ("window", Json.Int window);
        ("jobs", Json.Int jobs);
        ( "results",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("shards", Json.Int a.shards);
                     ("map", Json.String a.kind);
                     ("wall_s", Json.Float a.wall_s);
                     ( "steps_per_s",
                       Json.Float (Float.round a.steps_per_s) );
                   ])
               arms) );
        ("state_check", Json.String "bit-identical across shard counts and maps");
      ]
  in
  let oc = open_out !out_path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun a ->
      Printf.printf "E17 shards=%d map=%s: %d steps in %.3f s (%.0f steps/s)\n"
        a.shards a.kind !steps a.wall_s a.steps_per_s)
    arms;
  Printf.printf
    "state check: bit-identical across shard counts and maps\nwrote %s\n"
    !out_path
