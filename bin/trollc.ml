(** trollc — command-line front end for the TROLL system.

    {v
      trollc parse  spec.trl          # parse, report errors
      trollc check  spec.trl          # parse + static checks
      trollc pretty spec.trl          # parse and re-print
      trollc run    spec.trl run.trs  # load and animate with a script
      trollc serve  spec.trl --socket /tmp/troll.sock   # society server
    v} *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let spec_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SPEC" ~doc:"TROLL specification file")

let with_parsed path k =
  match Troll.parse_spec (read_file path) with
  | Error e ->
      Printf.eprintf "%s\n" (Troll.Error.to_string e);
      1
  | Ok spec -> k spec

(** Load through the session API, flattening the structured error for
    the command line. *)
let load_system ?config src : (Troll.system, string) result =
  match Troll.Session.load ?config src with
  | Ok session -> Ok (Troll.Session.system session)
  | Error e -> Error (Troll.Error.to_string e)

let parse_cmd =
  let run path =
    with_parsed path (fun spec ->
        Printf.printf "parsed %d declaration(s)\n" (List.length spec);
        0)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a specification and report errors")
    Term.(const run $ spec_arg)

let check_cmd =
  let run path =
    with_parsed path (fun spec ->
        let diags = Troll.check spec in
        List.iter
          (fun d -> Printf.printf "%s\n" (Check_error.to_string d))
          diags;
        if List.exists Check_error.is_error diags then 1
        else begin
          Printf.printf "ok: %d declaration(s), %d warning(s)\n"
            (List.length spec) (List.length diags);
          0
        end)
  in
  Cmd.v (Cmd.info "check" ~doc:"Statically check a specification")
    Term.(const run $ spec_arg)

let pretty_cmd =
  let run path =
    with_parsed path (fun spec ->
        print_endline (Troll.pretty spec);
        0)
  in
  Cmd.v
    (Cmd.info "pretty" ~doc:"Re-print a specification in canonical syntax")
    Term.(const run $ spec_arg)

let script_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"SCRIPT" ~doc:"animation script file")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"STATE"
        ~doc:"Write the object base's state to $(docv) after the script")

let restore_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "restore" ] ~docv:"STATE"
        ~doc:
          "Restore the object base from $(docv) (written by --save against \
           the same specification) before running the script")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the transaction-layer statistics (transactions, \
           savepoints, probes, journal entries, bytes snapshotted), \
           the compiled-dispatch counters (slots interned, rules \
           indexed, dispatch hits, interpreted fallbacks) and the \
           parallel-probe counters (views frozen and thawed, pool \
           dispatches) after the script")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Durability: append every committed step's effect record to a \
           write-ahead log in $(docv) (created if missing).  If the \
           directory already holds WAL state from the same \
           specification, the committed state is recovered before \
           anything runs")

let snapshot_every_arg =
  Arg.(
    value & opt int 0
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Compact the WAL after every $(docv) committed batches: write \
           a full snapshot and rotate the log (0 = only on attach and \
           shutdown)")

let wal_fsync_arg =
  Arg.(
    value & flag
    & info [ "wal-fsync" ]
        ~doc:
          "fsync the WAL after every commit batch (survives power loss); \
           without it records are flushed to the OS page cache, which \
           survives process death only")

let kill_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-after" ] ~docv:"N"
        ~doc:
          "Crash-testing aid: SIGKILL this process right after the \
           $(docv)-th WAL commit batch of this run becomes durable — \
           the state must then be recoverable with $(b,trollc recover)")

(** Attach a WAL per the common flags; [None] when --wal was not
    given. *)
let attach_wal ~wal ~snapshot_every ~wal_fsync ~kill_after ~src community =
  match wal with
  | None -> Ok None
  | Some dir ->
      let spec_digest = Digest.to_hex (Digest.string src) in
      let fsync = if wal_fsync then `Batch else `Never in
      let on_batch =
        match kill_after with
        | None -> None
        | Some n ->
            let count = ref 0 in
            Some
              (fun _seq ->
                incr count;
                if !count >= n then Unix.kill (Unix.getpid ()) Sys.sigkill)
      in
      (match
         Wal.attach ~dir ~spec_digest ~fsync ~snapshot_every ?on_batch
           community
       with
      | Ok (t, recovered) ->
          (match recovered with
          | Some r ->
              Printf.eprintf
                "wal: recovered %s (snapshot seq %d + %d record(s)%s)\n%!" dir
                r.Wal.r_snapshot_seq r.Wal.r_replayed
                (if r.Wal.r_torn_dropped then ", torn tail dropped" else "")
          | None -> ());
          Ok (Some t)
      | Error m -> Error m)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domain-pool size for the server's coalesced enabledness \
           probes; 1 probes in place on the serving thread without \
           spawning a domain.  Default: $(b,TROLLC_JOBS) if set, else 1")

let resolve_jobs = function
  | Some n -> max 1 n
  | None -> Pool.default_jobs ()

let run_cmd =
  let run spec_path script_path save restore stats wal snapshot_every
      wal_fsync kill_after =
    let src = read_file spec_path in
    match load_system src with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok sys -> (
        let restored =
          match restore with
          | None -> Ok ()
          | Some path -> Persist.load_file sys.Troll.community path
        in
        match restored with
        | Error e ->
            Printf.eprintf "restore failed: %s\n" e;
            1
        | Ok () -> (
            match
              attach_wal ~wal ~snapshot_every ~wal_fsync ~kill_after ~src
                sys.Troll.community
            with
            | Error m ->
                Printf.eprintf "wal: %s\n" m;
                1
            | Ok wal_t ->
                let outcome = Script.run_string sys (read_file script_path) in
                List.iter print_endline outcome.Script.output;
                let code =
                  match outcome.Script.failed with
                  | None -> 0
                  | Some e ->
                      Printf.eprintf "script failed: %s\n" e;
                      1
                in
                Option.iter Wal.detach wal_t;
                (match save with
                | Some path ->
                    Persist.save_file sys.Troll.community path;
                    Printf.printf "state saved to %s\n" path
                | None -> ());
                if stats then begin
                  print_endline "transaction statistics:";
                  List.iter
                    (fun (label, n) -> Printf.printf "  %-26s %d\n" label n)
                    (Trace.txn_stats_rows ());
                  print_endline "dispatch statistics:";
                  List.iter
                    (fun (label, n) -> Printf.printf "  %-26s %d\n" label n)
                    (Trace.dispatch_stats_rows ());
                  print_endline "probe statistics:";
                  List.iter
                    (fun (label, n) -> Printf.printf "  %-26s %d\n" label n)
                    (Trace.probe_stats_rows ());
                  print_endline "wal statistics:";
                  List.iter
                    (fun (label, n) -> Printf.printf "  %-26s %d\n" label n)
                    (Trace.wal_stats_rows ())
                end;
                code))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Load a specification and animate it with a script; --save/--restore \
          persist the object base between runs; --wal makes every committed \
          step durable (with --snapshot-every compaction and --wal-fsync \
          batch fsync); --stats reports the transaction, dispatch, probe \
          and wal counters")
    Term.(
      const run $ spec_arg $ script_arg $ save_arg $ restore_arg $ stats_arg
      $ wal_arg $ snapshot_every_arg $ wal_fsync_arg $ kill_after_arg)

let dot_cmd =
  let run path =
    match load_system (read_file path) with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok sys ->
        let templates =
          Hashtbl.fold
            (fun _ tpl acc -> tpl :: acc)
            sys.Troll.community.Community.templates []
        in
        let schema = Dot.schema_of_templates templates in
        print_string (Dot.of_schema schema);
        0
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Render the specification's inheritance schema (view/specialization \
          hierarchy) as Graphviz dot")
    Term.(const run $ spec_arg)

let repl_cmd =
  let run spec_path restore =
    (* the REPL is a debugging tool: record life cycles so that the
       'trace' command works *)
    let config =
      { Community.default_config with Community.record_history = true }
    in
    match load_system ~config (read_file spec_path) with
    | Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok sys -> (
        let restored =
          match restore with
          | None -> Ok ()
          | Some path -> Persist.load_file sys.Troll.community path
        in
        match restored with
        | Error e ->
            Printf.eprintf "restore failed: %s\n" e;
            1
        | Ok () ->
            print_endline
              "troll> animation commands, one per line (';' optional); \
               'quit' to exit";
            let rec loop () =
              print_string "troll> ";
              match read_line () with
              | exception End_of_file -> 0
              | "quit" | "exit" -> 0
              | "" -> loop ()
              | line ->
                  let line =
                    let n = String.length line in
                    if n > 0 && line.[n - 1] = ';' then line else line ^ ";"
                  in
                  let outcome = Script.run_string sys line in
                  List.iter print_endline outcome.Script.output;
                  (match outcome.Script.failed with
                  | Some e -> Printf.printf "error: %s\n" e
                  | None -> ());
                  loop ()
            in
            loop ())
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Animate a specification interactively (script commands on stdin)")
    Term.(const run $ spec_arg $ restore_arg)

(* build a plausible key for a class from a name string: single id
   field → the string; several → the string plus type defaults *)
let key_for (tpl : Template.t) (name : string) : Value.t =
  let default_of = function
    | Vtype.String -> Value.String name
    | Vtype.Int | Vtype.Nat -> Value.Int 0
    | Vtype.Date -> Value.Date 0
    | Vtype.Money -> Value.Money 0
    | Vtype.Bool -> Value.Bool false
    | _ -> Value.String name
  in
  match tpl.Template.t_id_fields with
  | [ (_, ty) ] -> default_of ty
  | fields ->
      Value.Tuple
        (List.mapi
           (fun i (n, ty) ->
             (n, if i = 0 then Value.String name else default_of ty))
           fields)

let refine_cmd =
  let abs_spec =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"ABSTRACT" ~doc:"abstract specification file")
  in
  let conc_spec =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CONCRETE" ~doc:"implementation specification file")
  in
  let abs_class =
    Arg.(
      required
      & opt (some string) None
      & info [ "abs" ] ~docv:"CLASS" ~doc:"abstract class name")
  in
  let conc_class =
    Arg.(
      required
      & opt (some string) None
      & info [ "conc" ] ~docv:"CLASS" ~doc:"implementing class name")
  in
  let depth =
    Arg.(value & opt int 3 & info [ "depth" ] ~doc:"exploration depth bound")
  in
  let cert_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"FILE"
          ~doc:
            "Record the simulation relation and write it as a certificate to \
             $(docv); check it independently with $(b,trollc validate-cert)")
  in
  let memo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "memo" ] ~docv:"DIR"
          ~doc:
            "Memoize visited state pairs across runs in $(docv) (keyed by a \
             digest of the whole problem instance); a warm re-check skips \
             every subtree an earlier successful run certified")
  in
  let run abs_path conc_path abs_cls conc_cls depth cert memo =
    let abs_src = read_file abs_path and conc_src = read_file conc_path in
    let load src =
      match load_system src with
      | Ok sys -> Ok sys.Troll.community
      | Error e -> Error e
    in
    match (load abs_src, load conc_src) with
    | Error e, _ | _, Error e ->
        Printf.eprintf "%s\n" e;
        1
    | Ok abs_c, Ok conc_c -> (
        match
          ( Community.find_template abs_c abs_cls,
            Community.find_template conc_c conc_cls )
        with
        | None, _ ->
            Printf.eprintf "unknown abstract class %s\n" abs_cls;
            1
        | _, None ->
            Printf.eprintf "unknown implementing class %s\n" conc_cls;
            1
        | Some abs_tpl, Some conc_tpl -> (
            let create c tpl =
              Engine.create c ~cls:tpl.Template.t_name
                ~key:(key_for tpl "probe") ()
            in
            match (create abs_c abs_tpl, create conc_c conc_tpl) with
            | Error r, _ | _, Error r ->
                Printf.eprintf "cannot create probe instance: %s\n"
                  (Runtime_error.reason_to_string r);
                1
            | Ok _, Ok _ ->
                let impl =
                  Implementation.make ~abs_class:abs_cls ~conc_class:conc_cls
                    ()
                in
                let alphabet = Refinement.candidates abs_tpl in
                let record =
                  if cert = None && memo = None then None
                  else
                    Some
                      (Certificate.builder ~abs_src ~conc_src ~impl
                         ~abs_key:(key_for abs_tpl "probe")
                         ~conc_key:(key_for conc_tpl "probe")
                         ~alphabet:
                           (List.map
                              (fun c ->
                                (c.Refinement.ev_name, c.Refinement.ev_args))
                              alphabet)
                         ~depth ())
                in
                (match (record, memo) with
                | Some b, Some dir -> (
                    match Certificate.load_memo b ~dir with
                    | Ok n -> Printf.printf "memo pairs loaded %d\n" n
                    | Error m -> Printf.eprintf "memo: %s\n" m)
                | _ -> ());
                let report =
                  Refinement.check ?record ~impl
                    ~abs:
                      { Refinement.community = abs_c;
                        id = Ident.make abs_cls (key_for abs_tpl "probe") }
                    ~conc:
                      { Refinement.community = conc_c;
                        id = Ident.make conc_cls (key_for conc_tpl "probe") }
                    ~alphabet ~depth ()
                in
                Format.printf "%a@." Refinement.pp_report report;
                (match record with
                | None -> ()
                | Some b ->
                    (match (report.Refinement.verdict, memo) with
                    | Ok (), Some dir -> (
                        match Certificate.save_memo b ~dir with
                        | Ok () -> ()
                        | Error m -> Printf.eprintf "memo: %s\n" m)
                    | _ -> ());
                    (match cert with
                    | None -> ()
                    | Some path ->
                        let c = Certificate.finish b in
                        Persist.write_file_atomic path (Certificate.encode c);
                        Format.printf "@[<v>%a@]@." Certificate.pp_summary c));
                (match report.Refinement.verdict with
                | Ok () -> 0
                | Error _ -> 1)))
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Check by bounded lock-step simulation that CONCRETE's --conc class \
          implements ABSTRACT's --abs class (§5.2)")
    Term.(
      const run $ abs_spec $ conc_spec $ abs_class $ conc_class $ depth
      $ cert_arg $ memo_arg)

let validate_cert_cmd =
  let cert_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"certificate file written by refine --cert")
  in
  let run path =
    match Validator.validate_string (read_file path) with
    | Ok st ->
        Printf.printf "certificate OK: nodes replayed %d\n"
          st.Validator.v_nodes;
        Printf.printf "certificate OK: edges replayed %d\n"
          st.Validator.v_edges;
        0
    | Error m ->
        Printf.printf "certificate REJECTED: %s\n" m;
        1
  in
  Cmd.v
    (Cmd.info "validate-cert"
       ~doc:
         "Independently validate a refinement certificate: rebuild both \
          communities from the embedded sources and replay every recorded \
          edge under speculative probes, checking digests, enabledness and \
          observations against the certificate's claims")
    Term.(const run $ cert_file)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve over a Unix-domain socket bound at $(docv)")
  in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve a single session over stdin/stdout (one frame per line); \
             exits when the input is exhausted and the queue is drained")
  in
  let queue_arg =
    Arg.(
      value & opt int 1024
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue bound; requests beyond it are answered \
             $(i,overloaded)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-deadline" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline in milliseconds, applied to \
             requests that carry no $(i,deadline_ms) field")
  in
  let run spec_path socket stdio queue default_deadline save restore jobs wal
      snapshot_every wal_fsync =
    match Troll.Session.load_file spec_path with
    | Error e ->
        Printf.eprintf "%s\n" (Troll.Error.to_string e);
        1
    | Ok session -> (
        let restored =
          match restore with
          | None -> Ok ()
          | Some path ->
              Persist.load_file (Troll.Session.community session) path
        in
        match restored with
        | Error e ->
            Printf.eprintf "restore failed: %s\n" e;
            1
        | Ok () -> (
            match
              attach_wal ~wal ~snapshot_every ~wal_fsync ~kill_after:None
                ~src:(read_file spec_path)
                (Troll.Session.community session)
            with
            | Error m ->
                Printf.eprintf "wal: %s\n" m;
                1
            | Ok wal_t -> (
                let config =
                  {
                    Server.default_config with
                    Server.queue_capacity = queue;
                    Server.default_deadline_ms = default_deadline;
                    Server.save_on_shutdown = save;
                    Server.jobs = resolve_jobs jobs;
                  }
                in
                let server = Server.create ~config ?wal:wal_t session in
                match (socket, stdio) with
                | Some path, false ->
                    Printf.eprintf "serving on %s\n%!" path;
                    Server.listen_unix server ~path;
                    0
                | None, true ->
                    Server.serve_fds server Unix.stdin Unix.stdout;
                    0
                | None, false ->
                    Printf.eprintf "serve: need --socket PATH or --stdio\n";
                    2
                | Some _, true ->
                    Printf.eprintf
                      "serve: --socket and --stdio are exclusive\n";
                    2)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Load a specification once and serve it to many clients over a \
          newline-delimited JSON protocol (see docs/PROTOCOL.md); every \
          mutating request is one journaled transaction, a $(i,batch) \
          request is one atomic event sequence, and a $(i,shutdown) \
          request drains the admission queue before the daemon exits; \
          $(i,enabled)/$(i,candidates) probes are answered from frozen \
          views over a --jobs-sized domain pool; --wal makes committed \
          steps durable with one group fsync per loop turn")
    Term.(
      const run $ spec_arg $ socket_arg $ stdio_arg $ queue_arg
      $ deadline_arg $ save_arg $ restore_arg $ jobs_arg $ wal_arg
      $ snapshot_every_arg $ wal_fsync_arg)

let shard_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Router socket; shard $(i,k) listens on $(docv).$(i,k) and \
             its pid is written to $(docv).$(i,k).pid")
  in
  let shards_arg =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shard servers to launch")
  in
  let map_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "map" ] ~docv:"MAP"
          ~doc:
            "Partition map in wire form ($(i,hash:<n>) or \
             $(i,classes:<n>:CLS=<k>,…)), validated against the \
             specification.  Default: class groups round-robin over \
             --shards shards")
  in
  let wal_root_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-root" ] ~docv:"DIR"
          ~doc:
            "Give shard $(i,k) a write-ahead log in $(docv)/$(i,k).  \
             Required for full crash recovery: with a WAL the router \
             mirrors every shipped record and a killed shard is \
             respawned and caught up; without one a respawned shard \
             only recovers the state mirrored at connect time")
  in
  let run spec_path socket shards map wal_root wal_fsync jobs =
    let src = read_file spec_path in
    match Troll.Session.load src with
    | Error e ->
        Printf.eprintf "%s\n" (Troll.Error.to_string e);
        1
    | Ok facade -> (
        let community = Troll.Session.community facade in
        let map_result =
          match map with
          | None -> Ok (Shard.auto community ~shards)
          | Some w -> Shard.of_string community w
        in
        match map_result with
        | Error m ->
            Printf.eprintf "shard: %s\n" m;
            1
        | Ok map ->
            let n = Shard.shards map in
            let wire = Shard.to_string map in
            let shard_socket k = Printf.sprintf "%s.%d" socket k in
            let pidfile k = Printf.sprintf "%s.%d.pid" socket k in
            Option.iter
              (fun root ->
                try Unix.mkdir root 0o755
                with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
              wal_root;
            (* children are respawned by the router and never awaited *)
            (try Sys.set_signal Sys.sigchld Sys.Signal_ignore
             with Invalid_argument _ -> ());
            let spawn k =
              match Unix.fork () with
              | 0 ->
                  let code =
                    match
                      Troll.Session.load_shard_cell ~map:wire ~shard:k src
                    with
                    | Error e ->
                        Printf.eprintf "shard %d: %s\n" k
                          (Troll.Error.to_string e);
                        1
                    | Ok session -> (
                        let wal_dir =
                          Option.map
                            (fun root ->
                              Filename.concat root (string_of_int k))
                            wal_root
                        in
                        match
                          attach_wal ~wal:wal_dir ~snapshot_every:0
                            ~wal_fsync ~kill_after:None ~src
                            (Troll.Session.community session)
                        with
                        | Error m ->
                            Printf.eprintf "shard %d wal: %s\n" k m;
                            1
                        | Ok wal_t ->
                            let config =
                              {
                                Server.default_config with
                                Server.jobs = resolve_jobs jobs;
                              }
                            in
                            let server =
                              Server.create ~config ?wal:wal_t session
                            in
                            Server.listen_unix server
                              ~path:(shard_socket k);
                            0)
                  in
                  exit code
              | pid ->
                  let oc = open_out (pidfile k) in
                  output_string oc (string_of_int pid ^ "\n");
                  close_out oc;
                  pid
            in
            let pids = Array.init n spawn in
            let respawn k =
              Printf.eprintf "router: respawning shard %d\n%!" k;
              pids.(k) <- spawn k
            in
            let router =
              Router.create ~community ~map
                ~paths:(Array.init n shard_socket)
                ~respawn ()
            in
            Printf.eprintf "routing %d shard(s) on %s (map %s)\n%!" n socket
              wire;
            let code =
              match Router.listen_unix router ~path:socket with
              | Ok () -> 0
              | Error m ->
                  Printf.eprintf "shard: %s\n" m;
                  1
            in
            Array.iter
              (fun pid ->
                try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
              pids;
            Array.iteri
              (fun k _ -> try Sys.remove (pidfile k) with Sys_error _ -> ())
              pids;
            code)
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Partition the society over N shard servers behind one router: \
          each shard is a forked $(b,trollc serve)-style process owning \
          its classes' instances (and WAL), the router speaks the same \
          NDJSON protocol to clients, forwards steps to their owning \
          shard, runs cross-shard steps through a two-phase commit over \
          $(i,prepare)/$(i,commit)/$(i,abort), and — having mirrored \
          every shipped WAL record — respawns and catches up a shard \
          that dies (see docs/SHARDING.md)")
    Term.(
      const run $ spec_arg $ socket_arg $ shards_arg $ map_arg
      $ wal_root_arg $ wal_fsync_arg $ jobs_arg)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed of the run; every iteration is a pure function of (seed, \
             iteration), so a reported failure replays exactly.  Default: \
             derived from the clock (and printed)")
  in
  let iters_arg =
    Arg.(
      value & opt int 500
      & info [ "iters" ] ~docv:"N"
          ~doc:"Generated (spec, trace) pairs to push through the oracles")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily minimise the first failing pair before reporting it")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write the (shrunk) counterexample file into $(docv)")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "dump" ] ~docv:"ITER"
          ~doc:
            "Print the generated specification and trace of iteration \
             $(docv) (without running the oracles) and exit — the \
             inspection half of the seed-repro workflow")
  in
  let run seed iters shrink out dump =
    let seed =
      match seed with
      | Some s -> s
      | None -> int_of_float (Unix.gettimeofday () *. 1000.) land 0xFFFFFF
    in
    match dump with
    | Some iter -> (
        let rng = Rng.make2 seed iter in
        let model = Genspec.generate (Rng.split rng) in
        let src = Genspec.render model in
        Printf.printf "-- seed %d iteration %d\n%s\n" seed iter src;
        match Troll.Session.load src with
        | Error e ->
            Printf.printf "-- DOES NOT LOAD: %s\n" (Troll.Error.to_string e);
            1
        | Ok scratch ->
            let len = Rng.range rng 15 40 in
            let trace =
              Gentrace.generate rng model
                (Troll.Session.community scratch)
                ~len
            in
            Printf.printf "-- trace (%d steps):\n" (List.length trace);
            List.iteri
              (fun i st ->
                Printf.printf "%s\n"
                  (Json.to_string (Oracle.request_of_step ~id:i st)))
              trace;
            0)
    | None ->
        Printf.printf "fuzz: seed %d, %d iterations, oracles: %s\n%!" seed
          iters
          (String.concat " " Oracle.oracle_names);
        let outcome =
          Fuzz.run ~log:print_endline ?out_dir:out ~seed ~iters ~shrink ()
        in
        (match outcome.Fuzz.failure with
        | None ->
            Printf.printf "fuzz: %d/%d iterations clean\n"
              outcome.Fuzz.iterations iters;
            0
        | Some f ->
            Printf.printf "fuzz: FAILED at iteration %d (oracle %s)\n"
              f.Fuzz.f_iter f.Fuzz.f_oracle;
            Printf.printf "  %s\n" f.Fuzz.f_detail;
            Printf.printf "  reproduce: trollc fuzz --seed %d --iters %d\n" seed
              (f.Fuzz.f_iter + 1);
            Printf.printf "counterexample spec (%d -> %d trace steps):\n%s\n"
              (List.length f.Fuzz.f_trace)
              (List.length f.Fuzz.f_shrunk_trace)
              f.Fuzz.f_shrunk_spec;
            print_endline "counterexample trace:";
            List.iteri
              (fun i st ->
                Printf.printf "  %s\n"
                  (Json.to_string (Oracle.request_of_step ~id:i st)))
              f.Fuzz.f_shrunk_trace;
            1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate seed-deterministic well-typed specifications and event \
          workloads, and check every pair against nine differential \
          oracles: compiled vs interpreted dispatch, engine vs society \
          server, save/load/replay, journal cleanliness of rejected steps \
          (probe = clone), fanned-out vs in-place enabledness probes, \
          kill -9 crash recovery from the WAL, sharded vs single-engine \
          execution, a server steps batch vs its members one at a time, \
          and refinement certificates.  The first failure is shrunk to a \
          minimal (spec, trace) pair when --shrink is given")
    Term.(const run $ seed_arg $ iters_arg $ shrink_arg $ out_arg $ dump_arg)

let recover_cmd =
  let run spec_path wal save =
    match wal with
    | None ->
        Printf.eprintf "recover: need --wal DIR\n";
        2
    | Some dir -> (
        let src = read_file spec_path in
        match load_system src with
        | Error e ->
            Printf.eprintf "%s\n" e;
            1
        | Ok sys -> (
            let spec_digest = Digest.to_hex (Digest.string src) in
            match Wal.recover ~dir ~spec_digest sys.Troll.community with
            | Error m ->
                Printf.eprintf "recover: %s\n" m;
                1
            | Ok r ->
                Printf.eprintf
                  "recovered %s: snapshot seq %d + %d record(s) replayed \
                   (last seq %d)%s\n\
                   %!"
                  dir r.Wal.r_snapshot_seq r.Wal.r_replayed r.Wal.r_last_seq
                  (if r.Wal.r_torn_dropped then ", torn tail dropped" else "");
                (match save with
                | Some path ->
                    Persist.save_file sys.Troll.community path;
                    Printf.eprintf "state saved to %s\n" path
                | None -> print_string (Persist.save sys.Troll.community));
                0))
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild the object base of SPEC from a write-ahead log directory: \
          load the snapshot, replay the committed effect records past it \
          (dropping a torn final record), and dump the recovered state to \
          stdout — or persist it with --save.  The WAL is not modified; \
          restart animation with $(b,trollc run --wal) $(i,DIR) to resume \
          appending")
    Term.(const run $ spec_arg $ wal_arg $ save_arg)

let main =
  Cmd.group
    (Cmd.info "trollc" ~version:"1.0.0"
       ~doc:"Parser, checker and animator for the TROLL specification language")
    [
      parse_cmd; check_cmd; pretty_cmd; run_cmd; repl_cmd; dot_cmd; refine_cmd;
      validate_cert_cmd; serve_cmd; shard_cmd; fuzz_cmd; recover_cmd;
    ]

let () = exit (Cmd.eval' main)
