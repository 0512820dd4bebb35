(* The nine differential oracles.  Each one loads fresh communities
   from the rendered source, runs the trace and compares independent
   execution paths; [Persist.save] images are the state-equality
   witness throughout (canonical, total, bit-comparable). *)

type failure = { oracle : string; detail : string }

let failf oracle fmt = Printf.ksprintf (fun detail -> Error { oracle; detail }) fmt

let code_of = function
  | Ok _ -> "ok"
  | Error r -> Runtime_error.code r

let load_session ?(compiled = true) src =
  let config = { Community.default_config with compiled_dispatch = compiled } in
  Troll.Session.load ~config src

let with_session oracle ?compiled src k =
  match load_session ?compiled src with
  | Ok s -> k s
  | Error e -> failf "load" "%s: spec failed to load: %s" oracle (Troll.Error.to_string e)

let step_label i st = Printf.sprintf "step %d (%s)" i (Step.to_string st)

(* ---------------------------------------------------------------- *)
(* Oracle 1: compiled vs interpreted dispatch                        *)
(* ---------------------------------------------------------------- *)

let dispatch src trace =
  with_session "dispatch" ~compiled:true src @@ fun sc ->
  with_session "dispatch" ~compiled:false src @@ fun si ->
  let rec loop i = function
    | [] -> Ok ()
    | st :: rest ->
        let rc = Troll.Session.step sc st in
        let ri = Troll.Session.step si st in
        if code_of rc <> code_of ri then
          failf "dispatch" "%s: compiled=%s interpreted=%s" (step_label i st)
            (code_of rc) (code_of ri)
        else loop (i + 1) rest
  in
  match loop 0 trace with
  | Error _ as e -> e
  | Ok () ->
      let img_c = Persist.save (Troll.Session.community sc) in
      let img_i = Persist.save (Troll.Session.community si) in
      if img_c <> img_i then
        failf "dispatch" "final save images differ (compiled %d bytes, interpreted %d bytes)"
          (String.length img_c) (String.length img_i)
      else Ok ()

(* ---------------------------------------------------------------- *)
(* Oracle 2: in-process engine vs the society server over a pipe     *)
(* ---------------------------------------------------------------- *)

let request_of_step ~id step =
  let evj = Protocol.event_to_json in
  let fields =
    match step with
    | Step.Fire ev -> (
        match evj ev with
        | Json.Obj fields -> ("op", Json.String "fire") :: fields
        | _ -> assert false)
    | Step.Sync evs ->
        [ ("op", Json.String "sync"); ("events", Json.List (List.map evj evs)) ]
    | Step.Seq evs ->
        [ ("op", Json.String "batch"); ("events", Json.List (List.map evj evs)) ]
    | Step.Txn micro ->
        [
          ("op", Json.String "txn");
          ( "steps",
            Json.List (List.map (fun evs -> Json.List (List.map evj evs)) micro) );
        ]
    | Step.Create { cls; key; event; args } ->
        [ ("op", Json.String "create"); ("cls", Json.String cls);
          ("key", Protocol.value_to_json key) ]
        @ (match event with Some e -> [ ("event", Json.String e) ] | None -> [])
        @ [ ("args", Json.List (List.map Protocol.value_to_json args)) ]
    | Step.Destroy { id = oid; event; args } ->
        [ ("op", Json.String "destroy"); ("cls", Json.String oid.Ident.cls);
          ("key", Protocol.value_to_json oid.Ident.key) ]
        @ (match event with Some e -> [ ("event", Json.String e) ] | None -> [])
        @ [ ("args", Json.List (List.map Protocol.value_to_json args)) ]
  in
  Json.Obj (("id", Json.Int id) :: fields)

(* Drive [Server.serve_fds] in a forked child over two pipes; a second
   forked child writes the request lines, so the parent only reads and
   no pipe can deadlock regardless of payload sizes. *)
let run_server_lines session requests =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server_pid = Unix.fork () in
  if server_pid = 0 then (
    Unix.close req_w;
    Unix.close resp_r;
    let srv = Server.create session in
    (try Server.serve_fds srv req_r resp_w with _ -> ());
    Unix._exit 0);
  Unix.close req_r;
  Unix.close resp_w;
  let writer_pid = Unix.fork () in
  if writer_pid = 0 then (
    Unix.close resp_r;
    let buf = Buffer.create 4096 in
    List.iter
      (fun j ->
        Buffer.add_string buf (Json.to_string j);
        Buffer.add_char buf '\n')
      requests;
    let s = Buffer.contents buf in
    let rec write_all off =
      if off < String.length s then
        let n = Unix.write_substring req_w s off (String.length s - off) in
        write_all (off + n)
    in
    (try write_all 0 with _ -> ());
    (try Unix.close req_w with _ -> ());
    Unix._exit 0);
  Unix.close req_w;
  let ic = Unix.in_channel_of_descr resp_r in
  let rec read_lines acc =
    match input_line ic with
    | line -> read_lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read_lines [] in
  close_in ic;
  ignore (Unix.waitpid [] writer_pid);
  ignore (Unix.waitpid [] server_pid);
  lines

(* The lockstep transport: write one request, read its response,
   repeat.  [run_server_lines] above ships the whole trace before
   reading anything (a maximally pipelined client); the protocol
   promises the two are indistinguishable, response for response. *)
let run_server_lockstep session requests =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server_pid = Unix.fork () in
  if server_pid = 0 then (
    Unix.close req_w;
    Unix.close resp_r;
    let srv = Server.create session in
    (try Server.serve_fds srv req_r resp_w with _ -> ());
    Unix._exit 0);
  Unix.close req_r;
  Unix.close resp_w;
  let ic = Unix.in_channel_of_descr resp_r in
  let lines =
    List.filter_map
      (fun j ->
        let line = Json.to_string j ^ "\n" in
        let rec write_all off =
          if off < String.length line then
            let n =
              Unix.write_substring req_w line off (String.length line - off)
            in
            write_all (off + n)
        in
        match write_all 0 with
        | () -> ( match input_line ic with
          | line -> Some line
          | exception End_of_file -> None)
        | exception Unix.Unix_error _ -> None)
      requests
  in
  (try Unix.close req_w with Unix.Unix_error _ -> ());
  close_in ic;
  ignore (Unix.waitpid [] server_pid);
  lines

(* Pipelined and lockstep responses must agree id-for-id: clients
   correlate by id, so transport depth may never change an answer. *)
let compare_transports pipelined lockstep =
  if List.length pipelined <> List.length lockstep then
    failf "server" "pipelined run answered %d frames, lockstep %d"
      (List.length pipelined) (List.length lockstep)
  else
    let index lines =
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun line ->
          match Json.of_string line with
          | Ok j -> Hashtbl.replace tbl (Json.member "id" j) j
          | Error _ -> ())
        lines;
      tbl
    in
    let by_id = index lockstep in
    let rec check = function
      | [] -> Ok ()
      | line :: rest -> (
          match Json.of_string line with
          | Error e -> failf "server" "pipelined response unparsable (%s): %s" e line
          | Ok j -> (
              let id = Json.member "id" j in
              match Hashtbl.find_opt by_id id with
              | None ->
                  failf "server" "no lockstep response for id %s"
                    (Json.to_string id)
              | Some j' ->
                  if not (Json.equal j j') then
                    failf "server"
                      "id %s: pipelined %s, lockstep %s" (Json.to_string id)
                      line (Json.to_string j')
                  else check rest))
    in
    check pipelined

(* The object a step acts on (its first event's target), probed with
   [enabled] and [candidates] right after the step; [None] for a step
   with no events. *)
let step_target = function
  | Step.Create { cls; key; _ } -> Some (Ident.make cls key)
  | Step.Destroy { id; _ } -> Some id
  | st -> (
      match List.concat (Option.value ~default:[] (Step.micro_steps st)) with
      | ev :: _ -> Some ev.Event.target
      | [] -> None)

let probe_request ~id op target =
  match Protocol.ident_to_json target with
  | Json.Obj fields ->
      Json.Obj (("id", Json.Int id) :: ("op", Json.String op) :: fields)
  | _ -> assert false

(* The engine's own answers to [enabled] and [candidates] on [target],
   by op, encoded as the server encodes its results; an error is its
   code. *)
let probe_answers c target =
  match Community.find_template c target.Ident.cls with
  | None ->
      let code = Runtime_error.code (Runtime_error.Unknown_class target.Ident.cls) in
      [ ("enabled", Error code); ("candidates", Error code) ]
  | Some _ ->
      let alive = Option.is_some (Community.living c target) in
      let verdict (name, params) =
        if alive && params = [] then Some (Engine.enabled c (Event.make target name []))
        else None
      in
      [
        ("enabled", Ok (Protocol.enabled_to_json (Engine.enabled_events c target)));
        ( "candidates",
          Ok
            (Protocol.candidates_to_json
               (List.map
                  (fun ((name, params) as cand) -> (name, params, verdict cand))
                  (Engine.candidate_events c target))) );
      ]

let server src trace =
  with_session "server" src @@ fun local ->
  with_session "server" src @@ fun remote ->
  with_session "server" src @@ fun remote_lockstep ->
  (* a seeded third of the steps is followed by an [enabled] and a
     [candidates] probe of its target, so pipelined runs interleave
     probe runs with step runs, runs of three and more fires among them;
     each request is paired with the engine's answer at the same prefix
     (Ok result document, or Error code).  The subset is a pure function
     of (src, trace), so failures replay exactly. *)
  let probe_after = Rng.make2 (Hashtbl.hash src) (List.length trace) in
  let c = Troll.Session.community local in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let exchanges =
    List.concat
      (List.mapi
         (fun i st ->
           let step_req = request_of_step ~id:(fresh ()) st in
           let answer =
             match Troll.Session.step local st with
             | Ok outcome -> Ok (Protocol.outcome_to_json outcome)
             | Error reason -> Error (Runtime_error.code reason)
           in
           let label = step_label i st in
           (label, step_req, answer)
           ::
           (match step_target st with
           | Some target when Rng.chance probe_after 1 3 ->
               List.map
                 (fun (op, answer) ->
                   let what =
                     Printf.sprintf "%s, then %s %s" label op (Ident.to_string target)
                   in
                   (what, probe_request ~id:(fresh ()) op target, answer))
                 (probe_answers c target)
           | _ -> []))
         trace)
  in
  let requests =
    List.map (fun (_, req, _) -> req) exchanges
    @ [ Json.Obj [ ("id", Json.Int (fresh ())); ("op", Json.String "save") ] ]
  in
  let lines = run_server_lines remote requests in
  match
    compare_transports lines (run_server_lockstep remote_lockstep requests)
  with
  | Error _ as e -> e
  | Ok () ->
  if List.length lines <> List.length requests then
    failf "server" "expected %d response frames, got %d" (List.length requests)
      (List.length lines)
  else
    let parse i line =
      match Json.of_string line with
      | Ok j -> Ok j
      | Error e -> failf "server" "response %d unparsable (%s): %s" i e line
    in
    let rec loop i exchanges lines =
      match (exchanges, lines) with
      | [], [ last ] -> (
          (* the trailing save frame: compare against the in-process image *)
          match parse i last with
          | Error _ as e -> e
          | Ok j -> (
              match Json.member "ok" j with
              | Json.Bool true -> (
                  match Json.member "state" (Json.member "result" j) with
                  | Json.String dump ->
                      let img = Persist.save c in
                      if dump <> img then
                        failf "server"
                          "final state differs (server %d bytes, engine %d bytes)"
                          (String.length dump) (String.length img)
                      else Ok ()
                  | _ -> failf "server" "save response carries no state")
              | _ -> failf "server" "save request failed: %s" last))
      | (what, _, answer) :: exchanges', line :: lines' -> (
          match parse i line with
          | Error _ as e -> e
          | Ok j -> (
              match (answer, Json.member "ok" j) with
              | Ok expected, Json.Bool true ->
                  if not (Json.equal (Json.member "result" j) expected) then
                    failf "server" "%s: answer differs: engine %s, server %s"
                      what (Json.to_string expected)
                      (Json.to_string (Json.member "result" j))
                  else loop (i + 1) exchanges' lines'
              | Error code, Json.Bool false -> (
                  match Json.member "code" (Json.member "error" j) with
                  | Json.String got when got = code -> loop (i + 1) exchanges' lines'
                  | Json.String got ->
                      failf "server" "%s: engine code %s, server code %s" what code got
                  | _ -> failf "server" "%s: error frame carries no code" what)
              | Ok _, _ ->
                  failf "server" "%s: engine accepted, server rejected: %s" what line
              | Error code, _ ->
                  failf "server" "%s: engine rejected (%s), server accepted" what code))
      | _ -> failf "server" "response frames out of step with the trace"
    in
    loop 0 exchanges lines

(* ---------------------------------------------------------------- *)
(* Oracle 3: save → load → replay                                    *)
(* ---------------------------------------------------------------- *)

let replay src trace =
  with_session "replay" src @@ fun sa ->
  with_session "replay" src @@ fun sb ->
  let ca = Troll.Session.community sa in
  let cb = Troll.Session.community sb in
  let n = List.length trace in
  let mid = n / 2 in
  let prefix = List.filteri (fun i _ -> i < mid) trace in
  let suffix = List.filteri (fun i _ -> i >= mid) trace in
  List.iter (fun st -> ignore (Troll.Session.step sa st)) prefix;
  let dump = Persist.save ca in
  match Persist.load cb dump with
  | Error e -> failf "replay" "midpoint dump failed to restore: %s" e
  | Ok () ->
      let restored = Persist.save cb in
      if restored <> dump then
        failf "replay" "restored image differs from the dump it was loaded from"
      else
        let rec loop i = function
          | [] -> Ok ()
          | st :: rest ->
              let ra = Troll.Session.step sa st in
              let rb = Troll.Session.step sb st in
              if code_of ra <> code_of rb then
                failf "replay" "%s: original=%s restored=%s" (step_label (mid + i) st)
                  (code_of ra) (code_of rb)
              else loop (i + 1) rest
        in
        (match loop 0 suffix with
        | Error _ as e -> e
        | Ok () ->
            if Persist.save ca <> Persist.save cb then
              failf "replay" "final images diverge after replaying the suffix"
            else Ok ())

(* ---------------------------------------------------------------- *)
(* Oracle 4: rejected steps leave the journal clean; probe = clone   *)
(* ---------------------------------------------------------------- *)

let journal src trace =
  with_session "journal" src @@ fun s ->
  let c = Troll.Session.community s in
  let rec loop i = function
    | [] -> Ok ()
    | st :: rest -> (
        let pre = Persist.save c in
        let probe_r = Txn.probe c (fun () -> Engine.step c st) in
        if Persist.save c <> pre then
          failf "journal" "%s: probe dirtied the community" (step_label i st)
        else
          let c2 = Community.clone c in
          let r2 = Engine.step c2 st in
          let r1 = Engine.step c st in
          if code_of r1 <> code_of probe_r then
            failf "journal" "%s: probe verdict %s, execution verdict %s"
              (step_label i st) (code_of probe_r) (code_of r1)
          else if code_of r1 <> code_of r2 then
            failf "journal" "%s: clone verdict %s, execution verdict %s"
              (step_label i st) (code_of r2) (code_of r1)
          else
            match r1 with
            | Error _ when Persist.save c <> pre ->
                failf "journal" "%s: rejected step left the community dirty"
                  (step_label i st)
            | _ ->
                if Persist.save c <> Persist.save c2 then
                  failf "journal" "%s: clone and community images diverge"
                    (step_label i st)
                else loop (i + 1) rest)
  in
  loop 0 trace

(* ---------------------------------------------------------------- *)
(* Oracle 5: fanned-out probes ≡ in-place probes on every prefix     *)
(* ---------------------------------------------------------------- *)

(* [Engine.enabled_batch_par] runs over a domain pool, and once a
   domain has ever been created in a process [Unix.fork] raises — which
   the "server" oracle and any later iteration of it depend on.  So the
   whole comparison runs in a forked child: the child alone creates the
   jobs=4 pool, replays the trace, and at every prefix compares the
   batch answers from a frozen view against [Engine.enabled] on the
   live community; the parent only reads a one-line verdict from a pipe
   and never creates a domain. *)

let parallel_jobs = 4

(* The child's body: returns "ok" or a single-line "FAIL ..." detail. *)
let parallel_verdict src trace =
  match load_session src with
  | Error e -> Printf.sprintf "spec failed to load: %s" (Troll.Error.to_string e)
  | Ok s -> (
      let c = Troll.Session.community s in
      let pool = Pool.create ~jobs:parallel_jobs in
      (* every living object's parameterless events, one batch *)
      let check_prefix i =
        let evs =
          Array.of_list
            (List.concat_map
               (fun (o : Obj_state.t) ->
                 if not o.Obj_state.alive then []
                 else
                   Array.to_list
                     (Array.map
                        (fun (ed : Template.event_def) ->
                          Event.make o.Obj_state.id ed.Template.ed_name [])
                        (Engine.nullary_descriptors c o.Obj_state.template)))
               (Community.objects_sorted c))
        in
        let view = View.freeze c in
        let batch = Engine.enabled_batch_par ~pool view evs in
        let in_place = Array.map (Engine.enabled c) evs in
        let rec first k =
          if k >= Array.length evs then None
          else if batch.(k) <> in_place.(k) then Some k
          else first (k + 1)
        in
        match first 0 with
        | Some k ->
            Some
              (Printf.sprintf "prefix %d: %s: in place %b, batch %b" i
                 (Event.to_string evs.(k)) in_place.(k) batch.(k))
        | None when not (View.valid view) ->
            Some (Printf.sprintf "prefix %d: probes invalidated the view" i)
        | None -> None
      in
      let rec run i = function
        | [] -> check_prefix i
        | st :: rest -> (
            match check_prefix i with
            | Some _ as f -> f
            | None ->
                ignore (Troll.Session.step s st);
                run (i + 1) rest)
      in
      let outcome = run 0 trace in
      Pool.shutdown pool;
      match outcome with
      | None -> "ok"
      | Some detail -> "FAIL " ^ detail)

(* Fork a child, run [verdict ()] there, read its one-line answer.
   "ok" passes; anything else is the failure detail. *)
let forked_verdict oracle verdict =
  let r, w = Unix.pipe () in
  let pid = Unix.fork () in
  if pid = 0 then begin
    Unix.close r;
    let line =
      try verdict ()
      with e -> "FAIL exception: " ^ Printexc.to_string e
    in
    let oc = Unix.out_channel_of_descr w in
    (try
       output_string oc line;
       output_char oc '\n';
       flush oc
     with _ -> ());
    Unix._exit 0
  end;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line =
    try input_line ic with End_of_file -> "FAIL child wrote no verdict"
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line = "ok" then Ok () else failf oracle "%s" line

let parallel src trace =
  forked_verdict "parallel" (fun () -> parallel_verdict src trace)

(* ---------------------------------------------------------------- *)
(* Oracle 6: kill -9 at a commit boundary, recover from the WAL      *)
(* ---------------------------------------------------------------- *)

(* A forked child animates the trace with a WAL attached and SIGKILLs
   itself from inside the [on_batch] callback of the k-th committed
   batch — after the record is durable, before anything else runs.  The
   parent recovers the directory into a fresh community and compares
   the [Persist.save] image against a clean run of the same trace
   stopped at the same commit boundary.  The kill point is a pure
   function of (src, trace), so a reported failure replays exactly.

   The child creates no domains (forked before any pool exists), and
   the clean run counts boundaries with the same commit hook the WAL
   uses — only commits whose effect delta is non-empty append a batch,
   so both sides count identically. *)

let recovery_dir_seq = ref 0

let rm_recovery_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let recovery src trace =
  with_session "recovery" src @@ fun _loads ->
  let spec_digest = Digest.to_hex (Digest.string src) in
  let n = List.length trace in
  let k = 1 + ((Hashtbl.hash src + (31 * n)) mod (n + 1)) in
  incr recovery_dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "troll-fuzz-recovery-%d-%d" (Unix.getpid ())
         !recovery_dir_seq)
  in
  rm_recovery_dir dir;
  Fun.protect ~finally:(fun () -> rm_recovery_dir dir) @@ fun () ->
  let pid = Unix.fork () in
  if pid = 0 then begin
    (* child: animate with a durable WAL, die mid-flight at batch k *)
    match load_session src with
    | Error _ -> Unix._exit 3
    | Ok s -> (
        let c = Troll.Session.community s in
        let batches = ref 0 in
        let on_batch _seq =
          incr batches;
          if !batches >= k then Unix.kill (Unix.getpid ()) Sys.sigkill
        in
        match
          Wal.attach ~dir ~spec_digest ~fsync:`Batch ~snapshot_every:0
            ~on_batch c
        with
        | Error _ -> Unix._exit 4
        | Ok (t, _) ->
            List.iter (fun st -> ignore (Troll.Session.step s st)) trace;
            Wal.detach t;
            (* trace exhausted before batch k: a clean shutdown is the
               boundary under test instead *)
            Unix._exit 0)
  end;
  let _, status = Unix.waitpid [] pid in
  let compare_recovered () =
    with_session "recovery" src @@ fun sr ->
    let cr = Troll.Session.community sr in
    match Wal.recover ~dir ~spec_digest cr with
    | Error e -> failf "recovery" "recovery after kill at batch %d: %s" k e
    | Ok r ->
        (* clean reference: same trace, stopped at the same boundary *)
        with_session "recovery" src @@ fun sc ->
        let cc = Troll.Session.community sc in
        let batches = ref 0 in
        cc.Community.commit_hook <-
          Some (fun j -> if Effect_log.delta cc j <> [] then incr batches);
        List.iter
          (fun st -> if !batches < k then ignore (Troll.Session.step sc st))
          trace;
        cc.Community.commit_hook <- None;
        let img_r = Persist.save cr in
        let img_c = Persist.save cc in
        if img_r <> img_c then
          failf "recovery"
            "killed at batch %d of %d step(s): recovered image differs from \
             the clean prefix (%d vs %d bytes, %d record(s) replayed)"
            k n (String.length img_r) (String.length img_c) r.Wal.r_replayed
        else Ok ()
  in
  match status with
  | Unix.WEXITED 3 -> failf "recovery" "child failed to load the spec"
  | Unix.WEXITED 4 -> failf "recovery" "child failed to attach the WAL"
  | Unix.WEXITED 0 -> compare_recovered ()
  | Unix.WSIGNALED s when s = Sys.sigkill -> compare_recovered ()
  | Unix.WEXITED c -> failf "recovery" "child exited with %d" c
  | Unix.WSIGNALED s -> failf "recovery" "child died on signal %d" s
  | Unix.WSTOPPED s -> failf "recovery" "child stopped on signal %d" s

(* ---------------------------------------------------------------- *)
(* Oracle 7: sharded session vs the single engine                    *)
(* ---------------------------------------------------------------- *)

(* A pseudo-random 2-shard partition — each class-interaction group
   assigned by a hash of (src, group index), so the split is a pure
   function of the spec and failures replay exactly — routes the trace
   through {!Shard.coordinate}: single-owner steps take the fast path,
   cross-shard steps commit by two-phase protocol on Txn savepoints.
   A plain session animates the same trace.  Error codes must agree
   step by step, and the merged sharded dump must be bit-identical to
   the single-engine dump.  Outcome shapes are NOT compared: a
   cross-shard sync step decomposes into per-shard micro-steps, so the
   state images are the equality witness.

   When the spec admits identity-hash partitioning ({!Shard.by_hash}),
   a source-hash coin flip picks the [hash:2] map instead of the
   classes map, so the by-identity routing path gets the same
   differential coverage. *)

let sharded src trace =
  with_session "sharded" src @@ fun probe ->
  let facade = Troll.Session.community probe in
  let assignment =
    List.concat
      (List.mapi
         (fun i group ->
           let k = (Hashtbl.hash src + (17 * i)) land 1 in
           List.map (fun cls -> (cls, k)) group)
         (Shard.groups facade))
  in
  let by_classes () =
    match Shard.of_classes facade ~shards:2 assignment with
    | Ok m -> m
    | Error e ->
        (* cannot happen: whole groups are co-located by construction *)
        invalid_arg ("sharded oracle map: " ^ e)
  in
  let m =
    if Hashtbl.hash src land 4 = 0 then
      match Shard.by_hash facade ~shards:2 with
      | Ok m -> m
      | Error _ -> by_classes ()
    else by_classes ()
  in
  let map = Shard.to_string m in
  (* When a genuinely cross-shard step is rejected for several
     independent reasons of the SAME engine phase, which one surfaces
     depends on the decomposition (each shard sees only its own
     events) — only the phase class is guaranteed, so only it is
     compared there.  Everything else must match code-for-code. *)
  let same_phase_cross_shard st rs r1 =
    match (rs, r1) with
    | Error a, Error b
      when Runtime_error.phase_rank a = Runtime_error.phase_rank b -> (
        match Shard.split m st with Ok (_ :: _ :: _) -> true | _ -> false)
    | _ -> false
  in
  match Troll.Session.load_sharded ~shards:2 ~map src with
  | Error e -> failf "sharded" "sharded load (map %s): %s" map (Troll.Error.to_string e)
  | Ok sh ->
      with_session "sharded" src @@ fun sg ->
      let rec loop i = function
        | [] -> Ok ()
        | st :: rest ->
            let rs = Troll.Session.step sh st in
            let r1 = Troll.Session.step sg st in
            if code_of rs <> code_of r1 && not (same_phase_cross_shard st rs r1)
            then
              failf "sharded" "%s (map %s): sharded=%s single=%s"
                (step_label i st) map (code_of rs) (code_of r1)
            else loop (i + 1) rest
      in
      (match loop 0 trace with
      | Error _ as e -> e
      | Ok () ->
          let img_s = Troll.Session.save sh in
          let img_1 = Troll.Session.save sg in
          if img_s <> img_1 then
            failf "sharded"
              "final save images differ under map %s (merged %d bytes, \
               single %d bytes)"
              map (String.length img_s) (String.length img_1)
          else Ok ())

(* ---------------------------------------------------------------- *)
(* Oracle 8: a [steps] batch is its members fired one at a time      *)
(* ---------------------------------------------------------------- *)

(* The trace goes to a society server in chunks of [linearizable_chunk]
   steps, each chunk as one [steps] request through [Server.execute];
   a reference community fires the same members one by one through
   [Engine.step].  Each member's verdict code (and, when accepted, its
   outcome document) and the [Persist.save] image after every chunk
   must agree. *)

let linearizable_chunk = 8

(* The code of one entry of a [steps] result list; [None] if the entry
   is malformed. *)
let steps_entry_code entry =
  match Json.member "ok" entry with
  | Json.Bool true -> Some "ok"
  | Json.Bool false -> (
      match Json.member "code" (Json.member "error" entry) with
      | Json.String code -> Some code
      | _ -> None)
  | _ -> None

let linearizable src trace =
  let oracle = "linearizable" in
  with_session oracle src @@ fun s ->
  with_session oracle src @@ fun sref ->
  let server = Server.create s in
  let c = Troll.Session.community s in
  let cref = Troll.Session.community sref in
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let check_member i st entry =
    let reference = Engine.step cref st in
    match (steps_entry_code entry, reference) with
    | None, _ ->
        failf oracle "%s: malformed batch entry %s" (step_label i st)
          (Json.to_string entry)
    | Some got, _ when got <> code_of reference ->
        failf oracle "%s: batch %s, one at a time %s" (step_label i st) got
          (code_of reference)
    | Some _, Ok outcome
      when not
             (Json.equal (Json.member "result" entry)
                (Protocol.outcome_to_json outcome)) ->
        failf oracle "%s: batch outcome %s, one at a time %s"
          (step_label i st)
          (Json.to_string (Json.member "result" entry))
          (Json.to_string (Protocol.outcome_to_json outcome))
    | Some _, _ -> Ok ()
  in
  let rec run base = function
    | [] -> Ok ()
    | l -> (
        let chunk, rest = take linearizable_chunk [] l in
        let n = List.length chunk in
        let where = Printf.sprintf "steps %d..%d" base (base + n - 1) in
        match Server.execute server (Protocol.Steps chunk) with
        | Error e ->
            failf oracle "%s: steps request failed: %s" where
              (Json.to_string (Protocol.Wire_error.to_json e))
        | Ok doc -> (
            match Json.member "results" doc with
            | Json.List entries when List.length entries = n -> (
                let rec members i = function
                  | [], [] -> Ok ()
                  | st :: sts, entry :: entries -> (
                      match check_member i st entry with
                      | Ok () -> members (i + 1) (sts, entries)
                      | Error _ as e -> e)
                  | _ -> assert false
                in
                match members base (chunk, entries) with
                | Error _ as e -> e
                | Ok () ->
                    if Persist.save c <> Persist.save cref then
                      failf oracle "%s: images differ after the batch" where
                    else run (base + n) rest)
            | _ ->
                failf oracle "%s: expected %d results, got %s" where n
                  (Json.to_string doc)))
  in
  run 0 trace

(* ---------------------------------------------------------------- *)
(* Oracle 9: refinement certificates round-trip and validate         *)
(* ---------------------------------------------------------------- *)

(* Every specification refines itself: driving two fresh communities
   loaded from the same source in lock step can never diverge.  The
   oracle records that self-refinement as a certificate and checks the
   whole trust chain — the encoding round-trips bit-identically, the
   independent {!Validator} accepts the genuine certificate, and it
   rejects each semantic tamper class (flipped verdict, corrupted
   digest, dropped edge).  Tampers are applied to the decoded record
   and re-encoded, so the CRC frame is valid and only semantic
   validation can catch them.  Both sides load via {!Compile.load} —
   the same entry point the validator replays through. *)

let certificate src _trace =
  let oracle = "certificate" in
  let load () =
    match Compile.load src with
    | Ok (c, _) -> Ok c
    | Error e -> Error e
  in
  match (load (), load ()) with
  | Error e, _ | _, Error e ->
      failf "load" "%s: spec failed to compile: %s" oracle e
  | Ok abs_c, Ok conc_c -> (
      let tpls =
        Hashtbl.fold (fun _ t acc -> t :: acc) abs_c.Community.templates []
        |> List.filter (fun t -> t.Template.t_kind = `Class)
        |> List.sort (fun a b ->
               compare a.Template.t_name b.Template.t_name)
      in
      let first_of ty =
        match Refinement.default_pool ty with v :: _ -> Some v | [] -> None
      in
      let try_create c (tpl : Template.t) =
        let key_opt =
          match tpl.Template.t_id_fields with
          | [ (_, ty) ] -> first_of ty
          | fields ->
              let vs =
                List.filter_map
                  (fun (n, ty) ->
                    Option.map (fun v -> (n, v)) (first_of ty))
                  fields
              in
              if List.length vs = List.length fields then
                Some (Value.Tuple vs)
              else None
        in
        let args =
          match
            List.find_opt
              (fun (ed : Template.event_def) ->
                ed.Template.ed_kind = Ast.Ev_birth)
              tpl.Template.t_events
          with
          | Some ed -> List.filter_map first_of ed.Template.ed_params
          | None -> []
        in
        match key_opt with
        | None -> None
        | Some key -> (
            match
              Engine.create c ~cls:tpl.Template.t_name ~key ~args ()
            with
            | Ok _ -> Some (key, args)
            | Error _ -> None)
      in
      let creatable =
        List.find_map
          (fun tpl ->
            match try_create abs_c tpl with
            | Some (key, args) -> (
                match try_create conc_c tpl with
                | Some _ -> Some (tpl, key, args)
                | None -> None)
            | None -> None)
          tpls
      in
      match creatable with
      | None -> Ok () (* no class instance creatable: nothing to certify *)
      | Some (tpl, key, args) -> (
          let cls = tpl.Template.t_name in
          let alphabet =
            let rec take n = function
              | x :: r when n > 0 -> x :: take (n - 1) r
              | _ -> []
            in
            take 4 (Refinement.candidates ~max_per_event:2 tpl)
          in
          let impl = Implementation.make ~abs_class:cls ~conc_class:cls () in
          let builder =
            Certificate.builder ~abs_src:src ~conc_src:src ~impl
              ~abs_key:key ~conc_key:key ~abs_args:args ~conc_args:args
              ~alphabet:
                (List.map
                   (fun c -> (c.Refinement.ev_name, c.Refinement.ev_args))
                   alphabet)
              ~depth:2 ()
          in
          let report =
            Refinement.check ~record:builder ~impl
              ~abs:{ Refinement.community = abs_c; id = Ident.make cls key }
              ~conc:{ Refinement.community = conc_c; id = Ident.make cls key }
              ~alphabet ~depth:2 ()
          in
          match report.Refinement.verdict with
          | Error cx ->
              failf oracle "self-refinement reported a counterexample: %s"
                (Format.asprintf "%a" Refinement.pp_counterexample cx)
          | Ok () -> (
              let cert = Certificate.finish builder in
              let enc = Certificate.encode cert in
              match Certificate.decode enc with
              | Error e -> failf oracle "genuine certificate fails to decode: %s" e
              | Ok cert' ->
                  if Certificate.encode cert' <> enc then
                    failf oracle "encode . decode . encode is not the identity"
                  else begin
                    match Validator.validate cert with
                    | Error e ->
                        failf oracle "validator rejects genuine certificate: %s" e
                    | Ok _ -> (
                        let expect_reject what mutated =
                          match mutated with
                          | None -> Ok () (* tamper not applicable *)
                          | Some m -> (
                              match
                                Validator.validate_string
                                  (Certificate.encode m)
                              with
                              | Error _ -> Ok ()
                              | Ok _ ->
                                  failf oracle
                                    "validator accepts certificate with %s"
                                    what)
                        in
                        let flipped =
                          match cert.Certificate.edges with
                          | [] -> None
                          | e :: rest ->
                              let verdict =
                                match e.Certificate.e_verdict with
                                | Certificate.E_ok _ -> Certificate.E_stuck
                                | _ -> Certificate.E_ok e.Certificate.e_pre
                              in
                              let e' =
                                {
                                  e with
                                  Certificate.e_verdict = verdict;
                                  e_oblig =
                                    Certificate.oblig_of_verdict
                                      e.Certificate.e_event verdict;
                                }
                              in
                              Some
                                {
                                  cert with
                                  Certificate.edges = e' :: rest;
                                }
                        in
                        let corrupted =
                          (* rewrite one digest everywhere it occurs, so
                             the structure stays consistent and only
                             replay can notice *)
                          let target = cert.Certificate.root.Certificate.p_abs in
                          let fake = String.map (fun c -> if c = target.[0] then (if c = 'f' then '0' else 'f') else c) target in
                          let swap d = if d = target then fake else d in
                          let swap_pair (p : Certificate.pair) =
                            { Certificate.p_abs = swap p.Certificate.p_abs;
                              p_conc = p.Certificate.p_conc }
                          in
                          Some
                            {
                              cert with
                              Certificate.root = swap_pair cert.Certificate.root;
                              nodes =
                                List.map
                                  (fun (p, d) -> (swap_pair p, d))
                                  cert.Certificate.nodes;
                              edges =
                                List.map
                                  (fun (e : Certificate.edge) ->
                                    {
                                      e with
                                      Certificate.e_pre =
                                        swap_pair e.Certificate.e_pre;
                                      e_verdict =
                                        (match e.Certificate.e_verdict with
                                        | Certificate.E_ok p ->
                                            Certificate.E_ok (swap_pair p)
                                        | v -> v);
                                    })
                                  cert.Certificate.edges;
                            }
                        in
                        let dropped =
                          match cert.Certificate.edges with
                          | [] -> None
                          | _ :: rest ->
                              Some { cert with Certificate.edges = rest }
                        in
                        match expect_reject "a flipped verdict" flipped with
                        | Error _ as e -> e
                        | Ok () -> (
                            match
                              expect_reject "a corrupted digest" corrupted
                            with
                            | Error _ as e -> e
                            | Ok () ->
                                expect_reject "a dropped edge" dropped))
                  end)))

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)
(* ---------------------------------------------------------------- *)

let oracle_names =
  [
    "dispatch"; "server"; "replay"; "journal"; "parallel"; "recovery";
    "sharded"; "linearizable"; "certificate";
  ]

let run_oracle name src trace =
  let f =
    match name with
    | "dispatch" -> dispatch
    | "server" -> server
    | "replay" -> replay
    | "journal" -> journal
    | "parallel" -> parallel
    | "recovery" -> recovery
    | "sharded" -> sharded
    | "linearizable" -> linearizable
    | "certificate" -> certificate
    | other -> invalid_arg ("Oracle.run_oracle: " ^ other)
  in
  try f src trace
  with e -> Error { oracle = "exception"; detail = Printexc.to_string e }

let check_all src trace =
  List.fold_left
    (fun acc name ->
      match acc with Error _ -> acc | Ok () -> run_oracle name src trace)
    (Ok ()) oracle_names
