(** Durability: effect records, the write-ahead log, snapshots and crash
    recovery.

    The invariant under test throughout: after any crash at a commit
    boundary, [Wal.recover] restores a state whose [Persist.save] is
    bit-identical to a clean sequential run of the committed prefix. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let load_spec src =
  match Compile.load src with
  | Ok (c, _) -> c
  | Error e -> Alcotest.failf "load failed: %s" e

let digest = Digest.to_hex (Digest.string Paper_specs.dept)

let temp_dir () =
  let path = Filename.temp_file "troll_wal" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let alice = Ident.make "PERSON" (Value.String "alice")
let d = Ident.make "DEPT" (Value.String "d")

(** One deterministic commit per call, in a fixed script; [run_steps c k]
    executes the first [k]. *)
let script =
  [|
    (fun c -> ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ()));
    (fun c ->
      ignore
        (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
           ~args:[ Value.Date 7749 ] ()));
    (fun c -> ignore (Engine.step c (Step.Fire (Event.make d "hire" [ Ident.to_value alice ]))));
    (fun c -> ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "bob") ()));
    (fun c -> ignore (Engine.step c (Step.Fire (Event.make d "fire" [ Ident.to_value alice ]))));
    (fun c -> ignore (Engine.step c (Step.Fire (Event.make d "hire" [ Ident.to_value alice ]))));
  |]

let n_steps = Array.length script

let run_steps c k =
  for i = 0 to k - 1 do
    script.(i) c
  done

(** [Persist.save] of a clean sequential run of the first [k] steps. *)
let clean_save k =
  let c = load_spec Paper_specs.dept in
  run_steps c k;
  Persist.save c

let recover_save dir =
  let c = load_spec Paper_specs.dept in
  match Wal.recover ~dir ~spec_digest:digest c with
  | Ok r -> (r, Persist.save c)
  | Error m -> Alcotest.failf "recover: %s" m

(* ------------------------------------------------------------------ *)
(* Effect delta + codec                                                *)
(* ------------------------------------------------------------------ *)

let test_effect_roundtrip () =
  let c = load_spec Paper_specs.dept in
  let effs = ref [] in
  c.Community.commit_hook <- Some (fun j -> effs := Effect_log.delta c j :: !effs);
  run_steps c n_steps;
  c.Community.commit_hook <- None;
  check tint "one delta per commit" n_steps (List.length !effs);
  (* codec round-trips every batch *)
  List.iter
    (fun batch ->
      match Effect_log.decode (Effect_log.encode batch) with
      | Ok batch' ->
          check tint "same number of effects" (List.length batch)
            (List.length batch')
      | Error m -> Alcotest.failf "decode: %s" m)
    !effs;
  (* replaying all deltas in order rebuilds the state bit-identically *)
  let c2 = load_spec Paper_specs.dept in
  List.iter
    (fun batch ->
      match Effect_log.apply c2 batch with
      | Ok () -> ()
      | Error m -> Alcotest.failf "apply: %s" m)
    (List.rev !effs);
  check tstr "replayed state is bit-identical" (Persist.save c) (Persist.save c2)

let test_commit_hook_skips_rollbacks () =
  let c = load_spec Paper_specs.dept in
  let fired = ref 0 in
  c.Community.commit_hook <- Some (fun _ -> incr fired);
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
  check tint "commit fires the hook" 1 !fired;
  (* probes always roll back: no hook *)
  Txn.probe c (fun () ->
      ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "ghost") ()));
  check tint "probe does not fire the hook" 1 !fired;
  (* a failing event rolls back: no hook *)
  (match Engine.step c (Step.Fire (Event.make d "closure" [])) with
  | Ok _ -> Alcotest.fail "closure on a non-existent DEPT should fail"
  | Error _ -> ());
  check tint "rollback does not fire the hook" 1 !fired

(* ------------------------------------------------------------------ *)
(* WAL round trip, torn tails, corruption                              *)
(* ------------------------------------------------------------------ *)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      let t =
        match Wal.attach ~dir ~spec_digest:digest c with
        | Ok (t, None) -> t
        | Ok (_, Some _) -> Alcotest.fail "fresh dir claimed to recover"
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c n_steps;
      check tint "one record per commit" n_steps (Wal.depth t);
      Wal.detach t;
      let r, saved = recover_save dir in
      check tint "all records replayed" n_steps r.Wal.r_replayed;
      check tbool "no torn tail" false r.Wal.r_torn_dropped;
      check tstr "bit-identical state" (clean_save n_steps) saved)

let test_wal_torn_final_record () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      let t =
        match Wal.attach ~dir ~spec_digest:digest c with
        | Ok (t, _) -> t
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c n_steps;
      Wal.detach t;
      (* tear the final record mid-frame: drop its trailing newline and
         the last two payload bytes *)
      let log = Filename.concat dir "wal.log" in
      let size = (Unix.stat log).Unix.st_size in
      Unix.truncate log (size - 3);
      let r, saved = recover_save dir in
      check tbool "torn tail dropped" true r.Wal.r_torn_dropped;
      check tint "all but the torn record replayed" (n_steps - 1) r.Wal.r_replayed;
      check tstr "state = committed prefix" (clean_save (n_steps - 1)) saved)

let test_wal_crc_corruption () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      let t =
        match Wal.attach ~dir ~spec_digest:digest c with
        | Ok (t, _) -> t
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c n_steps;
      Wal.detach t;
      (* flip one payload byte of the final (complete) record: the frame
         is structurally intact, so this must fail as corruption, not be
         dropped as a torn tail *)
      let log = Filename.concat dir "wal.log" in
      let size = (Unix.stat log).Unix.st_size in
      let fd = Unix.openfile log [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      let c2 = load_spec Paper_specs.dept in
      match Wal.recover ~dir ~spec_digest:digest c2 with
      | Error m ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          check tbool "reported as CRC mismatch" true (contains m "CRC")
      | Ok _ -> Alcotest.fail "recovered from a corrupt record")

let test_wal_rejects_wrong_spec () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      let t =
        match Wal.attach ~dir ~spec_digest:digest c with
        | Ok (t, _) -> t
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c 2;
      Wal.detach t;
      let c2 = load_spec Paper_specs.dept in
      match Wal.recover ~dir ~spec_digest:"0000deadbeef" c2 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted a different specification's WAL")

(* ------------------------------------------------------------------ *)
(* Snapshots and compaction                                            *)
(* ------------------------------------------------------------------ *)

let test_snapshot_only_recovery () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      let t =
        match Wal.attach ~dir ~spec_digest:digest c with
        | Ok (t, _) -> t
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c n_steps;
      (* compaction folds everything into the snapshot and empties the
         log: recovery replays nothing *)
      Wal.snapshot t;
      check tint "log empty after compaction" 0 (Wal.depth t);
      Wal.detach t;
      let r, saved = recover_save dir in
      check tint "nothing to replay" 0 r.Wal.r_replayed;
      check tstr "snapshot alone restores the state" (clean_save n_steps) saved)

let test_compaction_preserves_monitors () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      (* snapshot_every = 1: every commit batch triggers a compaction, so
         the recovered state comes entirely from snapshots *)
      let t =
        match Wal.attach ~dir ~spec_digest:digest ~snapshot_every:1 c with
        | Ok (t, _) -> t
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c 4 (* up to: alice hired, bob created *);
      Wal.detach t;
      let c2 = load_spec Paper_specs.dept in
      (match Wal.recover ~dir ~spec_digest:digest c2 with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "recover: %s" m);
      check tstr "bit-identical through compaction" (clean_save 4)
        (Persist.save c2);
      (* the temporal permission monitors survived compaction: alice was
         hired sometime-before, bob was not *)
      let bob = Ident.make "PERSON" (Value.String "bob") in
      check tbool "alice fireable after recovery" true
        (match Engine.step c2 (Step.Fire (Event.make d "fire" [ Ident.to_value alice ])) with
        | Ok _ -> true
        | Error _ -> false);
      check tbool "bob still not fireable" true
        (match Engine.step c2 (Step.Fire (Event.make d "fire" [ Ident.to_value bob ])) with
        | Error (Runtime_error.Permission_denied _) -> true
        | _ -> false))

let test_attach_resumes () =
  with_dir (fun dir ->
      (* first process *)
      let c = load_spec Paper_specs.dept in
      let t =
        match Wal.attach ~dir ~spec_digest:digest c with
        | Ok (t, _) -> t
        | Error m -> Alcotest.failf "attach: %s" m
      in
      run_steps c 3;
      Wal.detach t;
      (* second process: attach recovers, then continues the script *)
      let c2 = load_spec Paper_specs.dept in
      let t2, recovered =
        match Wal.attach ~dir ~spec_digest:digest c2 with
        | Ok (t2, Some r) -> (t2, r)
        | Ok (_, None) -> Alcotest.fail "non-empty dir not recovered"
        | Error m -> Alcotest.failf "re-attach: %s" m
      in
      check tint "records replayed on re-attach" 3 recovered.Wal.r_replayed;
      for i = 3 to n_steps - 1 do
        script.(i) c2
      done;
      Wal.detach t2;
      (* third process: the full script must be there *)
      let _, saved = recover_save dir in
      check tstr "state spans both attachments" (clean_save n_steps) saved)

(* ------------------------------------------------------------------ *)
(* Crash recovery: kill -9 at a commit boundary                        *)
(* ------------------------------------------------------------------ *)

let test_kill_recover () =
  with_dir (fun dir ->
      let k = 4 in
      let expected = clean_save k in
      match Unix.fork () with
      | 0 ->
          (* child: run the first [k] commits under the WAL, then die
             hard at the commit boundary — no atexit, no flush *)
          let code =
            let c = load_spec Paper_specs.dept in
            match Wal.attach ~dir ~spec_digest:digest ~fsync:`Batch c with
            | Ok _ ->
                run_steps c k;
                Unix.kill (Unix.getpid ()) Sys.sigkill;
                0
            | Error _ -> 1
          in
          Unix._exit code
      | pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WSIGNALED s when s = Sys.sigkill ->
              let r, saved = recover_save dir in
              check tint "all committed records survived" k r.Wal.r_replayed;
              check tstr "bit-identical to the pre-kill committed state"
                expected saved
          | _, _ -> Alcotest.fail "child was not killed as intended"))

let test_atomic_save_file () =
  with_dir (fun dir ->
      let c = load_spec Paper_specs.dept in
      run_steps c 3;
      let path = Filename.concat dir "state.trs" in
      Persist.save_file c path;
      (* overwrite: the previous contents are replaced wholesale *)
      run_steps c 1;
      script.(3) c;
      Persist.save_file c path;
      let c2 = load_spec Paper_specs.dept in
      (match Persist.load_file c2 path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "load_file: %s" m);
      check tstr "atomic save round-trips" (Persist.save c) (Persist.save c2);
      (* no temp droppings left behind *)
      check tbool "no temp files remain" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Full-table instance records (the format before upsert records)       *)
(* ------------------------------------------------------------------ *)

(* [recall]'s guard stays unsettled for two steps after each hire, so a
   replayed instance table must go on stepping instances no event of
   the later steps names. *)
let recall_spec = {|
object class PERSON
  identification pname: string;
  template
    events birth born;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|);
    events
      birth establishment;
      hire(|PERSON|);
      fire(|PERSON|);
      recall(|PERSON|);
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { previous(previous(after(hire(P)))) } recall(P);
end object class DEPT;
|}

let test_full_table_records_recover () =
  with_dir (fun dir ->
      let spec_digest = Digest.to_hex (Digest.string recall_spec) in
      let key i = Value.String (Printf.sprintf "p%d" i) in
      let p i = Ident.to_value (Ident.make "PERSON" (key i)) in
      let ev name i = Event.make d name [ p i ] in
      let c = load_spec recall_spec in
      (* the log a writer of full-table records would have produced:
         every upsert record replaced by the object's whole table *)
      let batches = ref [] and upserts = ref 0 in
      let full_table id idx =
        match (Community.object_exn c id).Obj_state.perm_states.(idx) with
        | Obj_state.PS_indexed tbl ->
            List.map
              (fun (k, s) -> (k, Monitor.state_to_bools s))
              (Param_table.bindings tbl)
        | _ -> Alcotest.fail "expected an instance table"
      in
      c.Community.commit_hook <-
        Some
          (fun j ->
            let batch =
              List.map
                (function
                  | Effect_log.E_perm_upsert (id, idx, _) ->
                      incr upserts;
                      Effect_log.E_perm_indexed (id, idx, full_table id idx)
                  | e -> e)
                (Effect_log.delta c j)
            in
            batches := batch :: !batches);
      for i = 0 to 2 do
        ignore (Engine.create c ~cls:"PERSON" ~key:(key i) ())
      done;
      ignore (Engine.create c ~cls:"DEPT" ~key:(Value.String "d") ());
      List.iter
        (fun e -> ignore (Engine.step c (Step.Fire e)))
        [ ev "hire" 0; ev "hire" 1; ev "fire" 0; ev "hire" 2; ev "hire" 0 ];
      c.Community.commit_hook <- None;
      check tbool "the run logged instance changes" true (!upserts > 0);
      let writer = load_spec recall_spec in
      let t =
        match Wal.attach ~dir ~spec_digest writer with
        | Ok (t, None) -> t
        | Ok (_, Some _) -> Alcotest.fail "fresh dir claimed to recover"
        | Error m -> Alcotest.failf "attach: %s" m
      in
      List.iter
        (fun batch ->
          (* each record carries the writer's version stamp, which a
             commit bumps *)
          Community.bump_version writer;
          Wal.append t batch)
        (List.rev !batches);
      Wal.detach t;
      let c2 = load_spec recall_spec in
      (match Wal.recover ~dir ~spec_digest c2 with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "recover: %s" m);
      check tstr "full-table records recover the dump" (Persist.save c)
        (Persist.save c2);
      (* the recovered tables go on stepping exactly like the live ones *)
      List.iter
        (fun e ->
          let verdict com = Result.is_ok (Engine.step com (Step.Fire e)) in
          check tbool "same verdict after recovery" (verdict c) (verdict c2);
          List.iter
            (fun i ->
              check tbool "same recall enabledness"
                (Engine.enabled c (ev "recall" i))
                (Engine.enabled c2 (ev "recall" i)))
            [ 0; 1; 2 ])
        [ ev "hire" 1; ev "fire" 2; ev "recall" 0; ev "hire" 2; ev "fire" 1 ];
      check tstr "same dump after further steps" (Persist.save c)
        (Persist.save c2))

(* Keys and values holding the record separators '|' and '\n': the
   effect records (context lines, attribute images, instance keys) and
   the snapshot are read back by their length prefixes. *)
let test_separators_in_strings_recover () =
  with_dir (fun dir ->
      let spec_digest = Digest.to_hex (Digest.string recall_spec) in
      let dept = Ident.make "DEPT" (Value.String "d|q") in
      let p k = Ident.to_value (Ident.make "PERSON" (Value.String k)) in
      let c = load_spec recall_spec in
      let t =
        match Wal.attach ~dir ~spec_digest c with
        | Ok (t, None) -> t
        | Ok (_, Some _) -> Alcotest.fail "fresh dir claimed to recover"
        | Error m -> Alcotest.failf "attach: %s" m
      in
      let ok what = function
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "%s: %s" what (Runtime_error.reason_to_string e)
      in
      List.iter
        (fun k -> ok "born" (Engine.create c ~cls:"PERSON" ~key:(Value.String k) ()))
        [ "b|x"; "a\nb" ];
      ok "establishment" (Engine.create c ~cls:"DEPT" ~key:(Value.String "d|q") ());
      ok "hire" (Engine.step c (Step.Fire (Event.make dept "hire" [ p "b|x" ])));
      (* a snapshot with the separators in it, then records after it *)
      Wal.snapshot t;
      ok "hire" (Engine.step c (Step.Fire (Event.make dept "hire" [ p "a\nb" ])));
      ok "fire" (Engine.step c (Step.Fire (Event.make dept "fire" [ p "b|x" ])));
      Wal.detach t;
      let c2 = load_spec recall_spec in
      (match Wal.recover ~dir ~spec_digest c2 with
      | Ok r -> check tint "records after the snapshot replayed" 2 r.Wal.r_replayed
      | Error m -> Alcotest.failf "recover: %s" m);
      check tstr "recovered dump" (Persist.save c) (Persist.save c2))

let () =
  Alcotest.run "wal"
    [
      ( "effect-log",
        [
          Alcotest.test_case "delta + codec + replay round-trip" `Quick
            test_effect_roundtrip;
          Alcotest.test_case "hook fires on commit only" `Quick
            test_commit_hook_skips_rollbacks;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append + recover round-trip" `Quick
            test_wal_roundtrip;
          Alcotest.test_case "torn final record dropped cleanly" `Quick
            test_wal_torn_final_record;
          Alcotest.test_case "CRC corruption detected" `Quick
            test_wal_crc_corruption;
          Alcotest.test_case "wrong specification rejected" `Quick
            test_wal_rejects_wrong_spec;
          Alcotest.test_case "separators inside string values recover"
            `Quick test_separators_in_strings_recover;
          Alcotest.test_case "full-table instance records recover" `Quick
            test_full_table_records_recover;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "empty WAL + snapshot-only recovery" `Quick
            test_snapshot_only_recovery;
          Alcotest.test_case "compaction preserves monitor states" `Quick
            test_compaction_preserves_monitors;
          Alcotest.test_case "attach resumes a previous WAL" `Quick
            test_attach_resumes;
        ] );
      ( "crash",
        [
          Alcotest.test_case "kill -9 at a commit boundary" `Quick
            test_kill_recover;
          Alcotest.test_case "save_file is atomic" `Quick test_atomic_save_file;
        ] );
    ]
