(** Sharded object societies: partition maps, the two-phase decision
    and its failure paths, and shard cells against one session.

    The invariants under test: classes that can interact within one
    synchronous step are never split across shards; a cross-shard step
    either commits on every owner or leaves every owner bit-identical
    (by [Persist.save]) to its pre-step state; and a trace routed over
    shard cells agrees with a single-engine run on every error code
    and on the final merged state dump. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let tstrs = Alcotest.(list string)

(* Two structurally identical but fully independent counter classes —
   two interaction groups, so any 2-shard map can separate them. *)
let cells =
  {|
object class CELLA
  identification name: string;
  template
    attributes Total: integer;
    events
      birth init;
      death drop;
      add(integer);
    valuation
      variables n: integer;
      [init] Total = 0;
      [add(n)] Total = Total + n;
    permissions
      variables n: integer;
      { Total + n >= 0 } add(n);
end object class CELLA;

object class CELLB
  identification name: string;
  template
    attributes Total: integer;
    events
      birth init;
      death drop;
      add(integer);
    valuation
      variables n: integer;
      [init] Total = 0;
      [add(n)] Total = Total + n;
    permissions
      variables n: integer;
      { Total + n >= 0 } add(n);
end object class CELLB;
|}

let load_spec src =
  match Compile.load src with
  | Ok (c, _) -> c
  | Error e -> Alcotest.failf "load failed: %s" e

let ok_map = function
  | Ok m -> m
  | Error e -> Alcotest.failf "map rejected: %s" e

let err_map what = function
  | Ok _ -> Alcotest.failf "%s: map unexpectedly accepted" what
  | Error _ -> ()

let a = Ident.make "CELLA" (Value.String "x")
let b = Ident.make "CELLB" (Value.String "x")
let add id n = Event.make id "add" [ Value.Int n ]

let create cls =
  Step.Create { cls; key = Value.String "x"; event = None; args = [] }

let born c =
  List.iter
    (fun cls ->
      match Engine.step c (create cls) with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "create %s: %s" cls (Runtime_error.reason_to_string r))
    [ "CELLA"; "CELLB" ]

(* ------------------------------------------------------------------ *)
(* Class groups and partition maps                                     *)
(* ------------------------------------------------------------------ *)

let test_groups_independent () =
  let c = load_spec cells in
  Alcotest.(check (list (list string)))
    "each independent class is its own group"
    [ [ "CELLA" ]; [ "CELLB" ] ]
    (Shard.groups c)

let test_groups_interacting () =
  (* dept.trl's global interaction DEPT.new_manager >> PERSON.become_manager
     forces both classes into one group *)
  let c = load_spec Paper_specs.dept in
  Alcotest.(check (list (list string)))
    "globally interacting classes are one group"
    [ [ "DEPT"; "PERSON" ] ] (Shard.groups c)

let test_auto_round_trip () =
  let c = load_spec cells in
  let map = Shard.auto c ~shards:2 in
  check tint "two shards" 2 (Shard.shards map);
  check tstr "wire form" "classes:2:CELLA=0,CELLB=1" (Shard.to_string map);
  let map' = ok_map (Shard.of_string c (Shard.to_string map)) in
  check tstr "of_string/to_string round-trip" (Shard.to_string map)
    (Shard.to_string map')

let test_map_validation () =
  let c = load_spec cells in
  err_map "unknown class"
    (Shard.of_classes c ~shards:2 [ ("CELLA", 0); ("CELLB", 1); ("GHOST", 0) ]);
  err_map "missing class" (Shard.of_classes c ~shards:2 [ ("CELLA", 0) ]);
  err_map "shard id out of range"
    (Shard.of_classes c ~shards:2 [ ("CELLA", 0); ("CELLB", 2) ]);
  let dept = load_spec Paper_specs.dept in
  err_map "interaction group split across shards"
    (Shard.of_classes dept ~shards:2 [ ("DEPT", 0); ("PERSON", 1) ])

let test_by_hash () =
  let c = load_spec cells in
  let map = ok_map (Shard.by_hash c ~shards:3) in
  check tstr "wire form" "hash:3" (Shard.to_string map);
  (* one identity's shard is stable, whatever its class *)
  let sa =
    match Shard.owner_ident map a with
    | Ok k -> k
    | Error r -> Alcotest.failf "owner: %s" (Runtime_error.reason_to_string r)
  in
  check tbool "owner in range" true (sa >= 0 && sa < 3);
  let dept = load_spec Paper_specs.dept in
  err_map "cross-identity interactions reject hash partitioning"
    (Shard.by_hash dept ~shards:2)

(* ------------------------------------------------------------------ *)
(* Step splitting                                                      *)
(* ------------------------------------------------------------------ *)

let split_exn map step =
  match Shard.split map step with
  | Ok parts -> parts
  | Error r -> Alcotest.failf "split: %s" (Runtime_error.reason_to_string r)

let test_split () =
  let c = load_spec cells in
  let map = Shard.auto c ~shards:2 in
  (match split_exn map (Step.Sync [ add a 1; add b 2 ]) with
  | [ (0, Step.Sync [ ea ]); (1, Step.Sync [ eb ]) ] ->
      check tstr "shard 0 keeps CELLA" "CELLA" ea.Event.target.Ident.cls;
      check tstr "shard 1 keeps CELLB" "CELLB" eb.Event.target.Ident.cls
  | parts ->
      Alcotest.failf "unexpected split: %s"
        (String.concat "; "
           (List.map
              (fun (k, s) -> Printf.sprintf "%d:%s" k (Step.to_string s))
              parts)));
  (* first-occurrence shard order, not numeric order *)
  (match split_exn map (Step.Sync [ add b 2; add a 1 ]) with
  | (1, _) :: (0, _) :: [] -> ()
  | _ -> Alcotest.fail "expected first-occurrence order [1; 0]");
  (* a step with no events routes to shard 0 *)
  (match split_exn map (Step.Txn []) with
  | [ (0, Step.Txn []) ] -> ()
  | _ -> Alcotest.fail "empty step should route to shard 0");
  match Shard.split map (Step.Fire (add (Ident.make "GHOST" (Value.String "x")) 1)) with
  | Error (Runtime_error.Unknown_class "GHOST") -> ()
  | _ -> Alcotest.fail "unknown class should fail the split"

(* ------------------------------------------------------------------ *)
(* The two-phase decision                                              *)
(* ------------------------------------------------------------------ *)

(** Two live cells plus the partition map routing between them. *)
let two_cells () =
  let facade = load_spec cells in
  let map = Shard.auto facade ~shards:2 in
  let c0 = load_spec cells and c1 = load_spec cells in
  born c0;
  born c1;
  (map, c0, c1)

let total c id =
  match Eval.read_attr c (Community.object_exn c id) "Total" [] with
  | Value.Int n -> n
  | v -> Alcotest.failf "Total: %s" (Value.to_string v)

(** An in-process participant over one cell's {!Engine.prepare}
    transaction (what {!Shard.coordinate} builds for each cell),
    counting the commits it is sent. *)
let local ?(commits = ref 0) c : Runtime_error.reason Shard.participant =
  let pending = ref None in
  let finish f =
    Option.iter f !pending;
    pending := None
  in
  {
    Shard.prepare =
      (fun s ->
        let r = Engine.prepare c s in
        pending := Result.to_option r;
        fun () -> Result.map Engine.outcome_of_prepared r);
    commit =
      (fun () ->
        incr commits;
        finish Engine.commit_prepared;
        fun () -> Ok ());
    abort = (fun () -> finish Engine.rollback_prepared; ignore);
  }

let test_coordinate_commit () =
  let map, c0, c1 = two_cells () in
  (match Shard.coordinate map [| c0; c1 |] (Step.Sync [ add a 5; add b 7 ]) with
  | Ok { Engine.committed; _ } ->
      check tint "one micro-step per shard" 2 (List.length committed)
  | Error r -> Alcotest.failf "coordinate: %s" (Runtime_error.reason_to_string r));
  check tint "CELLA committed on shard 0" 5 (total c0 a);
  check tint "CELLB committed on shard 1" 7 (total c1 b)

let test_coordinate_rejection_rolls_back_all () =
  let map, c0, c1 = two_cells () in
  let s0 = Persist.save c0 and s1 = Persist.save c1 in
  (* shard 0's half prepares fine; shard 1's violates the permission
     guard, so the coordinator must abort the prepared shard 0 *)
  (match
     Shard.coordinate map [| c0; c1 |] (Step.Sync [ add a 5; add b (-100) ])
   with
  | Error (Runtime_error.Permission_denied _) -> ()
  | Error r ->
      Alcotest.failf "expected permission_denied, got %s"
        (Runtime_error.reason_to_string r)
  | Ok _ -> Alcotest.fail "guard violation unexpectedly committed");
  check tstr "shard 0 rolled back bit-identically" s0 (Persist.save c0);
  check tstr "shard 1 rolled back bit-identically" s1 (Persist.save c1)

let test_coordinate_shard_death_mid_2pc () =
  let map, c0, _c1 = two_cells () in
  (* shard 1 dies between receiving the prepare and voting: its proxy
     reports Shard_unavailable.  Shard 0 has already acked its prepare;
     the coordinator must abort it and no commit may ever arrive. *)
  let commits = ref 0 and dead_aborts = ref 0 in
  let dead =
    {
      Shard.prepare = (fun _ () -> Error (Runtime_error.Shard_unavailable 1));
      commit = (fun () () -> Ok ());
      abort = (fun () -> incr dead_aborts; ignore);
    }
  in
  let s0 = Persist.save c0 in
  (match
     Shard.two_phase ~rank:Runtime_error.phase_rank
       [| local ~commits c0; dead |]
       (split_exn map (Step.Sync [ add a 5; add b 7 ]))
   with
  | Error (Runtime_error.Shard_unavailable 1) -> ()
  | Error r ->
      Alcotest.failf "expected shard_unavailable, got %s"
        (Runtime_error.reason_to_string r)
  | Ok _ -> Alcotest.fail "step committed despite a dead participant");
  check tint "commit never arrived on the survivor" 0 !commits;
  check tstr "survivor rolled back bit-identically" s0 (Persist.save c0);
  (* a vote that never arrived may still be a prepare in progress:
     the silent shard is sent an abort too *)
  check tint "the dead shard was sent an abort" 1 !dead_aborts

let test_coordinate_participant_raises () =
  let map, c0, _c1 = two_cells () in
  (* shard 1's participant raises while starting its prepare, after
     shard 0 prepared: shard 0 is aborted and the exception escapes *)
  let raising =
    {
      Shard.prepare = (fun _ -> failwith "participant crashed");
      commit = (fun () () -> Ok ());
      abort = (fun () -> ignore);
    }
  in
  let s0 = Persist.save c0 in
  (match
     Shard.two_phase ~rank:Runtime_error.phase_rank [| local c0; raising |]
       (split_exn map (Step.Sync [ add a 5; add b 7 ]))
   with
  | exception Failure m ->
      check tstr "the exception propagates" "participant crashed" m
  | _ -> Alcotest.fail "the participant's exception was swallowed");
  check tstr "shard 0 rolled back bit-identically" s0 (Persist.save c0);
  (* no journal was left open on shard 0: its next step commits *)
  (match Engine.step c0 (Step.Fire (add a 1)) with
  | Ok _ -> ()
  | Error r ->
      Alcotest.failf "next step: %s" (Runtime_error.reason_to_string r));
  check tint "the next step committed" 1 (total c0 a)

let test_coordinate_unknown_shard () =
  let map, c0, _c1 = two_cells () in
  (* the cell array is short one shard: routing CELLB's owner (shard 1)
     must fail with Unknown_shard, and the known shard must stay
     untouched even in a cross-shard step *)
  let s0 = Persist.save c0 in
  (match Shard.coordinate map [| c0 |] (Step.Fire (add b 1)) with
  | Error (Runtime_error.Unknown_shard 1) -> ()
  | _ -> Alcotest.fail "expected unknown_shard on the single-owner path");
  (match Shard.coordinate map [| c0 |] (Step.Sync [ add a 1; add b 1 ]) with
  | Error (Runtime_error.Unknown_shard 1) -> ()
  | _ -> Alcotest.fail "expected unknown_shard on the cross-shard path");
  check tstr "known shard untouched" s0 (Persist.save c0)

(* ------------------------------------------------------------------ *)
(* Shard cells against one session                                     *)
(* ------------------------------------------------------------------ *)

(** A mixed deterministic trace: births, single-shard steps, cross-shard
    syncs, a guaranteed rejection, a death. *)
let trace =
  [
    create "CELLA";
    create "CELLB";
    Step.Fire (add a 3);
    Step.Fire (add b 4);
    Step.Sync [ add a 2; add b 5 ];
    Step.Fire (add a (-100));  (* permission_denied *)
    Step.Sync [ add a (-1); add b (-100) ];  (* rejected cross-shard *)
    Step.Seq [ add a 1; add a 1 ];
    Step.Destroy { id = b; event = None; args = [] };
  ]

let code_of = function
  | Ok _ -> "ok"
  | Error r -> Runtime_error.code r

let session_exn what = function
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" what (Troll.Error.to_string e)

(** Both cells of a two-shard society under [map], each loaded as the
    shard servers of [trollc shard] load theirs. *)
let shard_cells map =
  Array.init 2 (fun k ->
      Troll.Session.community
        (session_exn "load_shard_cell"
           (Troll.Session.load_shard_cell ~map ~shard:k cells)))

(** The cells' dumps merged into one community, as the router's [save]
    merges its shards'. *)
let merged_save shards =
  let facade = load_spec cells in
  let dumps = Array.to_list (Array.map Persist.save shards) in
  match Persist.merge facade dumps with
  | Ok () -> Persist.save facade
  | Error m -> Alcotest.failf "merging the cells' dumps: %s" m

let test_sharded_session_differential () =
  let map = Shard.auto (load_spec cells) ~shards:2 in
  let shards = shard_cells (Shard.to_string map) in
  let single = session_exn "load" (Troll.Session.load cells) in
  List.iteri
    (fun i step ->
      let rs = Shard.coordinate map shards step in
      let r1 = Troll.Session.step single step in
      check tstr
        (Printf.sprintf "step %d: same error code" i)
        (code_of r1) (code_of rs))
    trace;
  check tstrs "same extension"
    (List.map Ident.to_string (Troll.Session.extension single "CELLA"))
    (List.concat_map
       (fun c ->
         List.map Ident.to_string
           (Ident.Set.elements (Community.extension c "CELLA")))
       (Array.to_list shards));
  (* the merged dump must be bit-identical to the single-engine dump *)
  check tstr "merged save is bit-identical" (Troll.Session.save single)
    (merged_save shards)

let test_sharded_session_explicit_map () =
  (* same trace under the flipped explicit map — the partitioning must
     not show through in the final state either *)
  let map_s = "classes:2:CELLA=1,CELLB=0" in
  let map = ok_map (Shard.of_string (load_spec cells) map_s) in
  let shards = shard_cells map_s in
  let single = session_exn "load" (Troll.Session.load cells) in
  List.iter
    (fun step ->
      ignore (Shard.coordinate map shards step);
      ignore (Troll.Session.step single step))
    trace;
  check tstr "flipped map, same merged save" (Troll.Session.save single)
    (merged_save shards)

let test_sharded_session_bad_map () =
  match
    Troll.Session.load_shard_cell ~map:"classes:2:CELLA=0" ~shard:0 cells
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete map unexpectedly accepted"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "maps",
        [
          Alcotest.test_case "independent classes, singleton groups" `Quick
            test_groups_independent;
          Alcotest.test_case "interacting classes, one group" `Quick
            test_groups_interacting;
          Alcotest.test_case "auto map wire round-trip" `Quick
            test_auto_round_trip;
          Alcotest.test_case "validation errors" `Quick test_map_validation;
          Alcotest.test_case "identity-hash partitioning" `Quick test_by_hash;
        ] );
      ( "split",
        [ Alcotest.test_case "per-shard decomposition" `Quick test_split ] );
      ( "coordinate",
        [
          Alcotest.test_case "cross-shard commit" `Quick test_coordinate_commit;
          Alcotest.test_case "rejection aborts every prepared shard" `Quick
            test_coordinate_rejection_rolls_back_all;
          Alcotest.test_case "shard death mid-2PC aborts the survivor" `Quick
            test_coordinate_shard_death_mid_2pc;
          Alcotest.test_case "a raising participant aborts the prepared" `Quick
            test_coordinate_participant_raises;
          Alcotest.test_case "unknown shard id" `Quick
            test_coordinate_unknown_shard;
        ] );
      ( "session",
        [
          Alcotest.test_case "sharded = single on a mixed trace" `Quick
            test_sharded_session_differential;
          Alcotest.test_case "flipped explicit map, same state" `Quick
            test_sharded_session_explicit_map;
          Alcotest.test_case "incomplete map rejected" `Quick
            test_sharded_session_bad_map;
        ] );
    ]
