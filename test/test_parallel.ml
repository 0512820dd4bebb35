(** The parallel probe engine: frozen views stay immutable under
    concurrent probes, O(1) invalidation fires exactly on real changes,
    pool shutdown drains cleanly, jobs=1 is bit-identical to probing in
    place, a 4-domain pool probing stale views races harmlessly against
    a mutating main engine, and the society server's probe runs fan
    out at jobs > 1. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let load src =
  match Compile.load src with
  | Ok (c, _) -> c
  | Error e -> Alcotest.failf "load failed: %s" e

let counter_spec = {|
object class COUNTER
  identification id: string;
  template
    attributes n: integer;
    events
      birth init;
      death stop;
      incr;
      decr;
      add(integer);
    valuation
      variables k: integer;
      [init] n = 0;
      [incr] n = n + 1;
      [decr] n = n - 1;
      [add(k)] n = n + k;
    permissions
      { n > 0 } decr;
end object class COUNTER;
|}

let ident s = Ident.make "COUNTER" (Value.String s)

let fire c id name args =
  match Engine.step c (Step.Fire (Event.make id name args)) with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "fire failed: %s" (Runtime_error.reason_to_string r)

(* [n] counters on [c], counter [i] stepped up [i] times, so
   enabledness of [decr] varies across the society. *)
let populate c n =
  Array.init n (fun i ->
      let key = Printf.sprintf "c%d" i in
      (match Engine.create c ~cls:"COUNTER" ~key:(Value.String key) () with
      | Ok _ -> ()
      | Error r ->
          Alcotest.failf "create failed: %s"
            (Runtime_error.reason_to_string r));
      let id = ident key in
      for _ = 1 to i do
        fire c id "incr" []
      done;
      id)

let society n =
  let c = load counter_spec in
  (c, populate c n)

(* Every object crossed with every parameterless non-birth event. *)
let probe_batch ids =
  Array.concat
    (Array.to_list
       (Array.map
          (fun id ->
            Array.map
              (fun name -> Event.make id name [])
              [| "stop"; "incr"; "decr" |])
          ids))

(* ------------------------------------------------------------------ *)
(* View immutability under concurrent probes                           *)
(* ------------------------------------------------------------------ *)

let test_view_immutable () =
  let c, ids = society 8 in
  let batch = probe_batch ids in
  let expected = Array.map (Engine.enabled c) batch in
  let pre = Persist.save c in
  let view = View.freeze c in
  let pool = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 5 do
        let got = Engine.enabled_batch_par ~pool view batch in
        check tbool "parallel batch matches sequential" true (got = expected)
      done);
  check tbool "source image untouched by probes" true (Persist.save c = pre);
  check tbool "view still valid after probes" true (View.valid view)

(* ------------------------------------------------------------------ *)
(* Invalidation                                                        *)
(* ------------------------------------------------------------------ *)

let test_view_invalidation () =
  let c, ids = society 2 in
  let v1 = View.freeze c in
  check tbool "fresh view valid" true (View.valid v1);
  (* probes and rejected steps roll back and never invalidate *)
  ignore (Engine.enabled c (Event.make ids.(0) "incr" []));
  check tbool "probe keeps view valid" true (View.valid v1);
  (match Engine.step c (Step.Fire (Event.make ids.(0) "decr" [])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decr at n=0 should be rejected");
  check tbool "rejected step keeps view valid" true (View.valid v1);
  (* a committed step invalidates *)
  fire c ids.(0) "incr" [];
  check tbool "committed step invalidates" false (View.valid v1);
  let v2 = View.freeze c in
  check tbool "refrozen view valid" true (View.valid v2);
  (* a schema edit invalidates every view *)
  Community.add_enum c "COLOUR" [ "red"; "green" ];
  check tbool "schema edit invalidates" false (View.valid v2)

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:4 in
  check tint "pool size" 4 (Pool.jobs pool);
  let hits = Atomic.make 0 in
  Pool.run pool ~n:1000 (fun _ -> Atomic.incr hits);
  check tint "every index ran exactly once" 1000 (Atomic.get hits);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* a drained pool still answers, sequentially *)
  Atomic.set hits 0;
  Pool.run pool ~n:100 (fun _ -> Atomic.incr hits);
  check tint "post-shutdown dispatch runs sequentially" 100 (Atomic.get hits)

let test_pool_exception () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (match
         Pool.run pool ~n:500 (fun i -> if i = 123 then failwith "boom")
       with
      | () -> Alcotest.fail "expected the worker exception to surface"
      | exception Failure msg -> check Alcotest.string "message" "boom" msg);
      (* the pool survives a failed dispatch *)
      let hits = Atomic.make 0 in
      Pool.run pool ~n:100 (fun _ -> Atomic.incr hits);
      check tint "pool usable after exception" 100 (Atomic.get hits))

(* ------------------------------------------------------------------ *)
(* jobs = 1 bit-identity                                               *)
(* ------------------------------------------------------------------ *)

let test_jobs1_identity () =
  let c, ids = society 6 in
  let batch = probe_batch ids in
  let pool = Pool.create ~jobs:1 in
  let view = View.freeze c in
  let got = Engine.enabled_batch_par ~pool view batch in
  Array.iteri
    (fun i ev ->
      check tbool
        (Printf.sprintf "verdict of %s" (Event.to_string ev))
        (Engine.enabled c ev) got.(i))
    batch;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* 4-domain stress against a mutating main engine                      *)
(* ------------------------------------------------------------------ *)

let test_stress () =
  let c, ids = society 10 in
  let batch = probe_batch ids in
  let view = View.freeze c in
  (* frozen-time truth, computed from a private thaw *)
  let expected =
    let pc = View.thaw view in
    Array.map (Engine.enabled pc) batch
  in
  let pool = Pool.create ~jobs:3 in
  let mismatches = Atomic.make 0 in
  let prober =
    Domain.spawn (fun () ->
        for _ = 1 to 20 do
          let got = Engine.enabled_batch_par ~pool view batch in
          if got <> expected then Atomic.incr mismatches
        done)
  in
  (* meanwhile the main engine mutates the source community *)
  for round = 1 to 40 do
    fire c ids.(round mod 10) "incr" []
  done;
  Domain.join prober;
  Pool.shutdown pool;
  check tint "stale view keeps answering frozen-time truth" 0
    (Atomic.get mismatches);
  check tbool "view invalidated by the mutations" false (View.valid view);
  (* a fresh view agrees with the mutated engine *)
  let view' = View.freeze c in
  let pool' = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool')
    (fun () ->
      let got = Engine.enabled_batch_par ~pool:pool' view' batch in
      let expected' = Array.map (Engine.enabled c) batch in
      check tbool "fresh view matches fresh truth" true (got = expected'))

(* ------------------------------------------------------------------ *)
(* The society server's probe runs                                     *)
(* ------------------------------------------------------------------ *)

(* Serve [lines] through a [jobs]-sized server on a ten-counter society
   over pipes; every frame arrives in the first wakeup, so they all run
   in one turn.  Returns the response lines. *)
let serve_counters ~jobs lines =
  let session =
    match Troll.Session.load counter_spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "load failed: %s" (Troll.Error.to_string e)
  in
  ignore (populate (Troll.Session.community session) 10);
  let server =
    Server.create ~config:{ Server.default_config with Server.jobs } session
  in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  ignore (Unix.write_substring req_w payload 0 (String.length payload));
  Unix.close req_w;
  Server.serve_fds server req_r resp_w;
  Unix.close req_r;
  Unix.close resp_w;
  In_channel.input_lines (Unix.in_channel_of_descr resp_r)

let probe_row name = List.assoc name (Trace.probe_stats_rows ())

(* A probe run of at least [Pool.small_batch_cutoff] enabledness checks
   still fans out at jobs > 1: one View per quiescent point, one
   parallel dispatch per run, and answers byte-equal to the jobs=1
   server's, which probes in place and takes no view. *)
let test_server_probe_fan_out () =
  let probes op =
    List.init 10 (fun i ->
        Printf.sprintf {|{"id":"%s%d","op":"%s","cls":"COUNTER","key":"c%d"}|}
          op i op i)
  in
  (* two runs of 10 requests x 3 parameterless events, either side of a
     committed step *)
  let lines =
    probes "enabled"
    @ [ {|{"id":"step","op":"fire","cls":"COUNTER","key":"c0","event":"incr"}|} ]
    @ probes "candidates"
  in
  check tbool "a run clears the cutoff" true (30 >= Pool.small_batch_cutoff);
  let taken = probe_row "views taken"
  and dispatched = probe_row "parallel dispatches" in
  let sequential = serve_counters ~jobs:1 lines in
  check tint "jobs=1 takes no view" taken (probe_row "views taken");
  check tint "jobs=1 never fans out" dispatched
    (probe_row "parallel dispatches");
  let parallel = serve_counters ~jobs:4 lines in
  check tint "one view per quiescent point" (taken + 2)
    (probe_row "views taken");
  check tint "one parallel dispatch per run" (dispatched + 2)
    (probe_row "parallel dispatches");
  check Alcotest.(list string) "answers identical" sequential parallel

let () =
  Alcotest.run "parallel"
    [
      ( "view",
        [
          Alcotest.test_case "immutable under concurrent probes" `Quick
            test_view_immutable;
          Alcotest.test_case "invalidation" `Quick test_view_invalidation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown drains" `Quick test_pool_shutdown;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
        ] );
      ( "identity",
        [
          Alcotest.test_case "jobs=1 bit-identical" `Quick
            test_jobs1_identity;
        ] );
      ( "stress",
        [ Alcotest.test_case "4-domain stress" `Quick test_stress ] );
      ( "server",
        [
          Alcotest.test_case "probe runs fan out at jobs > 1" `Quick
            test_server_probe_fan_out;
        ] );
    ]
