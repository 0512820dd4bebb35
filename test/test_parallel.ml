(** The parallel probe engine: frozen views stay immutable under
    concurrent probes, O(1) invalidation fires exactly on real changes,
    pool shutdown drains cleanly, jobs=1 is bit-identical to the
    sequential queries, and a 4-domain pool probing stale views races
    harmlessly against a mutating main engine. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstrings = Alcotest.(list string)

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
  match Engine.fire c (Event.make id name args) with
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
  (match Engine.fire c (Event.make ids.(0) "decr" []) with
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
  let doubled = Pool.map_array pool (fun x -> 2 * x) (Array.init 257 Fun.id) in
  check tbool "map_array preserves order" true
    (doubled = Array.init 257 (fun i -> 2 * i));
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
  let pool = Pool.create ~jobs:1 in
  let view = View.freeze c in
  Array.iter
    (fun id ->
      check tstrings "enabled_events identical"
        (Engine.enabled_events c id)
        (Engine.enabled_events_par ~pool view id);
      let seq = Engine.candidate_events c id in
      let par = Engine.candidate_events_par ~pool view id in
      check tbool "candidate names and types identical" true
        (seq = List.map (fun (n, p, _) -> (n, p)) par);
      List.iter
        (fun (n, params, verdict) ->
          match (params, verdict) with
          | [], Some b ->
              check tbool
                (Printf.sprintf "verdict of %s" n)
                (List.mem n (Engine.enabled_events c id))
                b
          | [], None -> Alcotest.failf "nullary %s undecided" n
          | _ :: _, None -> ()
          | _ :: _, Some _ -> Alcotest.failf "parameterized %s decided" n)
        par)
    ids;
  Pool.shutdown pool

(* The refinement checker must produce the same report with a pool as
   without — at jobs=1 trivially (same code path shape), and at jobs=4
   by the ordered branch-log merge. *)
let refinement_report pool =
  let mk () =
    let c = load counter_spec in
    (match Engine.create c ~cls:"COUNTER" ~key:(Value.String "probe") () with
    | Ok _ -> ()
    | Error r ->
        Alcotest.failf "create failed: %s" (Runtime_error.reason_to_string r));
    { Refinement.community = c; id = ident "probe" }
  in
  let tpl =
    match Community.find_template (mk ()).Refinement.community "COUNTER" with
    | Some t -> t
    | None -> Alcotest.fail "no COUNTER template"
  in
  Refinement.check ?pool
    ~impl:(Implementation.make ~abs_class:"COUNTER" ~conc_class:"COUNTER" ())
    ~abs:(mk ()) ~conc:(mk ())
    ~alphabet:(Refinement.candidates tpl)
    ~depth:3 ()

let test_refinement_identity () =
  let base = refinement_report None in
  let p1 = Pool.create ~jobs:1 in
  let p4 = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () ->
      List.iter
        (fun (label, pool) ->
          let r = refinement_report (Some pool) in
          check tbool (label ^ ": verdict") true
            (r.Refinement.verdict = base.Refinement.verdict);
          check tint (label ^ ": cases") base.Refinement.cases
            r.Refinement.cases;
          check tint (label ^ ": accepted") base.Refinement.accepted
            r.Refinement.accepted)
        [ ("jobs1", p1); ("jobs4", p4) ])

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
(* Speculative parallel commit                                          *)
(* ------------------------------------------------------------------ *)

(* [step_batch_par] promises bit-identity with the sequential loop:
   per-step results AND the final persisted image, for any batch and
   any pool size.  The reference runs on a clone of the same
   community. *)
let run_batch_identity name ~jobs steps_of =
  let c, ids = society 16 in
  let cref = Community.clone c in
  let steps = steps_of ids in
  let seq = Array.map (Engine.step cref) steps in
  let pool = Pool.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let par = Engine.step_batch_par ~pool c steps in
      check tint (name ^ ": result count") (Array.length seq)
        (Array.length par);
      Array.iteri
        (fun i r ->
          check tbool (Printf.sprintf "%s: step %d identical" name i) true
            (r = par.(i)))
        seq;
      check tbool (name ^ ": final images identical") true
        (Persist.save c = Persist.save cref))

(* counter 0 holds n=0, so its decr is rejected inside the group *)
let disjoint_steps ids =
  Array.init 16 (fun i ->
      if i = 0 then Step.Fire (Event.make ids.(i) "decr" [])
      else Step.Fire (Event.make ids.(i) "add" [ Value.Int i ]))

let conflicting_steps ids =
  Array.init 16 (fun _ -> Step.Fire (Event.make ids.(1) "incr" []))

let mixed_steps ids =
  Array.concat
    [
      Array.init 9 (fun i -> Step.Fire (Event.make ids.(i + 1) "incr" []));
      [|
        Step.Create
          { cls = "COUNTER"; key = Value.String "fresh"; event = None; args = [] };
        Step.Fire (Event.make (ident "fresh") "incr" []);
        Step.Destroy { id = ids.(2); event = None; args = [] };
        Step.Fire (Event.make ids.(2) "incr" []);
      |];
      Array.init 9 (fun i -> Step.Fire (Event.make ids.(i + 3) "add" [ Value.Int 2 ]));
    ]

let test_commit_disjoint () =
  Engine.reset_spec_stats ();
  run_batch_identity "disjoint jobs=4" ~jobs:4 disjoint_steps;
  let stat name =
    match List.assoc_opt name (Engine.spec_stats_rows ()) with
    | Some n -> n
    | None -> Alcotest.failf "no stats row %s" name
  in
  check tint "one speculative batch" 1 (stat "speculative batches");
  check tint "one group" 1 (stat "speculative groups");
  check tint "fifteen commits" 15 (stat "speculative commits");
  check tint "one reject" 1 (stat "speculative rejects")

let test_commit_conflicting () =
  run_batch_identity "conflicting jobs=4" ~jobs:4 conflicting_steps

let test_commit_mixed () =
  run_batch_identity "mixed jobs=4" ~jobs:4 mixed_steps

let test_commit_jobs1 () =
  run_batch_identity "disjoint jobs=1" ~jobs:1 disjoint_steps;
  run_batch_identity "mixed jobs=1" ~jobs:1 mixed_steps

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
          Alcotest.test_case "refinement report identical" `Quick
            test_refinement_identity;
        ] );
      ( "stress",
        [ Alcotest.test_case "4-domain stress" `Quick test_stress ] );
      ( "server",
        [
          Alcotest.test_case "probe runs fan out at jobs > 1" `Quick
            test_server_probe_fan_out;
        ] );
      ( "commit",
        [
          Alcotest.test_case "disjoint batch speculates" `Quick
            test_commit_disjoint;
          Alcotest.test_case "conflicting batch falls back" `Quick
            test_commit_conflicting;
          Alcotest.test_case "mixed batch stays ordered" `Quick
            test_commit_mixed;
          Alcotest.test_case "jobs=1 is the sequential loop" `Quick
            test_commit_jobs1;
        ] );
    ]
