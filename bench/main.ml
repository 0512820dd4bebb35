(** The experiment suite (DESIGN.md §5, EXPERIMENTS.md).

    The paper contains no tables or figures; every benchmark here
    regenerates one row/series of the substitute experiment index:

    - E1 parse, E2 check — front-end scaling in spec size;
    - E3 engine throughput vs community size (plain vs quantified
      permissions), and E3p the §3 DEPT's parametric [fire] permission
      against N PERSONs (a hire+fire pair must cost the same at N = 32
      and N = 1024: the run fails when its minor words grow past 1.5×);
    - E4 ablation: incremental permission monitors vs re-evaluating the
      temporal guard over the recorded trace;
    - E5 interface (view) indirection overhead;
    - E6 inheritance-schema closure;
    - E7 bounded refinement checking vs depth;
    - E8 calling-cascade cost vs chain depth;
    - E9 query-algebra operators vs relation size;
    - E10 rollback/probe ablation over the journaled transaction layer;
    - E11 access methods for the internal schema;
    - E12 compiled vs interpreted rule dispatch (accepted steps);
    - E13 persistence save/restore throughput;
    - E14 generated mixed workloads (the fuzzing generator's random
      communities and traces replayed through the engine);
    - E15 parallel-probe scaling: coalesced enabledness batches over
      frozen views at pool sizes 1/2/4/8;
    - E16 durability cost: script-layer animation steps (the [trollc
      run] path) over the E8 cascade, with no WAL, with WAL appends
      (group fsync deferred), and with an fsync per committed batch.

    [dune exec bench/main.exe] runs everything under bechamel and prints
    one OLS-estimated ns/run per benchmark.  [-- --quick] uses short
    direct timing loops (same workloads, coarser numbers).  [-- --filter
    E4] restricts to one experiment. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Benchmark definitions                                               *)
(* ------------------------------------------------------------------ *)

(* One benchmark arm: its name, and a set-up that returns the thunk to
   time and a release for what the set-up acquired.  Set-up runs only
   for the arms the filter keeps, right before the arm is measured, so
   an arm's pool (E15) lives exactly as long as the arm. *)
type arm = { name : string; setup : unit -> (unit -> unit) * (unit -> unit) }

(* an arm whose workload its family builds up front *)
let eager (name, fn) = { name; setup = (fun () -> (fn, ignore)) }

let ignore_outcome : Engine.step_result -> unit = function
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r)

let view_exn (sys : Troll.system) name =
  match List.assoc_opt name sys.Troll.views with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no interface class %s" name)

(* E1/E2 *)
let front_end_tests () =
  List.concat_map
    (fun n ->
      let src = Workload.spec_text n in
      let parsed =
        match Parser.spec src with Ok s -> s | Error _ -> assert false
      in
      [
        ((Printf.sprintf "E1 parse/%d" n), (fun () ->
               match Parser.spec src with
               | Ok _ -> ()
               | Error _ -> assert false));
        ((Printf.sprintf "E2 check/%d" n), (fun () -> ignore (Typecheck.check parsed)));
      ])
    [ 1; 10; 50 ]

(* E3 *)
let engine_tests () =
  List.map
    (fun m ->
      let c, ids = Workload.dept_community m in
      let i = ref 0 in
      ((Printf.sprintf "E3 engine/%d" m), (fun () ->
             let id = ids.(!i mod m) in
             incr i;
             ignore_outcome
               (Engine.fire c (Event.make id "fund" [ Value.Money 100 ])))))
    [ 10; 100; 1000 ]

let engine_quantified_tests () =
  List.map
    (fun m ->
      let c, q, persons = Workload.qdept_community m in
      let i = ref 0 in
      ((Printf.sprintf "E3q engine-quantified/%d" m), (fun () ->
             let p = persons.(!i mod m) in
             incr i;
             let name = if !i mod 2 = 0 then "hire" else "fire" in
             (* alternating hire/fire keeps the state bounded *)
             match Engine.fire c (Event.make q name [ Ident.to_value p ]) with
             | Ok _ | Error _ -> ())))
    [ 10; 100 ]

(* E3p: the §3 DEPT's parametric [fire] permission against N PERSONs it
   has all seen.  A step re-steps only the instances its event binds,
   so a hire+fire pair and the enabledness of fire(P) cost the same at
   every N. *)
let e3p_sizes = [ 32; 256; 1024 ]

let hire_fire_pair c dept p =
  ignore_outcome (Engine.fire c (Event.make dept "hire" [ p ]));
  ignore_outcome (Engine.fire c (Event.make dept "fire" [ p ]))

let engine_parametric_tests () =
  List.concat_map
    (fun n ->
      let arm name run =
        {
          name = Printf.sprintf "E3p %s/%d" name n;
          setup =
            (fun () ->
              let c, dept, persons = Workload.parametric_dept_community n in
              let i = ref 0 in
              ( (fun () ->
                  let p = persons.(!i mod n) in
                  incr i;
                  run c dept p),
                ignore ));
        }
      in
      [
        arm "engine-parametric" hire_fire_pair;
        arm "enabled-parametric" (fun c dept p ->
            ignore (Engine.enabled c (Event.make dept "fire" [ p ])));
      ])
    e3p_sizes

(* The scaling gate: minor words per hire+fire pair, which a
   single-domain run counts exactly, so the gate cannot flake. *)
let e3p_words_per_pair n =
  let c, dept, persons = Workload.parametric_dept_community n in
  let pairs = 256 in
  for i = 0 to 15 do
    hire_fire_pair c dept persons.(i mod n)
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to pairs - 1 do
    hire_fire_pair c dept persons.(i mod n)
  done;
  (Gc.minor_words () -. w0) /. float_of_int pairs

let e3p_gate () =
  let small = List.hd e3p_sizes and large = List.hd (List.rev e3p_sizes) in
  let ws = e3p_words_per_pair small and wl = e3p_words_per_pair large in
  let ratio = wl /. ws in
  Printf.printf
    "E3p minor words per hire+fire pair: %.0f at N = %d, %.0f at N = %d \
     (%.2fx, gate 1.50x)\n%!"
    ws small wl large ratio;
  if ratio > 1.5 then begin
    Printf.eprintf
      "E3p: a hire+fire pair allocates %.2fx more at N = %d than at N = %d\n"
      ratio large small;
    exit 1
  end

(* E4 *)
let monitor_tests () =
  List.concat_map
    (fun len ->
      let c, o, idx, pm, body = Workload.history_object len in
      let env = Env.of_list [ ("P", Value.String "emp") ] in
      let binds = [ ("P", Value.String "emp") ] in
      [
        ((Printf.sprintf "E4 monitor/%d" len), (fun () ->
               ignore (Engine.permission_holds c o idx pm ~env)));
        ((Printf.sprintf "E4 trace-eval/%d" len), (fun () ->
               ignore (Engine.naive_guard_value c o body ~binds)));
      ])
    [ 100; 1000; 10000 ]

(* E5 *)
let view_tests () =
  let sys, alice = Workload.company_with_views () in
  let c = sys.Troll.community in
  let o = Community.object_exn c alice in
  let sal = view_exn sys "SAL_EMPLOYEE" in
  let sal2 = view_exn sys "SAL_EMPLOYEE2" in
  let inst = [ ("PERSON", alice) ] in
  [
    ("E5 direct-read", (fun () -> ignore (Eval.read_attr c o "Salary" [])));
    ("E5 view-read", (fun () -> ignore (Interface.attr sal inst "Salary" [])));
    ("E5 view-derived-read", (fun () ->
           ignore (Interface.attr sal2 inst "CurrentIncomePerYear" [])));
    ("E5 direct-event", (fun () ->
           ignore_outcome
             (Engine.fire c
                (Event.make alice "ChangeSalary"
                   [ Value.Money (Money.of_units 6000) ]))));
    ("E5 view-event", (fun () ->
           ignore
             (Interface.fire sal inst "ChangeSalary"
                [ Value.Money (Money.of_units 6000) ])));
  ]

(* E6 *)
let schema_tests () =
  List.map
    (fun t ->
      let s = Workload.schema t in
      let i = ref 0 in
      ((Printf.sprintf "E6 schema-closure/%d" t), (fun () ->
             let n = Printf.sprintf "T%d" (!i mod t) in
             incr i;
             ignore (Schema.aspects_of s ~key:(Value.Int 0) n))))
    [ 10; 100; 1000 ]

(* E7 *)
let refinement_tests ~max_depth () =
  let abs, conc = Workload.employee_pair () in
  List.map
    (fun depth ->
      ((Printf.sprintf "E7 refine/%d" depth), (fun () ->
             let report =
               Refinement.check
                 ~impl:
                   (Implementation.make ~abs_class:"EMPLOYEE"
                      ~conc_class:"EMPL_IMPL" ())
                 ~abs ~conc ~alphabet:Workload.refinement_alphabet ~depth ()
             in
             match report.Refinement.verdict with
             | Ok () -> ()
             | Error _ -> failwith "refinement failed")))
    (List.filter (fun d -> d <= max_depth) [ 2; 3; 4; 5 ])

(* E8 *)
let cascade_tests () =
  List.map
    (fun d ->
      let c, head = Workload.cascade_community d in
      ((Printf.sprintf "E8 cascade/%d" d), (fun () ->
             ignore_outcome (Engine.fire c (Event.make head "pulse" [])))))
    [ 1; 4; 16; 64 ]

(* E9 *)
let query_tests () =
  List.concat_map
    (fun r ->
      let rel = Workload.relation r in
      let depts = Workload.dept_relation () in
      [
        ((Printf.sprintf "E9 select/%d" r), (fun () ->
               ignore
                 (Algebra.select
                    (fun v ->
                      match Value.field "esalary" v with
                      | Value.Int i -> i > 500
                      | _ -> false)
                    rel)));
        ((Printf.sprintf "E9 project/%d" r), (fun () -> ignore (Algebra.project [ "esalary" ] rel)));
        ((Printf.sprintf "E9 join/%d" r), (fun () -> ignore (Algebra.join rel depts)));
        ((Printf.sprintf "E9 sum/%d" r), (fun () -> ignore (Algebra.sum ~field:"esalary" rel)));
      ])
    [ 100; 1000 ]

(* E10: rollback ablation — a rejected transaction must undo everything;
   measure its cost against the matching accepted step *)
let rollback_tests () =
  let c, ids = Workload.dept_community 100 in
  let d = ids.(0) in
  [
    ( "E10 accepted-step",
      fun () ->
        ignore_outcome
          (Engine.fire c (Event.make d "fund" [ Value.Money 100 ])) );
    ( "E10 rejected-step",
      fun () ->
        (* hiring the same employee twice violates the permission *)
        match
          Engine.fire c (Event.make d "hire" [ Value.String "emp" ])
        with
        | Error _ -> ()
        | Ok _ -> failwith "expected rejection" );
    ( "E10 rejected-transaction",
      fun () ->
        match
          Engine.fire_seq c
            [ Event.make d "fund" [ Value.Money 100 ];
              Event.make d "hire" [ Value.String "emp" ] ]
        with
        | Error _ -> ()
        | Ok _ -> failwith "expected rejection" );
  ]

(* E10 (probes): enabledness-probe cost vs community size — the journal
   probe (Txn.probe under Engine.enabled) touches only the objects of
   the step and should stay flat as the society grows, while the old
   route, firing on a Community.clone (kept as the ablation arm), pays
   for copying every object *)
let probe_tests () =
  List.concat_map
    (fun m ->
      let c, ids = Workload.dept_community m in
      let i = ref 0 in
      let next () =
        let id = ids.(!i mod m) in
        incr i;
        Event.make id "fund" [ Value.Money 100 ]
      in
      [
        ( Printf.sprintf "E10 probe-journal/%d" m,
          fun () -> ignore (Engine.enabled c (next ())) );
        ( Printf.sprintf "E10 probe-clone/%d" m,
          fun () -> ignore_outcome (Engine.fire (Community.clone c) (next ()))
        );
      ])
    [ 10; 100; 1000 ]

(* E11: access methods for the internal schema — the paper's closing
   remark that emp_rel "may be implemented … using a B-tree or a hash
   table access method".  Point lookups: list scan (the relation value
   as the engine stores it) vs B-tree vs hash index. *)
let access_method_tests () =
  List.concat_map
    (fun r ->
      let keys = Array.init r (fun i -> Value.String (Printf.sprintf "e%d" i)) in
      let rows = List.init r (fun i -> (keys.(i), i)) in
      let rel =
        Workload.relation r (* list of tuples, keyed by ename *)
      in
      let bt = Btree.of_list rows in
      let h = Hash_index.of_list rows in
      let i = ref 0 in
      let probe () =
        let k = keys.(!i * 7919 mod r) in
        incr i;
        k
      in
      [
        ( Printf.sprintf "E11 list-scan/%d" r,
          fun () ->
            let k = probe () in
            ignore
              (List.find_opt
                 (fun row -> Value.equal (Value.field "ename" row) k)
                 rel) );
        ( Printf.sprintf "E11 btree/%d" r,
          fun () -> ignore (Btree.find bt (probe ())) );
        ( Printf.sprintf "E11 hash/%d" r,
          fun () -> ignore (Hash_index.find h (probe ())) );
      ])
    [ 100; 1000; 10000 ]

(* E12: compiled vs interpreted dispatch — the same accepted-step
   workload as E3, run against a community staged with compiled
   evaluators and against the interpreted reference path. *)
let dispatch_tests () =
  List.concat_map
    (fun m ->
      let compiled, cids = Workload.dept_community m in
      let interp, iids =
        Workload.dept_community
          ~config:
            {
              Community.default_config with
              Community.compiled_dispatch = false;
            }
          m
      in
      let ci = ref 0 and ii = ref 0 in
      [
        ( Printf.sprintf "E12 compiled/%d" m,
          fun () ->
            let id = cids.(!ci mod m) in
            incr ci;
            ignore_outcome
              (Engine.fire compiled
                 (Event.make id "fund" [ Value.Money 100 ])) );
        ( Printf.sprintf "E12 interpreted/%d" m,
          fun () ->
            let id = iids.(!ii mod m) in
            incr ii;
            ignore_outcome
              (Engine.fire interp (Event.make id "fund" [ Value.Money 100 ]))
        );
      ])
    [ 10; 100; 1000 ]

(* E13: persistence throughput — save and restore of a community *)
let persist_tests () =
  List.concat_map
    (fun m ->
      let c, _ = Workload.dept_community m in
      let dump = Persist.save c in
      let fresh () =
        match Compile.load Workload.dept_spec with
        | Ok (x, _) -> x
        | Error e -> failwith e
      in
      let target = fresh () in
      [
        ( Printf.sprintf "E13 save/%d" m,
          fun () -> ignore (Persist.save c) );
        ( Printf.sprintf "E13 restore/%d" m,
          fun () ->
            match Persist.load target dump with
            | Ok () -> ()
            | Error e -> failwith e );
      ])
    [ 10; 100; 1000 ]

(* E14: generated mixed workloads — the lib/gen fuzzing generator
   reused as a benchmark.  Unlike E3/E12's uniform accepted steps, a
   generated trace mixes creates, fires, syncs, sequences,
   transactions and destroys over specs with views, components and
   temporal permissions; replaying it cyclically keeps a stable mix of
   accepted and rejected steps, so this times the engine's full
   accept-or-rollback path. *)
let generated_tests () =
  let tolerate (_ : Engine.step_result) = () in
  List.map
    (fun seed ->
      let c, steps = Workload.generated_workload seed ~len:400 in
      let n = Array.length steps in
      let i = ref 0 in
      ( Printf.sprintf "E14 generated/seed%d" seed,
        fun () ->
          tolerate (Engine.step c steps.(!i mod n));
          incr i ))
    [ 1; 7 ]

(* E15: parallel-probe scaling — one coalesced enabledness batch over a
   frozen view of the largest generated workload at pool sizes 1/2/4/8.
   The jobs=1 arm is the sequential baseline the speedup divides by; on
   a single-core host the larger arms only measure scheduling
   overhead. *)
let parallel_tests () =
  let workload =
    lazy
      (let tolerate (_ : Engine.step_result) = () in
       let c, steps = Workload.generated_workload 1 ~len:400 in
       Array.iter (fun st -> tolerate (Engine.step c st)) steps;
       let view = View.freeze c in
       (* the batch: every living object x its parameterless events,
          tiled until the dispatch is big enough to amortise chunking *)
       let base =
         List.concat_map
           (fun (o : Obj_state.t) ->
             Array.to_list
               (Array.map
                  (fun (ed : Template.event_def) ->
                    Event.make o.Obj_state.id ed.Template.ed_name [])
                  (Engine.nullary_descriptors c o.Obj_state.template)))
           (Community.living_objects c)
         |> Array.of_list
       in
       if Array.length base = 0 then
         failwith "E15: workload left no living objects";
       let tile = (512 + Array.length base - 1) / Array.length base in
       let batch = Array.concat (List.init tile (fun _ -> base)) in
       (view, batch))
  in
  (* each arm owns its pool: created at set-up, shut down at release,
     so no other arm runs with parked domains *)
  List.map
    (fun jobs ->
      {
        name = Printf.sprintf "E15 probe-batch/jobs%d" jobs;
        setup =
          (fun () ->
            let view, batch = Lazy.force workload in
            let pool = Pool.create ~jobs in
            ( (fun () -> ignore (Engine.enabled_batch_par ~pool view batch)),
              fun () -> Pool.shutdown pool ));
      })
    [ 1; 2; 4; 8 ]

(* E16: durability cost, measured as animation steps per second
   through the script layer (the [trollc run] execution path: parse
   once, then per step resolve the event term and fire).  The workload
   is the E8 calling cascade of depth 16 — one commit touching 17
   objects per step, hence one WAL record per step, the group-logging
   shape the WAL is built for.  Three arms: no WAL; a WAL appending
   every committed batch with the group fsync deferred (the server's
   mode, [`Never]); and an fsync per batch ([`Batch], the strictest
   policy).  The gap between the first two arms is the pure effect
   extraction + encoding + buffered-write overhead; the third adds the
   disk sync.

   Methodology: each arm runs the same 200-step script repeatedly on
   one community and reports the *fastest* repetition (minimum filters
   scheduler and GC noise; temporal history grows monotonically across
   repetitions, so every arm's minimum lands on the same early-state
   shape and the arms stay comparable).  Logs go to a fresh temp
   directory per arm, removed at exit.

   The *minimal* accepted step (a single E3 fire, ~0.9 us of engine
   work) pays the fixed per-record cost (~0.6 us: delta + codec + CRC
   + frame) un-amortised — that worst case is documented in
   docs/PERSISTENCE.md; this experiment reports the transactional
   shape. *)
let run_e16 () =
  let rm_dir dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  let depth = 16 and steps = 200 in
  let setup_script =
    let b = Buffer.create 512 in
    for i = depth - 1 downto 0 do
      if i = depth - 1 then
        Buffer.add_string b
          (Printf.sprintf "new NODE(\"n%d\") init(undefined);\n" i)
      else
        Buffer.add_string b
          (Printf.sprintf "new NODE(\"n%d\") init(NODE(\"n%d\"));\n" i (i + 1))
    done;
    Buffer.contents b
  in
  let step_script =
    let b = Buffer.create (steps * 20) in
    for _ = 1 to steps do
      Buffer.add_string b "NODE(\"n0\").pulse;\n"
    done;
    match Script.parse (Buffer.contents b) with
    | Ok s -> s
    | Error e -> failwith ("E16: script parse failed: " ^ e)
  in
  let arm name fsync reps =
    let sys = Workload.load_system_exn Workload.cascade_spec in
    let o = Script.run_string sys setup_script in
    (match o.Script.failed with
    | Some f -> failwith ("E16: setup failed: " ^ f)
    | None -> ());
    (match fsync with
    | None -> ()
    | Some policy -> (
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "troll-bench-%s-%d" name (Unix.getpid ()))
        in
        rm_dir dir;
        at_exit (fun () -> rm_dir dir);
        let spec_digest = Digest.to_hex (Digest.string Workload.cascade_spec) in
        match
          Wal.attach ~dir ~spec_digest ~fsync:policy ~snapshot_every:0
            sys.Troll.community
        with
        | Ok (t, _) -> at_exit (fun () -> Wal.detach t)
        | Error e -> failwith ("E16: WAL attach failed: " ^ e)));
    let run () =
      let o = Script.run sys step_script in
      match o.Script.failed with
      | Some f -> failwith ("E16: step failed: " ^ f)
      | None -> ()
    in
    run ();
    (* drop the previous arm's dead community before timing *)
    Gc.compact ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      run ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    let ns = !best /. float_of_int steps *. 1e9 in
    Printf.printf "%-44s %16.1f %10.0f\n"
      (Printf.sprintf "E16 %s/%d" name depth)
      ns (1e9 /. ns)
  in
  Printf.printf "%-44s %16s %10s\n" "benchmark" "ns/step" "steps/s";
  Printf.printf "%s\n" (String.make 72 '-');
  (* the fsync arm syncs per step: keep its repetitions low *)
  arm "wal-off" None 50;
  arm "wal-on" (Some `Never) 50;
  arm "wal-fsync" (Some `Batch) 3

let all_tests ~quick () =
  List.map eager
    (front_end_tests ()
    @ engine_tests ()
    @ engine_quantified_tests ())
  @ engine_parametric_tests ()
  @ List.map eager
      (monitor_tests ()
      @ view_tests ()
      @ schema_tests ()
      @ refinement_tests ~max_depth:(if quick then 4 else 5) ()
      @ cascade_tests ()
      @ query_tests ()
      @ rollback_tests ()
      @ probe_tests ()
      @ access_method_tests ()
      @ dispatch_tests ()
      @ persist_tests ()
      @ generated_tests ())
  @ parallel_tests ()

(* ------------------------------------------------------------------ *)
(* Runners                                                             *)
(* ------------------------------------------------------------------ *)

let apply_filter ~filter benches =
  match filter with
  | None -> benches
  | Some f ->
      List.filter (fun a -> String.starts_with ~prefix:f a.name) benches

let run_bechamel benches =
  let tests =
    List.map
      (fun a ->
        Test.make_with_resource ~name:a.name Test.uniq ~allocate:a.setup
          ~free:(fun (_, release) -> release ())
          (Staged.stage (fun (fn, _) -> fn ())))
      benches
  in
  let grouped = Test.make_grouped ~name:"troll" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, est, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Printf.printf "%-44s %16s %10s\n" "benchmark" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (name, est, r2) ->
      Printf.printf "%-44s %16.1f %10.4f\n" name est r2)
    rows

(* quick mode: direct timing, one row per benchmark *)
let time_once f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

let run_quick benches =
  Printf.printf "%-44s %16s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun a ->
      let fn, release = a.setup () in
      (* drain garbage left by earlier rows — the workloads stay live,
         and a major slice landing mid-row skews the 50 ms window *)
      Gc.major ();
      (* warm up, then time enough repetitions for >= 50 ms *)
      fn ();
      let reps = ref 1 in
      let elapsed = ref (time_once fn) in
      while !elapsed < 0.05 && !reps < 1_000_000 do
        reps := !reps * 4;
        elapsed :=
          time_once (fun () ->
              for _ = 1 to !reps do
                fn ()
              done)
      done;
      release ();
      Printf.printf "%-44s %16.1f\n" a.name
        (!elapsed /. float_of_int !reps *. 1e9))
    benches

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let filter =
    let rec find = function
      | "--filter" :: f :: _ -> Some f
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let e16_wanted =
    match filter with
    | None -> true
    | Some f ->
        String.length f >= 1
        && (String.length f <= 3
            && f = String.sub "E16" 0 (String.length f)
           || String.length f > 3 && String.sub f 0 3 = "E16")
  in
  let e16_only =
    e16_wanted && match filter with Some _ -> true | None -> false
  in
  (* the suite's workloads are constructed eagerly and stay live for
     its whole run; keep them scoped to this call so E16's GC-sensitive
     timing below doesn't inherit the heap *)
  let run_suite () =
    let benches = apply_filter ~filter (all_tests ~quick ()) in
    if List.exists (fun a -> String.starts_with ~prefix:"E3p" a.name) benches
    then e3p_gate ();
    if benches <> [] then
      if quick then run_quick benches else run_bechamel benches
  in
  if not e16_only then run_suite ();
  (* E16 measures whole script repetitions itself (its per-arm state
     and WAL handles don't fit a per-call thunk), so it runs outside
     both harnesses *)
  if e16_wanted then begin
    Gc.compact ();
    run_e16 ()
  end
