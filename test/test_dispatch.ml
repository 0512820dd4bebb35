(** Differential testing of compiled dispatch (satellite of the staged
    evaluator work): every scenario runs twice — once with
    [compiled_dispatch] on (the default) and once against the
    interpreted reference semantics — and the two runs must agree on
    script output, acceptance/rejection of every step, the exact error
    of every rejected step, and the bit-identical [Persist.save] image
    of the final community. *)

let check = Alcotest.check

let interpreted_config =
  { Community.default_config with Community.compiled_dispatch = false }

let load_pair src =
  let load config =
    match Troll.Session.load ~config src with
    | Ok s -> Troll.Session.system s
    | Error e -> Alcotest.failf "load failed: %s" (Troll.Error.to_string e)
  in
  (load Community.default_config, load interpreted_config)

(* bridges from the removed string-error wrappers to the engine API:
   every scenario below animates both systems of a [load_pair] *)
let fire sys target name args =
  Engine.fire sys.Troll.community (Event.make target name args)

let fire_seq sys events = Engine.fire_seq sys.Troll.community events
let fire_sync sys events = Engine.fire_sync sys.Troll.community events

let create sys ~cls ~key ?event ?(args = []) () =
  Engine.step sys.Troll.community (Step.Create { cls; key; event; args })

(** Run a script under both modes; output, first failure and persisted
    image must agree. *)
let diff_script name src script =
  let compiled, interp = load_pair src in
  let oc = Script.run_string compiled script in
  let oi = Script.run_string interp script in
  check
    Alcotest.(list string)
    (name ^ ": script output") oi.Script.output oc.Script.output;
  check
    Alcotest.(option string)
    (name ^ ": script failure") oi.Script.failed oc.Script.failed;
  check Alcotest.string (name ^ ": persisted image")
    (Persist.save interp.Troll.community)
    (Persist.save compiled.Troll.community)

(** Apply the same step sequence to both modes; each step must be
    accepted by both or rejected by both with the same error, and the
    final persisted images must be bit-identical. *)
let diff_steps name src (steps : (Troll.system -> Engine.step_result) list) =
  let compiled, interp = load_pair src in
  List.iteri
    (fun i f ->
      match (f compiled, f interp) with
      | Ok _, Ok _ -> ()
      | Error a, Error b ->
          check Alcotest.string
            (Printf.sprintf "%s: step %d error code" name i)
            (Runtime_error.reason_to_string b)
            (Runtime_error.reason_to_string a)
      | Ok _, Error r ->
          Alcotest.failf "%s: step %d accepted compiled, rejected interpreted (%s)"
            name i
            (Runtime_error.reason_to_string r)
      | Error r, Ok _ ->
          Alcotest.failf "%s: step %d rejected compiled (%s), accepted interpreted"
            name i
            (Runtime_error.reason_to_string r))
    steps;
  check Alcotest.string (name ^ ": persisted image")
    (Persist.save interp.Troll.community)
    (Persist.save compiled.Troll.community)

(* ------------------------------------------------------------------ *)
(* Example specifications, golden scenarios                            *)
(* ------------------------------------------------------------------ *)

(** §4 DEPT: permissions (state, indexed and class-quantified), the
    global interaction, and the full promotion / closure story —
    including the rejections along the way. *)
let test_dept_story () =
  let alice = Troll.ident "PERSON" (Value.String "alice") in
  let bob = Troll.ident "PERSON" (Value.String "bob") in
  let sales = Troll.ident "DEPT" (Value.String "sales") in
  diff_steps "dept" Paper_specs.dept
    [
      (fun s -> create s ~cls:"PERSON" ~key:(Value.String "alice") ());
      (fun s -> create s ~cls:"PERSON" ~key:(Value.String "bob") ());
      (fun s ->
        create s ~cls:"DEPT" ~key:(Value.String "sales")
          ~args:[ Value.Date 7749 ] ());
      (* birth of an already-living object *)
      (fun s ->
        create s ~cls:"DEPT" ~key:(Value.String "sales")
          ~args:[ Value.Date 7750 ] ());
      (* indexed permission: fire before any hire *)
      (fun s -> fire s sales "fire" [ Ident.to_value alice ]);
      (fun s -> fire s sales "hire" [ Ident.to_value alice ]);
      (* state permission: hiring a current employee *)
      (fun s -> fire s sales "hire" [ Ident.to_value alice ]);
      (fun s -> fire s sales "hire" [ Ident.to_value bob ]);
      (* global interaction: new_manager calls become_manager *)
      (fun s -> fire s sales "new_manager" [ Ident.to_value alice ]);
      (* quantified permission: closure while employees never fired *)
      (fun s -> fire s sales "closure" []);
      (fun s -> fire s sales "fire" [ Ident.to_value alice ]);
      (fun s -> fire s sales "fire" [ Ident.to_value bob ]);
      (fun s -> fire s sales "closure" []);
      (* events on the dead department *)
      (fun s -> fire s sales "hire" [ Ident.to_value bob ]);
      (* unknown event name *)
      (fun s -> fire s alice "promote_wrong" [ Value.Int 2 ]);
    ]

(** Company: phase birth (MANAGER view of PERSON), a phase-local static
    constraint, and death propagation to living phases. *)
let test_company_phases () =
  let key name = Value.Tuple [ ("Name", Value.String name);
                               ("Birthdate", Value.Date 0) ] in
  let pid name = Troll.ident "PERSON" (key name) in
  let mid name = Troll.ident "MANAGER" (key name) in
  diff_steps "company" Paper_specs.company
    [
      (fun s -> create s ~cls:"CAR" ~key:(Value.String "X-1") ());
      (fun s ->
        create s ~cls:"PERSON" ~key:(key "ada")
          ~args:[ Value.Money 9000; Value.String "R1" ] ());
      (* phase birth through the base event *)
      (fun s -> fire s (pid "ada") "become_manager" []);
      (fun s ->
        fire s (mid "ada") "assign_official_car"
          [ Ident.to_value (Troll.ident "CAR" (Value.String "X-1")) ]);
      (* the MANAGER static constraint rejects a low salary *)
      (fun s -> fire s (pid "ada") "ChangeSalary" [ Value.Money 4 ]);
      (fun s -> fire s (pid "ada") "ChangeSalary" [ Value.Money 9500 ]);
      (* death of the base aspect kills the phase *)
      (fun s -> fire s (pid "ada") "dies" []);
      (fun s -> fire s (mid "ada") "assign_official_car"
          [ Ident.to_value (Troll.ident "CAR" (Value.String "X-1")) ]);
    ]

(** emp_rel: interface-level permissions and the multi-micro-step
    ChangeSalary transaction. *)
let test_emp_rel () =
  let rel = Ident.singleton "emp_rel" in
  let insert n s sys =
    fire sys rel "InsertEmp" [ Value.String n; Value.Date 0; Value.Int s ]
  in
  diff_steps "emp_rel" Paper_specs.employee_implementation
    [
      insert "ada" 100;
      insert "ada" 200;
      (* duplicate key *)
      (fun s ->
        fire s rel "UpdateSalary"
          [ Value.String "ada"; Value.Date 0; Value.Int 150 ]);
      (fun s ->
        fire s rel "UpdateSalary"
          [ Value.String "bob"; Value.Date 0; Value.Int 150 ]);
      (* transaction calling: expands to three micro-steps *)
      (fun s ->
        fire s rel "ChangeSalary"
          [ Value.String "ada"; Value.Date 0; Value.Int 900 ]);
      (fun s -> fire s rel "CloseEmpRel" []);
      (* nonempty *)
      (fun s -> fire s rel "DeleteEmp" [ Value.String "ada"; Value.Date 0 ]);
      (fun s -> fire s rel "CloseEmpRel" []);
    ]

(** Library: scripts with views, the active clock, and event sharing. *)
let test_library_script () =
  diff_script "library" Paper_specs.library
    {|
      new BOOK("i1") acquire("SICP", science);
      new MEMBER("kim") join_library;
      MEMBER("kim").borrow(BOOK("i1"));
      show BOOK("i1").OnLoan;
      new LibraryClock(tuple()) start_clock(d"1991-06-01");
      active 100;
      show LibraryClock.Today;
      MEMBER("kim").return(BOOK("i1"));
      show BOOK("i1").OnLoan;
    |}

(** The dept script flow, including a show after every mutation. *)
let test_dept_script () =
  diff_script "dept script" Paper_specs.dept
    {|
      new PERSON("bob") born;
      new DEPT("hr") establishment(d"1990-01-01");
      DEPT("hr").hire(PERSON("bob"));
      show DEPT("hr").employees;
      DEPT("hr").new_manager(PERSON("bob"));
      show PERSON("bob").Grade;
      PERSON("bob").promote(7);
      show PERSON("bob").Grade;
    |}

(* ------------------------------------------------------------------ *)
(* Targeted semantics: conflicts, constraints, sync sharing            *)
(* ------------------------------------------------------------------ *)

(** Two valuation rules of the same event writing one attribute: a
    conflict exactly when the written values differ.  The duplicated
    target also disables the staged distinct-slot shortcut, so this
    exercises the hashtable conflict path under both modes. *)
let conflict_spec =
  {|
object class GADGET
  identification gid: string;
  template
    attributes n: integer; mark: integer;
    events birth make; death break; clash(integer, integer); bump;
    valuation
      variables a: integer; b: integer;
      [make] n = 0;
      [make] mark = 0;
      [bump] n = n + 1;
      [clash(a, b)] n = a;
      [clash(a, b)] n = b;
      [clash(a, b)] mark = a;
    constraints
      static n <= 3;
end object class GADGET;
|}

let test_conflicts_and_statics () =
  let g = Troll.ident "GADGET" (Value.String "g") in
  diff_steps "conflict" conflict_spec
    [
      (fun s -> create s ~cls:"GADGET" ~key:(Value.String "g") ());
      (* agreeing writes: no conflict *)
      (fun s -> fire s g "clash" [ Value.Int 2; Value.Int 2 ]);
      (* diverging writes: valuation conflict *)
      (fun s -> fire s g "clash" [ Value.Int 1; Value.Int 2 ]);
      (fun s -> fire s g "bump" []);
      (* static constraint violation *)
      (fun s -> fire s g "clash" [ Value.Int 9; Value.Int 9 ]);
      (fun s -> fire s g "break" []);
    ]

let temporal_spec =
  {|
object class ARM
  identification id: string;
  template
    attributes armed: bool;
    events birth init; arm; disarm; ping;
    valuation
      [init] armed = false;
      [arm] armed = true;
      [disarm] armed = false;
    constraints
      sometime(armed) => armed;
end object class ARM;
|}

let test_temporal_constraint () =
  let x = Troll.ident "ARM" (Value.String "x") in
  diff_steps "temporal" temporal_spec
    [
      (fun s -> create s ~cls:"ARM" ~key:(Value.String "x") ());
      (* quiescent steps before arming: monitors advance, nothing holds *)
      (fun s -> fire s x "ping" []);
      (fun s -> fire s x "arm" []);
      (* quiescent steps after arming keep the obligation *)
      (fun s -> fire s x "ping" []);
      (fun s -> fire s x "disarm" []);
      (fun s -> fire s x "ping" []);
    ]

(** Event sharing: two events in one synchronous step, and an atomic
    sequence whose failing tail rolls back the whole transaction. *)
let test_sync_and_seq () =
  let g = Troll.ident "GADGET" (Value.String "g") in
  diff_steps "sync/seq" conflict_spec
    [
      (fun s -> create s ~cls:"GADGET" ~key:(Value.String "g") ());
      (fun s ->
        fire_sync s
          [ Event.make g "clash" [ Value.Int 2; Value.Int 2 ];
            Event.make g "bump" [] ]);
      (* same-attribute disagreement across shared events *)
      (fun s ->
        fire_sync s
          [ Event.make g "clash" [ Value.Int 1; Value.Int 1 ];
            Event.make g "clash" [ Value.Int 2; Value.Int 2 ] ]);
      (* atomic sequence: the violating tail aborts the accepted head *)
      (fun s ->
        fire_seq s
          [ Event.make g "bump" []; Event.make g "clash" [ Value.Int 9; Value.Int 9 ] ]);
      (fun s -> fire s g "bump" []);
    ]

let () =
  Alcotest.run "dispatch-differential"
    [
      ( "examples",
        [
          Alcotest.test_case "dept story" `Quick test_dept_story;
          Alcotest.test_case "dept script" `Quick test_dept_script;
          Alcotest.test_case "company phases" `Quick test_company_phases;
          Alcotest.test_case "emp_rel transactions" `Quick test_emp_rel;
          Alcotest.test_case "library script" `Quick test_library_script;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "valuation conflicts and statics" `Quick
            test_conflicts_and_statics;
          Alcotest.test_case "temporal constraint" `Quick
            test_temporal_constraint;
          Alcotest.test_case "sync sharing and seq rollback" `Quick
            test_sync_and_seq;
        ] );
    ]
