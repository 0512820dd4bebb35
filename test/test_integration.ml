(** End-to-end integration: every paper example through the full public
    pipeline (parse → check → compile → animate), the script language,
    and cross-cutting flows. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let value = Alcotest.testable Value.pp Value.equal

let load src =
  match Troll.Session.load src with
  | Ok s -> Troll.Session.system s
  | Error e -> Alcotest.failf "load failed: %s" (Troll.Error.to_string e)

let accepted = function Ok _ -> true | Error _ -> false

(* bridges from the removed string-error wrappers to the
   session/engine API: the tests below animate a [Troll.system] *)
let fire sys target name args =
  Engine.step sys.Troll.community (Step.Fire (Event.make target name args))

let create_exn sys ~cls ~key ?event ?(args = []) () =
  match Engine.step sys.Troll.community (Step.Create { cls; key; event; args })
  with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r)

let attr_exn sys target name =
  match Troll.Session.attr (Troll.Session.of_system sys) target name with
  | Ok v -> v
  | Error e -> failwith (Troll.Error.to_string e)

let eval sys src =
  Result.map_error Troll.Error.to_string
    (Troll.Session.eval (Troll.Session.of_system sys) src)

let extension sys cls =
  Ident.Set.elements (Community.extension sys.Troll.community cls)

let view_exn sys name =
  match List.assoc_opt name sys.Troll.views with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no interface class %s" name)

(* ------------------------------------------------------------------ *)
(* §4 DEPT: the full promotion / closure story                        *)
(* ------------------------------------------------------------------ *)

let test_dept_story () =
  let sys = load Paper_specs.dept in
  let alice = Troll.ident "PERSON" (Value.String "alice") in
  let sales = Troll.ident "DEPT" (Value.String "sales") in
  create_exn sys ~cls:"PERSON" ~key:(Value.String "alice") ();
  create_exn sys ~cls:"DEPT" ~key:(Value.String "sales")
    ~args:[ Value.Date 7749 ] ();
  check value "est_date observed" (Value.Date 7749)
    (attr_exn sys sales "est_date");
  check tbool "fire before hire" false
    (accepted (fire sys sales "fire" [ Ident.to_value alice ]));
  check tbool "hire" true
    (accepted (fire sys sales "hire" [ Ident.to_value alice ]));
  check tbool "closure blocked" false
    (accepted (fire sys sales "closure" []));
  check tbool "fire" true
    (accepted (fire sys sales "fire" [ Ident.to_value alice ]));
  check tbool "closure" true (accepted (fire sys sales "closure" []));
  (* the department is gone *)
  check tbool "dept dead" true
    (Community.living sys.Troll.community sales = None);
  check tint "extension empty" 0 (List.length (extension sys "DEPT"))

let test_dept_eval_interface () =
  let sys = load Paper_specs.dept in
  create_exn sys ~cls:"PERSON" ~key:(Value.String "p") ();
  create_exn sys ~cls:"DEPT" ~key:(Value.String "d")
    ~args:[ Value.Date 0 ] ();
  let d = Troll.ident "DEPT" (Value.String "d") in
  ignore (fire sys d "hire" [ Ident.to_value (Troll.ident "PERSON" (Value.String "p")) ]);
  (match eval sys {|DEPT("d").employees|} with
  | Ok (Value.Set [ _ ]) -> ()
  | Ok v -> Alcotest.failf "unexpected %s" (Value.to_string v)
  | Error e -> Alcotest.fail e);
  (match eval sys {|card(DEPT("d").employees)|} with
  | Ok (Value.Int 1) -> ()
  | _ -> Alcotest.fail "card");
  match eval sys {|PERSON("p") in DEPT("d").employees|} with
  | Ok (Value.Bool true) -> ()
  | _ -> Alcotest.fail "membership"

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

let run_script sys src =
  let outcome = Script.run_string sys src in
  match outcome.Script.failed with
  | None -> outcome.Script.output
  | Some e -> Alcotest.failf "script failed: %s" e

let test_script_full_flow () =
  let sys = load Paper_specs.dept in
  let out =
    run_script sys
      {|
        new PERSON("bob") born;
        new DEPT("hr") establishment(d"1990-01-01");
        DEPT("hr").hire(PERSON("bob"));
        show DEPT("hr").employees;
        expect reject DEPT("hr").closure;
        DEPT("hr").fire(PERSON("bob"));
        DEPT("hr").closure;
      |}
  in
  check tint "seven outputs" 7 (List.length out)

let test_script_seq_atomicity () =
  let sys = load Paper_specs.dept in
  let outcome =
    Script.run_string sys
      {|
        new PERSON("bob") born;
        new DEPT("hr") establishment(d"1990-01-01");
        expect reject seq DEPT("hr").hire(PERSON("bob")); DEPT("hr").closure end;
        expect reject DEPT("hr").fire(PERSON("bob"));
      |}
  in
  check tbool "script succeeded" true (outcome.Script.failed = None)

let test_script_view_and_active () =
  let sys = load Paper_specs.library in
  let out =
    run_script sys
      {|
        new BOOK("i1") acquire("SICP", science);
        new MEMBER("kim") join_library;
        MEMBER("kim").borrow(BOOK("i1"));
        show BOOK("i1").OnLoan;
        new LibraryClock(tuple()) start_clock(d"1991-06-01");
        active 100;
        show LibraryClock.Today;
      |}
  in
  check tbool "clock ticked 7 times" true
    (List.exists (fun l -> l = "active: 7 event(s)") out);
  check tbool "date advanced" true
    (List.exists (fun l -> l = "LibraryClock.Today = 1991-06-08") out)

let test_script_goal_command () =
  let config =
    { Community.default_config with Community.record_history = true }
  in
  let sys =
    match Troll.Session.load ~config Paper_specs.dept with
    | Ok s -> Troll.Session.system s
    | Error e -> Alcotest.fail (Troll.Error.to_string e)
  in
  let out =
    run_script sys
      {|
        new PERSON("p") born;
        PERSON("p").promote(7);
        goal PERSON("p"): Grade >= 5;
        goal PERSON("p"): Grade >= 100;
        trace PERSON("p");
      |}
  in
  check tbool "achieved goal reported" true
    (List.exists
       (fun l ->
         String.length l > 0
         && (let rec f i =
               i + 8 <= String.length l
               && (String.sub l i 8 = "achieved" || f (i + 1))
             in
             f 0))
       out);
  check tbool "missed goal reported" true
    (List.exists
       (fun l ->
         let rec f i =
           i + 12 <= String.length l
           && (String.sub l i 12 = "NOT achieved" || f (i + 1))
         in
         f 0)
       out)

let test_script_parse_error_reported () =
  let sys = load Paper_specs.dept in
  let outcome = Script.run_string sys "new ;" in
  check tbool "reported" true (outcome.Script.failed <> None)

(* ------------------------------------------------------------------ *)
(* Troll API surface                                                   *)
(* ------------------------------------------------------------------ *)

let test_load_reports_check_errors () =
  match
    Troll.Session.load
      "object class X identification k: FROB; template events birth b; end \
       object class X;"
  with
  | Error e ->
      let e = Troll.Error.to_string e in
      check tbool "mentions unknown type" true
        (let rec find i =
           i + 4 <= String.length e
           && (String.sub e i 4 = "FROB" || find (i + 1))
         in
         find 0)
  | Ok _ -> Alcotest.fail "ill-typed spec loaded"

let test_load_reports_parse_errors () =
  match Troll.Session.load "object object object" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage loaded"

let test_pretty_roundtrip_via_api () =
  match Troll.parse_spec Paper_specs.company with
  | Error e -> Alcotest.fail (Troll.Error.to_string e)
  | Ok spec -> (
      let printed = Troll.pretty spec in
      match Troll.parse_spec printed with
      | Ok spec2 ->
          check Alcotest.string "stable" printed (Troll.pretty spec2)
      | Error e ->
          Alcotest.failf "reparse failed: %s" (Troll.Error.to_string e))

let test_warnings_carried () =
  let sys =
    load
      {|
object class NOBIRTH
  identification id: string;
  template
    events go;
end object class NOBIRTH;
|}
  in
  check tbool "warning kept" true (sys.Troll.diagnostics <> [])

(* ------------------------------------------------------------------ *)
(* The whole company flow through the public API                       *)
(* ------------------------------------------------------------------ *)

let test_company_flow () =
  let sys = load Paper_specs.company in
  let key name =
    Value.Tuple [ ("Name", Value.String name); ("Birthdate", Value.Date 0) ]
  in
  create_exn sys ~cls:"PERSON" ~key:(key "alice")
    ~args:[ Value.Money (Money.of_units 6000); Value.String "Research" ] ();
  create_exn sys ~cls:"DEPT" ~key:(Value.String "Research") ();
  let alice = Ident.make "PERSON" (key "alice") in
  let dept = Troll.ident "DEPT" (Value.String "Research") in
  ignore (fire sys dept "hire" [ Ident.to_value alice ]);
  ignore (fire sys dept "new_manager" [ Ident.to_value alice ]);
  (* phase created with inherited + own structure *)
  let mgr = Ident.as_class "MANAGER" alice in
  check tbool "manager aspect alive" true
    (Community.living sys.Troll.community mgr <> None);
  check tint "manager extension" 1 (List.length (extension sys "MANAGER"));
  (* view over base reflects updates made through the phase *)
  let v = view_exn sys "SAL_EMPLOYEE" in
  ignore (fire sys mgr "ChangeSalary" [ Value.Money (Money.of_units 9000) ]);
  (match Interface.attr v [ ("PERSON", alice) ] "Salary" [] with
  | Ok m -> check value "view sees phase update" (Value.Money (Money.of_units 9000)) m
  | Error r -> Alcotest.failf "%s" (Runtime_error.reason_to_string r));
  (* person death kills observability through views *)
  ignore (fire sys dept "fire" [ Ident.to_value alice ]);
  ignore (Engine.destroy sys.Troll.community ~id:alice ~event:"dies" ());
  check tbool "view membership gone" false
    (Interface.member v [ ("PERSON", alice) ])

(* ------------------------------------------------------------------ *)
(* emp_rel flows                                                       *)
(* ------------------------------------------------------------------ *)

let test_emp_rel_permissions () =
  let sys = load Paper_specs.employee_implementation in
  let rel = Ident.singleton "emp_rel" in
  let insert n s =
    fire sys rel "InsertEmp" [ Value.String n; Value.Date 0; Value.Int s ]
  in
  check tbool "first insert" true (accepted (insert "ada" 100));
  check tbool "duplicate key rejected" false (accepted (insert "ada" 200));
  check tbool "update existing" true
    (accepted
       (fire sys rel "UpdateSalary"
          [ Value.String "ada"; Value.Date 0; Value.Int 150 ]));
  check tbool "update missing rejected" false
    (accepted
       (fire sys rel "UpdateSalary"
          [ Value.String "bob"; Value.Date 0; Value.Int 150 ]));
  (* CloseEmpRel requires an empty relation *)
  check tbool "close nonempty rejected" false
    (accepted (fire sys rel "CloseEmpRel" []));
  ignore (fire sys rel "DeleteEmp" [ Value.String "ada"; Value.Date 0 ]);
  check tbool "close empty" true (accepted (fire sys rel "CloseEmpRel" []))

let test_change_salary_transaction () =
  let sys = load Paper_specs.employee_implementation in
  let rel = Ident.singleton "emp_rel" in
  ignore
    (fire sys rel "InsertEmp"
       [ Value.String "ada"; Value.Date 0; Value.Int 100 ]);
  (match
     fire sys rel "ChangeSalary"
       [ Value.String "ada"; Value.Date 0; Value.Int 900 ]
   with
  | Ok o -> check tint "three micro-steps" 3 (List.length o.Engine.committed)
  | Error r -> Alcotest.failf "%s" (Runtime_error.reason_to_string r));
  match eval sys "emp_rel.Emps" with
  | Ok (Value.Set [ Value.Tuple fields ]) ->
      check value "salary updated" (Value.Int 900)
        (Option.value ~default:Value.Undefined
           (List.assoc_opt "esalary" fields))
  | _ -> Alcotest.fail "unexpected relation state"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "integration"
    [
      ( "dept",
        [
          Alcotest.test_case "promotion/closure story" `Quick test_dept_story;
          Alcotest.test_case "eval interface" `Quick test_dept_eval_interface;
        ] );
      ( "script",
        [
          Alcotest.test_case "full flow" `Quick test_script_full_flow;
          Alcotest.test_case "seq atomicity" `Quick test_script_seq_atomicity;
          Alcotest.test_case "views and active" `Quick
            test_script_view_and_active;
          Alcotest.test_case "goal command" `Quick test_script_goal_command;
          Alcotest.test_case "parse errors" `Quick
            test_script_parse_error_reported;
        ] );
      ( "api",
        [
          Alcotest.test_case "check errors surfaced" `Quick
            test_load_reports_check_errors;
          Alcotest.test_case "parse errors surfaced" `Quick
            test_load_reports_parse_errors;
          Alcotest.test_case "pretty round-trip" `Quick
            test_pretty_roundtrip_via_api;
          Alcotest.test_case "warnings carried" `Quick test_warnings_carried;
        ] );
      ( "company",
        [ Alcotest.test_case "end-to-end flow" `Quick test_company_flow ] );
      ( "employee",
        [
          Alcotest.test_case "emp_rel permissions" `Quick
            test_emp_rel_permissions;
          Alcotest.test_case "ChangeSalary transaction" `Quick
            test_change_salary_transaction;
        ] );
    ]
