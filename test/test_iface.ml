(** Interface classes (§5.1): projection authorization, derivation,
    selection dynamics, join views, and encapsulation of permissions. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let value = Alcotest.testable Value.pp Value.equal

let load src =
  match Troll.Session.load src with
  | Ok s -> Troll.Session.system s
  | Error e -> Alcotest.failf "load failed: %s" (Troll.Error.to_string e)

(* bridges from the removed string-error wrappers to the
   session/engine API *)
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

let view (sys : Troll.system) name = List.assoc_opt name sys.Troll.views

let view_exn sys name =
  match view sys name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no interface class %s" name)

let money u = Value.Money (Money.of_units u)

let person_key name =
  Value.Tuple [ ("Name", Value.String name); ("Birthdate", Value.Date 0) ]

let company () =
  let sys = load Paper_specs.company in
  let mk name salary dept =
    create_exn sys ~cls:"PERSON" ~key:(person_key name)
      ~args:[ money salary; Value.String dept ] ();
    Ident.make "PERSON" (person_key name)
  in
  (sys, mk)

let ok = function
  | Ok v -> v
  | Error r -> Alcotest.failf "unexpected: %s" (Runtime_error.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)
(* ------------------------------------------------------------------ *)

let test_projection_read () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let v = view_exn sys "SAL_EMPLOYEE" in
  let inst = [ ("PERSON", alice) ] in
  check value "projected attribute" (money 6000)
    (ok (Interface.attr v inst "Salary" []));
  check value "identification attribute" (Value.String "alice")
    (ok (Interface.attr v inst "Name" []))

let test_projection_hides () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let v = view_exn sys "SAL_EMPLOYEE" in
  let inst = [ ("PERSON", alice) ] in
  (match Interface.attr v inst "Dept" [] with
  | Error (Runtime_error.Unknown_attribute _) -> ()
  | _ -> Alcotest.fail "hidden attribute leaked");
  (* hidden event *)
  match Interface.fire v inst "move_dept" [ Value.String "Sales" ] with
  | Error (Runtime_error.Unknown_event _) -> ()
  | _ -> Alcotest.fail "hidden event fired"

let test_projection_fire () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let v = view_exn sys "SAL_EMPLOYEE" in
  let inst = [ ("PERSON", alice) ] in
  ignore (ok (Interface.fire v inst "ChangeSalary" [ money 6500 ]));
  check value "base state changed" (money 6500)
    (attr_exn sys alice "Salary")

let test_attr_and_event_names () =
  let sys, _ = company () in
  let v = view_exn sys "SAL_EMPLOYEE" in
  check (Alcotest.list Alcotest.string) "attrs"
    [ "Name"; "IncomeInYear"; "Salary" ]
    (Interface.attr_names v);
  check (Alcotest.list Alcotest.string) "events" [ "ChangeSalary" ]
    (Interface.event_names v)

(* ------------------------------------------------------------------ *)
(* Derivation                                                          *)
(* ------------------------------------------------------------------ *)

let test_parameterized_derived_attribute () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let v = view_exn sys "SAL_EMPLOYEE" in
  let inst = [ ("PERSON", alice) ] in
  check value "IncomeInYear(1991)" (money 81000)
    (ok (Interface.attr v inst "IncomeInYear" [ Value.Int 1991 ]));
  check value "IncomeInYear(1980) undefined" Value.Undefined
    (ok (Interface.attr v inst "IncomeInYear" [ Value.Int 1980 ]));
  (match Interface.attr v inst "IncomeInYear" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity violation accepted")

let test_derived_attribute () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let v = view_exn sys "SAL_EMPLOYEE2" in
  let inst = [ ("PERSON", alice) ] in
  check value "Salary * 13.5" (money 81000)
    (ok (Interface.attr v inst "CurrentIncomePerYear" []))

let test_derived_event () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let v = view_exn sys "SAL_EMPLOYEE2" in
  let inst = [ ("PERSON", alice) ] in
  ignore (ok (Interface.fire v inst "IncreaseSalary" []));
  check value "Salary * 1.1" (money 6600) (attr_exn sys alice "Salary");
  (* repeated applications compound *)
  ignore (ok (Interface.fire v inst "IncreaseSalary" []));
  check value "compounds" (money 7260) (attr_exn sys alice "Salary")

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

let test_selection_membership () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let _bob = mk "bob" 3000 "Sales" in
  let v = view_exn sys "RESEARCH_EMPLOYEE" in
  check tint "only research staff" 1 (List.length (Interface.extension v));
  check tbool "alice is member" true
    (Interface.member v [ ("PERSON", alice) ]);
  (* membership follows the state *)
  ignore (fire sys alice "move_dept" [ Value.String "Sales" ]);
  check tbool "alice left the view" false
    (Interface.member v [ ("PERSON", alice) ]);
  check tint "extension empty" 0 (List.length (Interface.extension v))

let test_selection_gates_access () =
  let sys, mk = company () in
  let bob = mk "bob" 3000 "Sales" in
  let v = view_exn sys "RESEARCH_EMPLOYEE" in
  let inst = [ ("PERSON", bob) ] in
  (match Interface.attr v inst "Salary" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-member observable");
  match Interface.fire v inst "ChangeSalary" [ money 9999 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-member manipulable"

(* ------------------------------------------------------------------ *)
(* Join views                                                          *)
(* ------------------------------------------------------------------ *)

let test_join_view () =
  let sys, mk = company () in
  let alice = mk "alice" 6000 "Research" in
  let bob = mk "bob" 3000 "Sales" in
  let research = Ident.make "DEPT" (Value.String "Research") in
  let sales = Ident.make "DEPT" (Value.String "Sales") in
  create_exn sys ~cls:"DEPT" ~key:research.Ident.key ();
  create_exn sys ~cls:"DEPT" ~key:sales.Ident.key ();
  let v = view_exn sys "WORKS_FOR" in
  check tint "empty before hiring" 0 (List.length (Interface.extension v));
  ignore (fire sys research "hire" [ Ident.to_value alice ]);
  ignore (fire sys sales "hire" [ Ident.to_value bob ]);
  check tint "one row per employment" 2 (List.length (Interface.extension v));
  (* derived attributes resolve through the bound instance variables *)
  let row_alice = [ ("P", alice); ("D", research) ] in
  check value "DeptName" (Value.String "Research")
    (ok (Interface.attr v row_alice "DeptName" []));
  check value "PersonName" (Value.String "alice")
    (ok (Interface.attr v row_alice "PersonName" []));
  (* cross pairs are not in the view *)
  check tbool "alice×Sales not a member" false
    (Interface.member v [ ("P", alice); ("D", sales) ]);
  (* tabulation gives the expected relation *)
  let rows = Interface.tabulate v in
  check tint "two tuples" 2 (List.length rows);
  ignore (fire sys research "fire" [ Ident.to_value alice ]);
  check tint "row disappears" 1 (List.length (Interface.tabulate v))

(* ------------------------------------------------------------------ *)
(* Permissions are encapsulated                                        *)
(* ------------------------------------------------------------------ *)

let test_view_respects_base_permissions () =
  let sys = load Paper_specs.employee_implementation in
  let key =
    Value.Tuple [ ("EmpName", Value.String "eve"); ("EmpBirth", Value.Date 0) ]
  in
  let v = view_exn sys "EMPL" in
  let inst = [ ("EMPL_IMPL", Ident.make "EMPL_IMPL" key) ] in
  (* creation through the view *)
  ignore (ok (Interface.fire v inst "HireEmployee" []));
  check value "initial salary through view" (Value.Int 0)
    (ok (Interface.attr v inst "Salary" []));
  ignore (ok (Interface.fire v inst "IncreaseSalary" [ Value.Int 5 ]));
  check value "updated" (Value.Int 5) (ok (Interface.attr v inst "Salary" []));
  (* death through the view; further updates rejected by the base *)
  ignore (ok (Interface.fire v inst "FireEmployee" []));
  match Interface.fire v inst "IncreaseSalary" [ Value.Int 5 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "event accepted on dead base object"

let test_view_unknown_interface () =
  let sys, _ = company () in
  check tbool "missing view" true (view sys "NOPE" = None)

let () =
  Alcotest.run "iface"
    [
      ( "projection",
        [
          Alcotest.test_case "read" `Quick test_projection_read;
          Alcotest.test_case "hiding" `Quick test_projection_hides;
          Alcotest.test_case "fire" `Quick test_projection_fire;
          Alcotest.test_case "name lists" `Quick test_attr_and_event_names;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "derived attribute (×13.5)" `Quick
            test_derived_attribute;
          Alcotest.test_case "parameterized derived attribute" `Quick
            test_parameterized_derived_attribute;
          Alcotest.test_case "derived event (×1.1)" `Quick test_derived_event;
        ] );
      ( "selection",
        [
          Alcotest.test_case "membership dynamics" `Quick
            test_selection_membership;
          Alcotest.test_case "gates access" `Quick test_selection_gates_access;
        ] );
      ( "join",
        [ Alcotest.test_case "WORKS_FOR" `Quick test_join_view ] );
      ( "encapsulation",
        [
          Alcotest.test_case "base permissions enforced" `Quick
            test_view_respects_base_permissions;
          Alcotest.test_case "unknown interface" `Quick
            test_view_unknown_interface;
        ] );
    ]
