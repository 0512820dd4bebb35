(** The company information system: phases ([MANAGER] as a role of
    [PERSON]), the complex object [TheCompany], global interactions and
    the interface classes of §5.1 — projection, derivation, selection
    and join views.

    Run with [dune exec examples/company.exe]. *)

(* bridges from the removed string-error wrappers to the
   session/engine API *)
let load_exn src =
  match Troll.Session.load src with
  | Ok s -> Troll.Session.system s
  | Error e -> failwith (Troll.Error.to_string e)

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

let view_exn (sys : Troll.system) name =
  match List.assoc_opt name sys.Troll.views with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no interface class %s" name)

let show label v = Printf.printf "  %-28s = %s\n" label (Value.to_string v)

let person_key name birth =
  Value.Tuple [ ("Name", Value.String name); ("Birthdate", Value.Date birth) ]

let () =
  print_endline "== company: phases, aggregation, interfaces ==";
  let sys = load_exn Paper_specs.company in
  let money u = Value.Money (Money.of_units u) in

  (* People. *)
  let d0 = Option.get (Date_adt.of_string "1960-05-01") in
  let alice = Troll.ident "PERSON" (person_key "alice" d0) in
  let bob = Troll.ident "PERSON" (person_key "bob" d0) in
  create_exn sys ~cls:"PERSON" ~key:alice.Ident.key
    ~args:[ money 6000; Value.String "Research" ] ();
  create_exn sys ~cls:"PERSON" ~key:bob.Ident.key
    ~args:[ money 3000; Value.String "Sales" ] ();

  (* Departments and the company as a complex object. *)
  let research = Troll.ident "DEPT" (Value.String "Research") in
  let sales = Troll.ident "DEPT" (Value.String "Sales") in
  create_exn sys ~cls:"DEPT" ~key:research.Ident.key ();
  create_exn sys ~cls:"DEPT" ~key:sales.Ident.key ();
  let company = Ident.singleton "TheCompany" in
  create_exn sys ~cls:"TheCompany" ~key:company.Ident.key
    ~args:[ Value.Date (Option.get (Date_adt.of_string "1991-01-02")) ] ();
  List.iter
    (fun d -> ignore (fire sys company "add_dept" [ Ident.to_value d ]))
    [ research; sales ];
  show "TheCompany.depts" (attr_exn sys company "depts");

  ignore (fire sys research "hire" [ Ident.to_value alice ]);
  ignore (fire sys sales "hire" [ Ident.to_value bob ]);

  (* Promotion: new_manager calls become_manager, which births the
     MANAGER phase of the same identity. *)
  print_endline "\n-- phases (roles) --";
  (match fire sys research "new_manager" [ Ident.to_value alice ] with
  | Ok o ->
      Printf.printf "  promotion step: %s\n"
        (String.concat ", "
           (List.map Event.to_string (List.concat o.Engine.committed)))
  | Error r -> Printf.printf "  REJECTED: %s\n" (Runtime_error.reason_to_string r));
  let alice_mgr = Ident.as_class "MANAGER" alice in
  let car = Troll.ident "CAR" (Value.String "BS-XY-12") in
  create_exn sys ~cls:"CAR" ~key:car.Ident.key ();
  ignore (fire sys alice_mgr "assign_official_car" [ Ident.to_value car ]);
  show "alice(as MANAGER).OfficialCar" (attr_exn sys alice_mgr "OfficialCar");
  (* inherited attribute through the phase *)
  show "alice(as MANAGER).Salary" (attr_exn sys alice_mgr "Salary");

  (* bob earns too little to become a manager: the MANAGER constraint
     [Salary >= 5.000] rejects the phase birth, and atomicity rolls the
     whole promotion back. *)
  (match fire sys sales "new_manager" [ Ident.to_value bob ] with
  | Ok _ -> print_endline "  bob promoted (unexpected!)"
  | Error r ->
      Printf.printf "  bob's promotion rejected: %s\n"
        (Runtime_error.reason_to_string r));
  show "Sales.manager (unchanged)" (attr_exn sys sales "manager");

  (* Interfaces. *)
  print_endline "\n-- interfaces (views) --";
  let sal = view_exn sys "SAL_EMPLOYEE" in
  let inst_alice = [ ("PERSON", alice) ] in
  (match Interface.attr sal inst_alice "Salary" [] with
  | Ok v -> show "SAL_EMPLOYEE(alice).Salary" v
  | Error r -> print_endline (Runtime_error.reason_to_string r));
  (* the view hides Dept *)
  (match Interface.attr sal inst_alice "Dept" [] with
  | Ok _ -> print_endline "  view leaked a hidden attribute!"
  | Error _ ->
      print_endline "  SAL_EMPLOYEE(alice).Dept      hidden (projection)");

  let sal2 = view_exn sys "SAL_EMPLOYEE2" in
  (match Interface.attr sal2 inst_alice "CurrentIncomePerYear" [] with
  | Ok v -> show "yearly income (derived *13.5)" v
  | Error r -> print_endline (Runtime_error.reason_to_string r));
  (match Interface.fire sal2 inst_alice "IncreaseSalary" [] with
  | Ok _ -> show "Salary after IncreaseSalary" (attr_exn sys alice "Salary")
  | Error r -> print_endline (Runtime_error.reason_to_string r));

  let research_view = view_exn sys "RESEARCH_EMPLOYEE" in
  Printf.printf "  RESEARCH_EMPLOYEE extension: %d member(s)\n"
    (List.length (Interface.extension research_view));
  List.iter
    (fun row -> Printf.printf "    %s\n" (Value.to_string row))
    (Interface.tabulate research_view);

  print_endline "\n-- join view WORKS_FOR --";
  let works_for = view_exn sys "WORKS_FOR" in
  List.iter
    (fun row -> Printf.printf "    %s\n" (Value.to_string row))
    (Interface.tabulate works_for)
