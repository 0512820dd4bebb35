(** §5.2 end-to-end: formal implementation of [EMPLOYEE] over the
    relation object [emp_rel], hidden behind the [EMPL] interface, and
    the bounded refinement check with its proof obligations.

    Run with [dune exec examples/employee_refinement.exe]. *)

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

let key name =
  Value.Tuple [ ("EmpName", Value.String name); ("EmpBirth", Value.Date 0) ]

let () =
  print_endline "== stepwise refinement: EMPLOYEE over emp_rel ==";

  (* Abstract side. *)
  let abs_sys = load_exn Paper_specs.employee_abstract in
  let ada_abs = Troll.ident "EMPLOYEE" (key "ada") in
  create_exn abs_sys ~cls:"EMPLOYEE" ~key:ada_abs.Ident.key ();

  (* Concrete side: emp_rel (created automatically as a single object),
     EMPL_IMPL on top, EMPL hiding the implementation. *)
  let conc_sys = load_exn Paper_specs.employee_implementation in
  let ada_conc = Troll.ident "EMPL_IMPL" (key "ada") in
  create_exn conc_sys ~cls:"EMPL_IMPL" ~key:ada_conc.Ident.key ();

  print_endline "\n-- driving both sides through the EMPL interface --";
  let empl = view_exn conc_sys "EMPL" in
  let inst = [ ("EMPL_IMPL", ada_conc) ] in
  (match Interface.fire empl inst "IncreaseSalary" [ Value.Int 700 ] with
  | Ok _ -> ()
  | Error r -> Printf.printf "  %s\n" (Runtime_error.reason_to_string r));
  ignore (fire abs_sys ada_abs "IncreaseSalary" [ Value.Int 700 ]);
  let show side sys id =
    Printf.printf "  %-9s Salary = %s\n" side
      (Value.to_string (attr_exn sys id "Salary"))
  in
  show "abstract" abs_sys ada_abs;
  show "concrete" conc_sys ada_conc;
  (match Interface.attr empl inst "Salary" [] with
  | Ok v -> Printf.printf "  %-9s Salary = %s (through EMPL)\n" "interface" (Value.to_string v)
  | Error r -> print_endline (Runtime_error.reason_to_string r));
  Printf.printf "  emp_rel.Emps = %s\n"
    (Value.to_string
       (attr_exn conc_sys (Ident.singleton "emp_rel") "Emps"));

  (* Transaction calling inside emp_rel: ChangeSalary >> (DeleteEmp;
     InsertEmp) runs as one atomic unit. *)
  print_endline "\n-- transaction calling --";
  (match
     fire conc_sys (Ident.singleton "emp_rel") "ChangeSalary"
       [ Value.String "ada"; Value.Date 0; Value.Int 1200 ]
   with
  | Ok o ->
      Printf.printf "  ChangeSalary expanded to %d micro-step(s):\n"
        (List.length o.Engine.committed);
      List.iter
        (fun step ->
          Printf.printf "    [%s]\n"
            (String.concat "; " (List.map Event.to_string step)))
        o.Engine.committed
  | Error r -> Printf.printf "  %s\n" (Runtime_error.reason_to_string r));
  ignore (fire abs_sys ada_abs "IncreaseSalary" [ Value.Int 500 ]);
  show "abstract" abs_sys ada_abs;
  show "concrete" conc_sys ada_conc;

  (* Bounded refinement check, on fresh communities. *)
  print_endline "\n-- bounded refinement check --";
  let abs_sys = load_exn Paper_specs.employee_abstract in
  let conc_sys = load_exn Paper_specs.employee_implementation in
  create_exn abs_sys ~cls:"EMPLOYEE" ~key:(key "eve") ();
  create_exn conc_sys ~cls:"EMPL_IMPL" ~key:(key "eve") ();
  let impl =
    Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPL_IMPL" ()
  in
  let alphabet =
    [
      { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 100 ] };
      { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 250 ] };
      { Refinement.ev_name = "FireEmployee"; ev_args = [] };
    ]
  in
  let report =
    Refinement.check ~impl
      ~abs:
        { Refinement.community = abs_sys.Troll.community;
          id = Troll.ident "EMPLOYEE" (key "eve") }
      ~conc:
        { Refinement.community = conc_sys.Troll.community;
          id = Troll.ident "EMPL_IMPL" (key "eve") }
      ~alphabet ~depth:4 ()
  in
  Format.printf "%a@." Refinement.pp_report report;

  (* A deliberately broken implementation: mapping IncreaseSalary to an
     event that doubles instead of adding is caught immediately. *)
  print_endline "-- detecting a broken refinement --";
  let broken = {|
object class EMPLOYEE_BAD
  identification
    EmpName: string;
    EmpBirth: date;
  template
    attributes
      Salary: integer;
    events
      birth HireEmployee;
      death FireEmployee;
      IncreaseSalary(integer);
    valuation
      variables n: integer;
      [HireEmployee] Salary = 0;
      [IncreaseSalary(n)] Salary = Salary + n + 1;
end object class EMPLOYEE_BAD;
|}
  in
  let bad_sys = load_exn broken in
  create_exn bad_sys ~cls:"EMPLOYEE_BAD" ~key:(key "eve") ();
  let abs_sys = load_exn Paper_specs.employee_abstract in
  create_exn abs_sys ~cls:"EMPLOYEE" ~key:(key "eve") ();
  let impl_bad =
    Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPLOYEE_BAD" ()
  in
  let report =
    Refinement.check ~impl:impl_bad
      ~abs:
        { Refinement.community = abs_sys.Troll.community;
          id = Troll.ident "EMPLOYEE" (key "eve") }
      ~conc:
        { Refinement.community = bad_sys.Troll.community;
          id = Troll.ident "EMPLOYEE_BAD" (key "eve") }
      ~alphabet ~depth:3 ()
  in
  match report.Refinement.verdict with
  | Ok () -> print_endline "  (unexpected: broken refinement passed)"
  | Error cx ->
      Format.printf "  counterexample: %a@." Refinement.pp_counterexample cx
