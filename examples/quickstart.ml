(** Quickstart: load the paper's DEPT specification (§4), animate its
    life cycle, and watch temporal permissions at work.

    Run with [dune exec examples/quickstart.exe]. *)

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

let extension (sys : Troll.system) cls =
  Ident.Set.elements (Community.extension sys.Troll.community cls)

let print_result label = function
  | Ok (_ : Engine.outcome) -> Printf.printf "  %-34s accepted\n" label
  | Error r ->
      Printf.printf "  %-34s REJECTED (%s)\n" label
        (Runtime_error.reason_to_string r)

let () =
  print_endline "== TROLL quickstart: the DEPT class from the paper ==";
  let sys = load_exn Paper_specs.dept in

  (* Create a person and a department. *)
  let alice = Troll.ident "PERSON" (Value.String "alice") in
  let sales = Troll.ident "DEPT" (Value.String "sales") in
  create_exn sys ~cls:"PERSON" ~key:(Value.String "alice") ();
  let date = Option.get (Date_adt.of_string "1991-03-21") in
  create_exn sys ~cls:"DEPT" ~key:(Value.String "sales")
    ~args:[ Value.Date date ] ();
  Printf.printf "created %s and %s\n" (Ident.to_string alice)
    (Ident.to_string sales);

  (* Permissions: fire(P) needs sometime(after(hire(P))). *)
  print_endline "\n-- temporal permissions --";
  print_result "fire alice (never hired)"
    (fire sys sales "fire" [ Ident.to_value alice ]);
  print_result "hire alice"
    (fire sys sales "hire" [ Ident.to_value alice ]);
  print_result "hire alice again (in employees)"
    (fire sys sales "hire" [ Ident.to_value alice ]);
  print_result "closure (alice not yet fired)"
    (fire sys sales "closure" []);
  print_result "fire alice"
    (fire sys sales "fire" [ Ident.to_value alice ]);
  print_result "closure (all employees fired)"
    (fire sys sales "closure" []);

  (* Observations. *)
  print_endline "\n-- observations --";
  let rnd = Troll.ident "DEPT" (Value.String "rnd") in
  create_exn sys ~cls:"DEPT" ~key:(Value.String "rnd")
    ~args:[ Value.Date date ] ();
  (match fire sys rnd "new_manager" [ Ident.to_value alice ] with
  | Ok outcome ->
      print_endline
        "new_manager called become_manager synchronously (event calling):";
      List.iter
        (fun step ->
          List.iter
            (fun e -> Printf.printf "    %s\n" (Event.to_string e))
            step)
        outcome.Engine.committed
  | Error r -> Printf.printf "unexpected: %s\n" (Runtime_error.reason_to_string r));
  Printf.printf "rnd.manager     = %s\n"
    (Value.to_string (attr_exn sys rnd "manager"));
  Printf.printf "rnd.est_date    = %s\n"
    (Value.to_string (attr_exn sys rnd "est_date"));
  Printf.printf "PERSON extension = %s\n"
    (String.concat ", " (List.map Ident.to_string (extension sys "PERSON")));

  (* The same session as an animation script. *)
  print_endline "\n-- script interface --";
  let sys2 = load_exn Paper_specs.dept in
  let outcome =
    Script.run_string sys2
      {|
        new PERSON("bob") born;
        new DEPT("hr") establishment(d"1990-01-01");
        DEPT("hr").hire(PERSON("bob"));
        expect reject DEPT("hr").closure;
        DEPT("hr").fire(PERSON("bob"));
        DEPT("hr").closure;
        show DEPT("hr").employees;
      |}
  in
  List.iter (fun l -> Printf.printf "  %s\n" l) outcome.Script.output;
  match outcome.Script.failed with
  | None -> print_endline "script finished"
  | Some e -> Printf.printf "script FAILED: %s\n" e
