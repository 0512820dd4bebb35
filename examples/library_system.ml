(** A lending library: enumerations, state-based and temporal
    permissions, synchronised event calling across objects, and an
    *active* clock whose autonomy is bounded by a permission.

    Run with [dune exec examples/library_system.exe]. *)

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

let eval sys src =
  Result.map_error Troll.Error.to_string
    (Troll.Session.eval (Troll.Session.of_system sys) src)

let run_active ?(fuel = 1000) (sys : Troll.system) =
  Engine.run_active sys.Troll.community ~fuel

let result label = function
  | Ok (_ : Engine.outcome) -> Printf.printf "  %-38s accepted\n" label
  | Error r ->
      Printf.printf "  %-38s REJECTED (%s)\n" label
        (Runtime_error.reason_to_string r)

let () =
  print_endline "== library: active objects and synchronisation ==";
  let sys = load_exn Paper_specs.library in

  (* Stock and membership. *)
  let sicp = Troll.ident "BOOK" (Value.String "0-262-01153-0") in
  let tao = Troll.ident "BOOK" (Value.String "0-201-03801-3") in
  create_exn sys ~cls:"BOOK" ~key:sicp.Ident.key
    ~args:[ Value.String "SICP"; Value.Enum ("Genre", "science") ] ();
  create_exn sys ~cls:"BOOK" ~key:tao.Ident.key
    ~args:[ Value.String "TAOCP"; Value.Enum ("Genre", "science") ] ();
  let kim = Troll.ident "MEMBER" (Value.String "kim") in
  create_exn sys ~cls:"MEMBER" ~key:kim.Ident.key ();

  print_endline "\n-- borrowing synchronises MEMBER and BOOK --";
  result "kim borrows SICP"
    (fire sys kim "borrow" [ Ident.to_value sicp ]);
  Printf.printf "  SICP.OnLoan   = %s\n"
    (Value.to_string (attr_exn sys sicp "OnLoan"));
  Printf.printf "  kim.Borrowed  = %s\n"
    (Value.to_string (attr_exn sys kim "Borrowed"));

  (* The calling rule makes the permission of the called event gate the
     whole step: lending an on-loan book is impossible through any
     member. *)
  let lee = Troll.ident "MEMBER" (Value.String "lee") in
  create_exn sys ~cls:"MEMBER" ~key:lee.Ident.key ();
  result "lee borrows SICP (already on loan)"
    (fire sys lee "borrow" [ Ident.to_value sicp ]);
  result "lee borrows TAOCP"
    (fire sys lee "borrow" [ Ident.to_value tao ]);

  print_endline "\n-- permissions on leaving --";
  result "lee leaves with a book out" (Engine.destroy sys.Troll.community ~id:lee ());
  ignore (fire sys lee "fine" [ Value.Money (Money.of_cents 250) ]);
  result "lee returns TAOCP"
    (fire sys lee "bring_back" [ Ident.to_value tao ]);
  result "lee leaves with fines unpaid" (Engine.destroy sys.Troll.community ~id:lee ());
  result "lee pays too much"
    (fire sys lee "pay" [ Value.Money (Money.of_cents 300) ]);
  result "lee pays 2.50"
    (fire sys lee "pay" [ Value.Money (Money.of_cents 250) ]);
  result "lee leaves" (Engine.destroy sys.Troll.community ~id:lee ());

  print_endline "\n-- the active clock --";
  let clock = Ident.singleton "LibraryClock" in
  create_exn sys ~cls:"LibraryClock" ~key:clock.Ident.key
    ~args:[ Value.Date (Option.get (Date_adt.of_string "1991-06-01")) ] ();
  (* tick is active but its permission allows at most 7 ticks between
     audits: the engine runs it to quiescence. *)
  let fired = run_active sys ~fuel:100 in
  Printf.printf "  active run fired %d tick(s)\n" (List.length fired);
  Printf.printf "  Today = %s\n"
    (Value.to_string (attr_exn sys clock "Today"));
  ignore (fire sys clock "audit" []);
  let fired = run_active sys ~fuel:100 in
  Printf.printf "  after audit, %d more tick(s)\n" (List.length fired);
  Printf.printf "  Today = %s\n"
    (Value.to_string (attr_exn sys clock "Today"));

  print_endline "\n-- genre query over the extension --";
  (match eval sys "BOOK" with
  | Ok v -> Printf.printf "  extension BOOK = %s\n" (Value.to_string v)
  | Error e -> print_endline e);
  match
    eval sys "count(BOOK)"
  with
  | Ok v -> Printf.printf "  count(BOOK)    = %s\n" (Value.to_string v)
  | Error e -> print_endline e
