(** Modules and societies (§6): three-level schema well-formedness,
    import/export visibility, linking, and an end-to-end compiled
    two-module society communicating via global interactions. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let parse src =
  match Parser.spec src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %s" (Parse_error.to_string e)

let society_of src = fst (Society.of_spec (parse src))

let contains s fragment =
  let rec find i =
    i + String.length fragment <= String.length s
    && (String.sub s i (String.length fragment) = fragment || find (i + 1))
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* a calendar module exporting a clock interface — the paper's shared
   system-clock example of §6.1 *)
let calendar_mod = {|
module Calendar
  conceptual schema
    object TheClock
      template
        attributes Today: date;
        events birth start_clock; tick;
        valuation
          [start_clock] Today = d"1991-01-01";
          [tick] Today = Today + 1;
    end object TheClock;
    interface class CLOCK_READ
      encapsulating TheClock;
      attributes Today: date;
    end interface class CLOCK_READ;
  external schema time = (CLOCK_READ, TheClock);
end module Calendar;
|}

let payroll_mod = {|
module Payroll
  import Calendar.time;
  conceptual schema
    object class WORKER
      identification wname: string;
      template
        attributes Hired: date;
        events birth hire; check_date;
        valuation
          [hire] Hired = TheClock.Today;
    end object class WORKER;
  external schema staff = (WORKER);
end module Payroll;
|}

(* ------------------------------------------------------------------ *)
(* Schema3                                                             *)
(* ------------------------------------------------------------------ *)

let module_of src =
  match parse src with
  | [ Ast.D_module m ] -> Schema3.of_ast m
  | _ -> Alcotest.fail "expected one module"

let test_names_and_exports () =
  let m = module_of calendar_mod in
  check (Alcotest.list Alcotest.string) "conceptual names"
    [ "CLOCK_READ"; "TheClock" ]
    (List.sort compare (Schema3.conceptual_names m));
  check tbool "export resolves" true (Schema3.exports m "time" <> None);
  check tbool "unknown schema" true (Schema3.exports m "nope" = None)

let test_validate_export_unknown_name () =
  let m =
    module_of
      {|
module M
  conceptual schema
    object class X
      identification k: string;
      template events birth b;
    end object class X;
  external schema s = (X, GHOST);
end module M;
|}
  in
  let diags = Schema3.validate m in
  check tint "one diagnostic" 1 (List.length diags);
  check tbool "names GHOST" true (contains (List.hd diags) "GHOST")

let test_validate_conceptual_uses_internal () =
  let m =
    module_of
      {|
module M
  conceptual schema
    object class X
      identification k: string;
      template
        attributes helper: |IMPL|;
        events birth b;
    end object class X;
  internal schema
    object class IMPL
      identification k: string;
      template events birth b;
    end object class IMPL;
end module M;
|}
  in
  check tbool "layering violation reported" true
    (List.exists (fun d -> contains d "internal name IMPL") (Schema3.validate m))

let test_internal_may_use_conceptual () =
  let m =
    module_of
      {|
module M
  conceptual schema
    object class X
      identification k: string;
      template events birth b;
    end object class X;
  internal schema
    object class XI
      identification k: string;
      template
        attributes up: |X|;
        events birth b;
    end object class XI;
  external schema s = (X);
end module M;
|}
  in
  check (Alcotest.list Alcotest.string) "clean" [] (Schema3.validate m)

let test_referenced_classes () =
  let m = module_of payroll_mod in
  let refs =
    Schema3.referenced_classes
      ~known:(fun n -> String.equal n "TheClock")
      (m.Schema3.md_conceptual @ m.Schema3.md_internal)
  in
  check tbool "TheClock referenced" true (List.mem "TheClock" refs);
  check tbool "builtins excluded" true (not (List.mem "date" refs))

(* ------------------------------------------------------------------ *)
(* Society                                                             *)
(* ------------------------------------------------------------------ *)

let test_society_validates () =
  let s = society_of (calendar_mod ^ payroll_mod) in
  check (Alcotest.list Alcotest.string) "no diagnostics" []
    (Society.validate s)

let test_import_unknown_module () =
  let s =
    society_of
      {|
module M
  import Ghost.stuff;
  conceptual schema
    object class X
      identification k: string;
      template events birth b;
    end object class X;
end module M;
|}
  in
  check tbool "unknown module reported" true
    (List.exists (fun d -> contains d "unknown module Ghost") (Society.validate s))

let test_import_unknown_schema () =
  let s =
    society_of
      (calendar_mod
     ^ {|
module M
  import Calendar.secrets;
  conceptual schema
    object class X
      identification k: string;
      template events birth b;
    end object class X;
end module M;
|})
  in
  check tbool "unknown schema reported" true
    (List.exists
       (fun d -> contains d "unknown external schema Calendar.secrets")
       (Society.validate s))

let test_visibility_enforced () =
  (* Payroll without the import must not see TheClock *)
  let broken =
    {|
module Payroll
  conceptual schema
    object class WORKER
      identification wname: string;
      template
        attributes Hired: date;
        events birth hire;
        valuation
          [hire] Hired = TheClock.Today;
    end object class WORKER;
end module Payroll;
|}
  in
  let s = society_of (calendar_mod ^ broken) in
  check tbool "invisible name reported" true
    (List.exists
       (fun d -> contains d "neither declared nor imported")
       (Society.validate s))

let test_link_order () =
  let s = society_of (payroll_mod ^ calendar_mod) in
  match Society.link s with
  | Error ds -> Alcotest.failf "link failed: %s" (String.concat "; " ds)
  | Ok decls ->
      (* imported module's declarations come first despite source order *)
      let names = List.map Ast.decl_name decls in
      let pos n =
        let rec go i = function
          | [] -> -1
          | x :: r -> if String.equal x n then i else go (i + 1) r
        in
        go 0 names
      in
      check tbool "Calendar before Payroll" true
        (pos "TheClock" < pos "WORKER")

let test_society_compile_and_run () =
  let s = society_of (calendar_mod ^ payroll_mod) in
  match Society.compile s with
  | Error ds -> Alcotest.failf "compile failed: %s" (String.concat "; " ds)
  | Ok (community, views) ->
      (* the single clock was instantiated; tick it twice *)
      let clock = Ident.singleton "TheClock" in
      ignore (Engine.step community (Step.Fire (Event.make clock "tick" [])));
      ignore (Engine.step community (Step.Fire (Event.make clock "tick" [])));
      (* a worker hired now records the (cross-module) clock's date *)
      ignore
        (Engine.create community ~cls:"WORKER" ~key:(Value.String "w1") ());
      let w = Community.object_exn community (Ident.make "WORKER" (Value.String "w1")) in
      let hired = Eval.read_attr community w "Hired" [] in
      check (Alcotest.testable Value.pp Value.equal) "date from Calendar"
        (Value.Date (Date_adt.add_days (Option.get (Date_adt.of_string "1991-01-01")) 2))
        hired;
      (* the exported view is available under module.schema *)
      let time_views = List.assoc "Calendar.time" views in
      check tint "one interface exported" 1 (List.length time_views);
      let clock_view = List.hd time_views in
      (match Interface.attr clock_view [ ("TheClock", clock) ] "Today" [] with
      | Ok (Value.Date _) -> ()
      | _ -> Alcotest.fail "view read failed")

let test_mixed_spec_through_troll_load () =
  (* Session.load links modules transparently *)
  match Troll.Session.load (calendar_mod ^ payroll_mod) with
  | Error e -> Alcotest.failf "load: %s" (Troll.Error.to_string e)
  | Ok s ->
      check tbool "clock exists" true
        (Community.living (Troll.Session.community s)
           (Ident.singleton "TheClock")
        <> None)

let () =
  Alcotest.run "modsys"
    [
      ( "schema3",
        [
          Alcotest.test_case "names and exports" `Quick test_names_and_exports;
          Alcotest.test_case "export of unknown name" `Quick
            test_validate_export_unknown_name;
          Alcotest.test_case "conceptual must not use internal" `Quick
            test_validate_conceptual_uses_internal;
          Alcotest.test_case "internal may use conceptual" `Quick
            test_internal_may_use_conceptual;
          Alcotest.test_case "reference analysis" `Quick
            test_referenced_classes;
        ] );
      ( "society",
        [
          Alcotest.test_case "validates" `Quick test_society_validates;
          Alcotest.test_case "unknown module" `Quick
            test_import_unknown_module;
          Alcotest.test_case "unknown schema" `Quick test_import_unknown_schema;
          Alcotest.test_case "visibility enforced" `Quick
            test_visibility_enforced;
          Alcotest.test_case "link order" `Quick test_link_order;
          Alcotest.test_case "compile and run" `Quick
            test_society_compile_and_run;
          Alcotest.test_case "through Session.load" `Quick
            test_mixed_spec_through_troll_load;
        ] );
    ]
