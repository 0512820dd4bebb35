(** Extensions beyond the paper's core: Graphviz export (the conclusion's
    "graphical notations"), liveness-goal auditing, syntactical reuse of
    specification texts — plus whole-engine invariant properties under
    random event walks. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains s fragment =
  let rec find i =
    i + String.length fragment <= String.length s
    && (String.sub s i (String.length fragment) = fragment || find (i + 1))
  in
  find 0

let load ?config src =
  match Compile.load ?config src with
  | Ok (c, _) -> c
  | Error e -> Alcotest.failf "load failed: %s" e

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dot_schema () =
  let c = load Paper_specs.company in
  let templates =
    Hashtbl.fold (fun _ tpl acc -> tpl :: acc) c.Community.templates []
  in
  let s = Dot.schema_of_templates templates in
  let dot = Dot.of_schema s in
  check tbool "valid header" true (contains dot "digraph inheritance_schema");
  check tbool "manager node" true (contains dot "\"MANAGER\"");
  check tbool "phase edge" true (contains dot "\"MANAGER\" -> \"PERSON\"");
  check tbool "balanced braces" true (contains dot "}")

let test_dot_escaping () =
  let s = Schema.create () in
  Schema.add_template s
    { Template.t_name = "A\"B"; t_kind = `Class; t_id_fields = [];
      t_view_of = None; t_spec_of = None; t_attrs = []; t_events = [];
      t_valuations = []; t_callings = []; t_perms = []; t_constraints = [];
      t_vars = []; t_slots = None; t_staged = None };
  check tbool "quotes escaped" true (contains (Dot.of_schema s) "A\\\"B")

let test_dot_community () =
  let s = Schema.create () in
  let tpl name =
    { Template.t_name = name; t_kind = `Class; t_id_fields = [];
      t_view_of = None; t_spec_of = None; t_attrs = []; t_events = [];
      t_valuations = []; t_callings = []; t_perms = []; t_constraints = [];
      t_vars = []; t_slots = None; t_staged = None }
  in
  Schema.add_template s (tpl "computer");
  Schema.add_template s (tpl "el_device");
  Schema.add_edge s ~sub:"computer" ~super:"el_device" Sigmap.empty;
  Schema.add_template s (tpl "cpu");
  let com = Community_diagram.create s in
  let sun = Community_diagram.add_object com ~key:(Value.String "SUN") "computer" in
  let cyy = Community_diagram.add_object com ~key:(Value.String "CYY") "cpu" in
  ignore (Community_diagram.add_interaction com ~src:sun ~dst:cyy ());
  let dot = Dot.of_community com in
  check tbool "inheritance dashed" true (contains dot "style=dashed");
  check tbool "interaction edge" true
    (contains dot "\"\\\"SUN\\\" • computer\" -> \"\\\"CYY\\\" • cpu\"")

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let liveness_community () =
  let config =
    { Community.default_config with Community.record_history = true }
  in
  let c =
    load ~config
      {|
object class TASK
  identification id: string;
  template
    attributes done_count: integer;
    events birth start; finish_one; undo_one;
    valuation
      [start] done_count = 0;
      [finish_one] done_count = done_count + 1;
      [undo_one] done_count = done_count - 1;
end object class TASK;
|}
  in
  ignore (Engine.create c ~cls:"TASK" ~key:(Value.String "t") ());
  (c, Ident.make "TASK" (Value.String "t"))

let test_liveness_achieved () =
  let c, id = liveness_community () in
  let o = Community.object_exn c id in
  ignore (Engine.step c (Step.Fire (Event.make id "finish_one" [])));
  ignore (Engine.step c (Step.Fire (Event.make id "finish_one" [])));
  ignore (Engine.step c (Step.Fire (Event.make id "undo_one" [])));
  (* goal: at some point, two tasks were done *)
  match Liveness.audit_string c o "done_count >= 2" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check tbool "achieved" true v.Liveness.achieved;
      check tbool "not maintained" false v.Liveness.maintained;
      check tbool "not holding now" false v.Liveness.holds_now;
      check tint "four states" 4 v.Liveness.states_checked

let test_liveness_maintained () =
  let c, id = liveness_community () in
  let o = Community.object_exn c id in
  ignore (Engine.step c (Step.Fire (Event.make id "finish_one" [])));
  match Liveness.audit_string c o "done_count >= 0" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check tbool "maintained" true v.Liveness.maintained;
      check tbool "achieved implies maintained here" true v.Liveness.achieved

let test_liveness_not_achieved () =
  let c, id = liveness_community () in
  let o = Community.object_exn c id in
  match Liveness.audit_string c o "done_count >= 5" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check tbool "not achieved" false v.Liveness.achieved;
      check tbool "pp says NOT" true
        (contains (Format.asprintf "%a" Liveness.pp_verdict v) "NOT achieved")

let test_liveness_rejects_temporal () =
  let c, id = liveness_community () in
  let o = Community.object_exn c id in
  match Liveness.audit_string c o "sometime(done_count > 0)" with
  | Error e -> check tbool "explains" true (contains e "state formulas")
  | Ok _ -> Alcotest.fail "temporal goal accepted"

let test_liveness_class_audit () =
  let c, id = liveness_community () in
  ignore (Engine.step c (Step.Fire (Event.make id "finish_one" [])));
  let goal =
    match Parser.formula_of_string "done_count > 0" with
    | Ok f -> f
    | Error _ -> assert false
  in
  let report = Liveness.audit_class c ~cls:"TASK" goal in
  check tint "one member" 1 (List.length report);
  check tbool "achieved" true (snd (List.hd report)).Liveness.achieved

(* ------------------------------------------------------------------ *)
(* Reuse                                                               *)
(* ------------------------------------------------------------------ *)

(* a generic container template, instantiated twice *)
let container_lib = {|
object class CONTAINER
  identification cid: string;
  template
    attributes Contents: set(string); Capacity: integer;
    events
      birth create_container(integer);
      death destroy_container;
      put_item(string);
      take_item(string);
    valuation
      variables x: string; n: integer;
      [create_container(n)] Contents = {};
      [create_container(n)] Capacity = n;
      [put_item(x)] Contents = insert(x, Contents);
      [take_item(x)] Contents = remove(x, Contents);
    permissions
      variables x: string;
      { card(Contents) < Capacity } put_item(x);
      { x in Contents } take_item(x);
end object class CONTAINER;
|}

let test_reuse_instantiation () =
  let r =
    Reuse.renaming
      ~classes:[ ("CONTAINER", "PARTS_BIN") ]
      ~attrs:[ ("Contents", "Parts"); ("Capacity", "Slots") ]
      ~events:[ ("put_item", "stock"); ("take_item", "pick") ]
      ()
  in
  match Reuse.instantiate_string r container_lib with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
      (* the instance is checkable and runnable under the new names *)
      check (Alcotest.list Alcotest.string) "checks cleanly" []
        (List.map Check_error.to_string (Typecheck.errors spec));
      match Compile.spec spec with
      | Error e -> Alcotest.fail (Compile.error_to_string e)
      | Ok (c, _) ->
          let id = Ident.make "PARTS_BIN" (Value.String "b1") in
          (match
             Engine.create c ~cls:"PARTS_BIN" ~key:(Value.String "b1")
               ~args:[ Value.Int 2 ] ()
           with
          | Ok _ -> ()
          | Error r -> Alcotest.fail (Runtime_error.reason_to_string r));
          (match Engine.step c (Step.Fire (Event.make id "stock" [ Value.String "bolt" ])) with
          | Ok _ -> ()
          | Error r -> Alcotest.fail (Runtime_error.reason_to_string r));
          let o = Community.object_exn c id in
          check tbool "renamed attribute live" true
            (Value.equal
               (Eval.read_attr c o "Parts" [])
               (Value.set [ Value.String "bolt" ])))

let test_reuse_two_instances_coexist () =
  let inst1 =
    Reuse.instantiate_string
      (Reuse.renaming ~classes:[ ("CONTAINER", "ARCHIVE") ] ())
      container_lib
  in
  let inst2 =
    Reuse.instantiate_string
      (Reuse.renaming ~classes:[ ("CONTAINER", "WAREHOUSE") ] ())
      container_lib
  in
  match (inst1, inst2) with
  | Ok a, Ok b -> (
      let spec = a @ b in
      check tbool "combined spec checks" true (Typecheck.errors spec = []);
      match Compile.spec spec with
      | Ok (c, _) ->
          check tbool "both classes exist" true
            (Community.is_class c "ARCHIVE" && Community.is_class c "WAREHOUSE")
      | Error e -> Alcotest.fail (Compile.error_to_string e))
  | _ -> Alcotest.fail "instantiation failed"

let test_reuse_permissions_survive () =
  let r = Reuse.renaming ~classes:[ ("CONTAINER", "BOX") ] () in
  match Reuse.instantiate_string r container_lib with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
      match Compile.spec spec with
      | Error e -> Alcotest.fail (Compile.error_to_string e)
      | Ok (c, _) -> (
          let id = Ident.make "BOX" (Value.String "b") in
          ignore
            (Engine.create c ~cls:"BOX" ~key:(Value.String "b")
               ~args:[ Value.Int 1 ] ());
          ignore (Engine.step c (Step.Fire (Event.make id "put_item" [ Value.String "x" ])));
          (* capacity permission survived the renaming *)
          match Engine.step c (Step.Fire (Event.make id "put_item" [ Value.String "y" ])) with
          | Error (Runtime_error.Permission_denied _) -> ()
          | _ -> Alcotest.fail "capacity permission lost"))

let test_reuse_pretty_parses () =
  let r =
    Reuse.renaming ~classes:[ ("CONTAINER", "SHELF") ]
      ~events:[ ("put_item", "shelve") ] ()
  in
  match Reuse.instantiate_string r container_lib with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
      match Parser.spec (Pretty.spec_to_string spec) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "instance not re-parseable: %s" (Parse_error.to_string e))

(* ------------------------------------------------------------------ *)
(* Whole-engine invariants under random walks                          *)
(* ------------------------------------------------------------------ *)

(* Drive the library system with arbitrary event sequences; whatever is
   accepted or rejected, these invariants must hold afterwards:
   1. a book is OnLoan iff exactly one living member holds it;
   2. class extensions contain exactly the living objects;
   3. every living object's static constraints hold (vacuous here) and
      attribute reads never raise. *)
let prop_library_invariants =
  QCheck.Test.make ~name:"engine: library invariants under random walks"
    ~count:60
    (QCheck.make
       ~print:(fun l ->
         String.concat ";" (List.map (fun (a, b, c) ->
             Printf.sprintf "%d.%d.%d" a b c) l))
       QCheck.Gen.(
         list_size (int_range 1 30)
           (triple (int_range 0 5) (int_range 0 1) (int_range 0 1))))
    (fun actions ->
      let c = load Paper_specs.library in
      let book i = Ident.make "BOOK" (Value.String (Printf.sprintf "b%d" i)) in
      let member i =
        Ident.make "MEMBER" (Value.String (Printf.sprintf "m%d" i))
      in
      ignore
        (Engine.create c ~cls:"BOOK" ~key:(Value.String "b0")
           ~args:[ Value.String "B0"; Value.Enum ("Genre", "fiction") ] ());
      ignore
        (Engine.create c ~cls:"BOOK" ~key:(Value.String "b1")
           ~args:[ Value.String "B1"; Value.Enum ("Genre", "poetry") ] ());
      ignore (Engine.create c ~cls:"MEMBER" ~key:(Value.String "m0") ());
      ignore (Engine.create c ~cls:"MEMBER" ~key:(Value.String "m1") ());
      List.iter
        (fun (action, b, m) ->
          let ev =
            match action with
            | 0 -> Event.make (member m) "borrow" [ Ident.to_value (book b) ]
            | 1 ->
                Event.make (member m) "bring_back" [ Ident.to_value (book b) ]
            | 2 -> Event.make (member m) "fine" [ Value.Money 100 ]
            | 3 -> Event.make (member m) "pay" [ Value.Money 100 ]
            | 4 -> Event.make (member m) "leave" []
            | _ -> Event.make (book b) "discard" []
          in
          match Engine.step c (Step.Fire ev) with Ok _ | Error _ -> ())
        actions;
      (* invariant 1: loan consistency *)
      let holders b =
        List.length
          (List.filter
             (fun m ->
               match Community.living c m with
               | Some o -> (
                   match Eval.read_attr c o "Borrowed" [] with
                   | Value.Set xs ->
                       List.exists (Value.equal (Ident.to_value b)) xs
                   | _ -> false)
               | None -> false)
             [ member 0; member 1 ])
      in
      let loan_ok b =
        match Community.living c b with
        | Some o -> (
            match Eval.read_attr c o "OnLoan" [] with
            | Value.Bool true -> holders b = 1
            | Value.Bool false -> holders b = 0
            | _ -> false)
        | None -> holders b = 0
      in
      (* invariant 2: extensions = living objects *)
      let ext_ok cls =
        Ident.Set.for_all
          (fun id -> Community.living c id <> None)
          (Community.extension c cls)
      in
      loan_ok (book 0) && loan_ok (book 1) && ext_ok "BOOK"
      && ext_ok "MEMBER")

(* Rollback safety: interleave accepted and rejected transactions; a
   rejected transaction must leave the observable state bit-identical. *)
let prop_rollback_is_identity =
  QCheck.Test.make ~name:"engine: rejected transactions change nothing"
    ~count:60
    (QCheck.make
       ~print:(fun l -> String.concat "" (List.map string_of_int l))
       QCheck.Gen.(list_size (int_range 1 15) (int_range 0 3)))
    (fun actions ->
      let c = load Paper_specs.dept in
      let p = Ident.make "PERSON" (Value.String "p") in
      let d = Ident.make "DEPT" (Value.String "d") in
      ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "p") ());
      ignore
        (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
           ~args:[ Value.Date 0 ] ());
      let observe () =
        let o = Community.object_exn c d in
        ( Eval.read_attr c o "employees" [],
          Ident.Set.cardinal (Community.extension c "DEPT"),
          o.Obj_state.steps )
      in
      List.for_all
        (fun action ->
          let ev =
            match action with
            | 0 -> Event.make d "hire" [ Ident.to_value p ]
            | 1 -> Event.make d "fire" [ Ident.to_value p ]
            | 2 -> Event.make d "closure" []
            | _ -> Event.make d "hire" [ Ident.to_value p ]
          in
          let before = observe () in
          match Engine.step c (Step.Fire ev) with
          | Ok _ -> true
          | Error _ ->
              let after = observe () in
              before = after)
        actions)

(* ------------------------------------------------------------------ *)
(* Trace inspection                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_entries () =
  let c, id = liveness_community () in
  let o = Community.object_exn c id in
  ignore (Engine.step c (Step.Fire (Event.make id "finish_one" [])));
  ignore (Engine.step c (Step.Fire (Event.make id "finish_one" [])));
  let entries = Trace.of_object o in
  check tint "three steps (birth + two)" 3 (List.length entries);
  check tint "length agrees" 3 (Trace.length o);
  let first = List.hd entries in
  check tint "oldest first" 0 first.Trace.step;
  check tbool "birth recorded" true
    (List.exists
       (fun (e : Event.t) -> e.Event.name = "start")
       first.Trace.events);
  check tbool "post-state recorded" true
    (List.assoc_opt "done_count" first.Trace.attrs = Some (Value.Int 0));
  (* filtering by event name *)
  check tint "occurrences" 2 (List.length (Trace.occurrences o "finish_one"));
  check tint "no such event" 0 (List.length (Trace.occurrences o "undo_one"));
  (* rendering *)
  check tbool "pp mentions steps" true
    (contains (Trace.to_string o) "step 2")

let test_trace_without_history () =
  let c = load Paper_specs.dept in
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "p") ());
  let o = Community.object_exn c (Ident.make "PERSON" (Value.String "p")) in
  check tint "no recording configured" 0
    (List.length (Trace.of_object o))

(* Determinism: the same event sequence on two fresh communities yields
   bit-identical state (using the persistence dump as a canonical
   fingerprint — attribute maps, life cycles and monitor states). *)
let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine: runs are deterministic" ~count:50
    (QCheck.make
       ~print:(fun l -> String.concat "" (List.map string_of_int l))
       QCheck.Gen.(list_size (int_range 1 20) (int_range 0 4)))
    (fun actions ->
      let run () =
        let c = load Paper_specs.dept in
        let p = Ident.make "PERSON" (Value.String "p") in
        let d = Ident.make "DEPT" (Value.String "d") in
        ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "p") ());
        ignore
          (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
             ~args:[ Value.Date 0 ] ());
        List.iter
          (fun a ->
            let ev =
              match a with
              | 0 -> Event.make d "hire" [ Ident.to_value p ]
              | 1 -> Event.make d "fire" [ Ident.to_value p ]
              | 2 -> Event.make d "new_manager" [ Ident.to_value p ]
              | 3 -> Event.make d "closure" []
              | _ -> Event.make p "promote" [ Value.Int 3 ]
            in
            match Engine.step c (Step.Fire ev) with Ok _ | Error _ -> ())
          actions;
        Persist.save c
      in
      String.equal (run ()) (run ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "extensions"
    [
      ( "dot",
        [
          Alcotest.test_case "schema export" `Quick test_dot_schema;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
          Alcotest.test_case "community export" `Quick test_dot_community;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "achieved" `Quick test_liveness_achieved;
          Alcotest.test_case "maintained" `Quick test_liveness_maintained;
          Alcotest.test_case "not achieved" `Quick test_liveness_not_achieved;
          Alcotest.test_case "temporal goals rejected" `Quick
            test_liveness_rejects_temporal;
          Alcotest.test_case "class-wide audit" `Quick
            test_liveness_class_audit;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "instantiation runs" `Quick
            test_reuse_instantiation;
          Alcotest.test_case "two instances coexist" `Quick
            test_reuse_two_instances_coexist;
          Alcotest.test_case "permissions survive" `Quick
            test_reuse_permissions_survive;
          Alcotest.test_case "instances re-parse" `Quick
            test_reuse_pretty_parses;
        ] );
      ( "trace",
        [
          Alcotest.test_case "entries" `Quick test_trace_entries;
          Alcotest.test_case "without history" `Quick
            test_trace_without_history;
        ] );
      ( "invariant-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_library_invariants; prop_rollback_is_identity;
            prop_engine_deterministic ] );
    ]
