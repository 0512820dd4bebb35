(** A modular university information system: the §6 three-level schema
    architecture with two communicating modules, plus the supporting
    machinery around the core — syntactical reuse of a library template,
    Graphviz export of the inheritance schema, and liveness auditing.

    Run with [dune exec examples/university.exe]. *)

(* The Registry module owns students and courses and exports a reporting
   interface; the Teaching module imports it and enrols students through
   the exported classes. *)
let registry_module = {|
module Registry
  conceptual schema
    object class STUDENT
      identification sid: string;
      template
        attributes Credits: integer; Enrolled: set(string);
        events
          birth matriculate;
          death graduate;
          enrol(string);
          complete(string, integer);
        valuation
          variables c: string; n: integer;
          [matriculate] Credits = 0;
          [matriculate] Enrolled = {};
          [enrol(c)] Enrolled = insert(c, Enrolled);
          [complete(c, n)] Enrolled = remove(c, Enrolled);
          [complete(c, n)] Credits = Credits + n;
        permissions
          variables c: string; n: integer;
          { not(c in Enrolled) } enrol(c);
          { c in Enrolled } complete(c, n);
          { Credits >= 180 and isempty(Enrolled) } graduate;
    end object class STUDENT;
    interface class TRANSCRIPT
      encapsulating STUDENT;
      attributes sid: string; Credits: integer;
    end interface class TRANSCRIPT;
  external schema records = (STUDENT, TRANSCRIPT);
end module Registry;
|}

let teaching_module = {|
module Teaching
  import Registry.records;
  conceptual schema
    object class COURSE
      identification code: string;
      template
        attributes Takers: set(|STUDENT|);
        events
          birth offer;
          death cancel;
          admit(|STUDENT|);
          pass(|STUDENT|, integer);
        valuation
          variables S: |STUDENT|; n: integer;
          [offer] Takers = {};
          [admit(S)] Takers = insert(S, Takers);
          [pass(S, n)] Takers = remove(S, Takers);
        permissions
          variables S: |STUDENT|; n: integer;
          { not(S in Takers) } admit(S);
          { S in Takers } pass(S, n);
        calling
          variables S: |STUDENT|; n: integer;
          admit(S) >> STUDENT(S).enrol(self.code);
          pass(S, n) >> STUDENT(S).complete(self.code, n);
    end object class COURSE;
  external schema catalogue = (COURSE);
end module Teaching;
|}

let show_result label = function
  | Ok (_ : Engine.outcome) -> Printf.printf "  %-40s accepted\n" label
  | Error r ->
      Printf.printf "  %-40s REJECTED (%s)\n" label
        (Runtime_error.reason_to_string r)

let () =
  print_endline "== university: modules, reuse, dot, liveness ==";

  (* ---- society validation and linking -------------------------- *)
  let spec =
    match Troll.parse_spec (registry_module ^ teaching_module) with
    | Ok s -> s
    | Error e -> failwith (Troll.Error.to_string e)
  in
  let society, _rest = Society.of_spec spec in
  (match Society.validate society with
  | [] -> print_endline "society validates: imports and exports line up"
  | ds -> List.iter print_endline ds);

  let config =
    { Community.default_config with Community.record_history = true }
  in
  let community, views =
    match Society.compile ~config society with
    | Ok (c, v) -> (c, v)
    | Error ds -> failwith (String.concat "; " ds)
  in

  (* ---- cross-module event calling ------------------------------ *)
  print_endline "\n-- cross-module calling (Teaching drives Registry) --";
  let ada = Ident.make "STUDENT" (Value.String "s-ada") in
  let fp = Ident.make "COURSE" (Value.String "FP101") in
  ignore (Engine.create community ~cls:"STUDENT" ~key:ada.Ident.key ());
  ignore (Engine.create community ~cls:"COURSE" ~key:fp.Ident.key ());
  show_result "FP101 admits ada"
    (Engine.step community (Step.Fire (Event.make fp "admit" [ Ident.to_value ada ])));
  show_result "FP101 admits ada again"
    (Engine.step community (Step.Fire (Event.make fp "admit" [ Ident.to_value ada ])));
  let o = Community.object_exn community ada in
  Printf.printf "  ada.Enrolled = %s\n"
    (Value.to_string (Eval.read_attr community o "Enrolled" []));
  show_result "graduation (too few credits)"
    (Engine.destroy community ~id:ada ());
  show_result "FP101 passes ada with 180 credits"
    (Engine.step community
       (Step.Fire (Event.make fp "pass" [ Ident.to_value ada; Value.Int 180 ])));
  Printf.printf "  ada.Credits  = %s\n"
    (Value.to_string (Eval.read_attr community o "Credits" []));

  (* ---- the exported view ---------------------------------------- *)
  (match List.assoc_opt "Registry.records" views with
  | Some [ transcript ] ->
      print_endline "\n-- Registry.records exports TRANSCRIPT --";
      List.iter
        (fun row -> Printf.printf "  %s\n" (Value.to_string row))
        (Interface.tabulate transcript)
  | _ -> print_endline "  (no view exported?)");

  (* ---- liveness audit ------------------------------------------- *)
  print_endline "\n-- liveness audit over ada's recorded history --";
  List.iter
    (fun goal ->
      match Liveness.audit_string community o goal with
      | Ok v -> Format.printf "  %a@." Liveness.pp_verdict v
      | Error e -> Printf.printf "  %s\n" e)
    [ "Credits >= 180"; "card(Enrolled) <= 1"; "Credits >= 500" ];
  show_result "graduation (requirements met)"
    (Engine.destroy community ~id:ada ());

  (* ---- syntactical reuse ---------------------------------------- *)
  print_endline "\n-- reuse: instantiating STUDENT as a generic template --";
  let renaming =
    Reuse.renaming
      ~classes:[ ("STUDENT", "APPRENTICE") ]
      ~events:[ ("matriculate", "sign_on"); ("graduate", "certify") ]
      ()
  in
  (match
     Reuse.instantiate_string renaming
       {|
object class STUDENT
  identification sid: string;
  template
    attributes Credits: integer;
    events birth matriculate; death graduate; award(integer);
    valuation
      variables n: integer;
      [matriculate] Credits = 0;
      [award(n)] Credits = Credits + n;
end object class STUDENT;
|}
   with
  | Ok inst ->
      Printf.printf "  instance checks: %B\n" (Typecheck.errors inst = []);
      print_endline "  instantiated declaration:";
      print_endline
        (String.concat "\n"
           (List.map (fun l -> "    " ^ l)
              (String.split_on_char '\n'
                 (String.concat "\n"
                    (List.filteri (fun i _ -> i < 4)
                       (String.split_on_char '\n'
                          (Pretty.spec_to_string inst)))))))
  | Error e -> print_endline e);

  (* ---- graphviz export ------------------------------------------ *)
  print_endline "\n-- inheritance schema as dot --";
  let templates =
    Hashtbl.fold (fun _ tpl acc -> tpl :: acc) community.Community.templates []
  in
  print_string (Dot.of_schema (Dot.schema_of_templates templates))
