(** A small animation script language for driving loaded specifications
    from the CLI and the examples.

    {v
      new DEPT("sales") establishment(d"1991-03-21");
      DEPT("sales").hire(PERSON("alice"));
      seq DEPT("s").fire(P); DEPT("s").closure end;   -- atomic transaction
      show DEPT("sales").employees;
      view SAL_EMPLOYEE;                               -- tabulate a view
      expect reject DEPT("sales").closure;
      active 10;                                       -- run active events
    v}

    Statements are separated by [';'].  [expect reject] asserts that the
    following statement is rejected by the specification (and fails the
    script if it is accepted). *)

type cmd =
  | C_new of string * Ast.expr * (string * Ast.expr list) option
      (** class, key expression, optional birth event with args *)
  | C_fire of Ast.event_term
  | C_seq of Ast.event_term list  (** atomic transaction *)
  | C_show of Ast.expr
  | C_trace of Ast.obj_ref  (** recorded life cycle of an object *)
  | C_goal of Ast.obj_ref * Ast.formula  (** liveness audit of a goal *)
  | C_view of string
  | C_active of int
  | C_expect_reject of cmd

type script = cmd list

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse (source : string) : (script, string) result =
  match Lexer.tokenize source with
  | exception Lexer.Error e ->
      Error (Parse_error.to_string (Parse_error.of_lexer_error e))
  | toks -> (
      let st = { Parser.toks = Array.of_list toks; pos = 0 } in
      let tok () = (st.Parser.toks.(st.Parser.pos)).Lexer.tok in
      let advance () =
        if st.Parser.pos < Array.length st.Parser.toks - 1 then
          st.Parser.pos <- st.Parser.pos + 1
      in
      let expect_semi () =
        match tok () with
        | Token.SEMI -> advance ()
        | t ->
            Parse_error.raise_at Loc.dummy "expected ';' (found %s)"
              (Token.to_string t)
      in
      let rec command () : cmd =
        match tok () with
        | Token.IDENT "new" ->
            advance ();
            let cls =
              match tok () with
              | Token.IDENT c ->
                  advance ();
                  c
              | t ->
                  Parse_error.raise_at Loc.dummy "expected class name, got %s"
                    (Token.to_string t)
            in
            (match tok () with
            | Token.LPAREN -> ()
            | t ->
                Parse_error.raise_at Loc.dummy "expected '(', got %s"
                  (Token.to_string t));
            advance ();
            let key = Parser.parse_expr st in
            (match tok () with
            | Token.RPAREN -> advance ()
            | t ->
                Parse_error.raise_at Loc.dummy "expected ')', got %s"
                  (Token.to_string t));
            let birth =
              match tok () with
              | Token.IDENT ev ->
                  advance ();
                  let args =
                    match tok () with
                    | Token.LPAREN -> Parser.parse_paren_args st
                    | _ -> []
                  in
                  Some (ev, args)
              | _ -> None
            in
            C_new (cls, key, birth)
        | Token.IDENT "show" ->
            advance ();
            C_show (Parser.parse_expr st)
        | Token.IDENT "goal" -> (
            advance ();
            let e = Parser.parse_expr st in
            let r =
              match e.Ast.e with
              | Ast.E_apply (cls, [ key ]) -> Ast.OR_instance (cls, key)
              | Ast.E_var name -> Ast.OR_name name
              | _ ->
                  Parse_error.raise_at Loc.dummy
                    "goal expects CLASS(key) or an object name"
            in
            match tok () with
            | Token.COLON ->
                advance ();
                C_goal (r, Parser.parse_formula st)
            | t ->
                Parse_error.raise_at Loc.dummy
                  "expected ':' before the goal formula, got %s"
                  (Token.to_string t))
        | Token.IDENT "trace" -> (
            advance ();
            let e = Parser.parse_expr st in
            match e.Ast.e with
            | Ast.E_apply (cls, [ key ]) ->
                C_trace (Ast.OR_instance (cls, key))
            | Ast.E_var name -> C_trace (Ast.OR_name name)
            | _ ->
                Parse_error.raise_at Loc.dummy
                  "trace expects CLASS(key) or an object name")
        | Token.KW "view" | Token.IDENT "view" ->
            advance ();
            let name =
              match tok () with
              | Token.IDENT n ->
                  advance ();
                  n
              | t ->
                  Parse_error.raise_at Loc.dummy "expected view name, got %s"
                    (Token.to_string t)
            in
            C_view name
        | Token.KW "active" | Token.IDENT "active" -> (
            advance ();
            match tok () with
            | Token.INT n ->
                advance ();
                C_active n
            | _ -> C_active 1000)
        | Token.IDENT "expect" ->
            advance ();
            (match tok () with
            | Token.IDENT "reject" -> advance ()
            | t ->
                Parse_error.raise_at Loc.dummy
                  "expected 'reject' after 'expect', got %s"
                  (Token.to_string t));
            C_expect_reject (command ())
        | Token.IDENT "seq" ->
            advance ();
            let rec events acc =
              let ev = Parser.parse_event_term st in
              match tok () with
              | Token.SEMI -> (
                  advance ();
                  match tok () with
                  | Token.KW "end" ->
                      advance ();
                      List.rev (ev :: acc)
                  | _ -> events (ev :: acc))
              | Token.KW "end" ->
                  advance ();
                  List.rev (ev :: acc)
              | t ->
                  Parse_error.raise_at Loc.dummy
                    "expected ';' or 'end' in seq, got %s"
                    (Token.to_string t)
            in
            C_seq (events [])
        | _ -> C_fire (Parser.parse_event_term st)
      in
      let rec commands acc =
        match tok () with
        | Token.EOF -> List.rev acc
        | _ ->
            let c = command () in
            expect_semi ();
            commands (c :: acc)
      in
      match commands [] with
      | cmds -> Ok cmds
      | exception Parse_error.E e -> Error (Parse_error.to_string e))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = { output : string list; failed : string option }

let resolve_event sys (term : Ast.event_term) : Event.t =
  let env = Env.empty in
  Engine.resolve_called sys.Troll.community ~env ~self:None term

let rec exec_cmd sys (cmd : cmd) : (string list, string) result =
  match cmd with
  | C_new (cls, key_expr, birth) -> (
      let key = Eval.expr sys.Troll.community ~env:Env.empty ~self:None key_expr in
      let event, args =
        match birth with
        | Some (ev, arg_exprs) ->
            ( Some ev,
              List.map
                (Eval.expr sys.Troll.community ~env:Env.empty ~self:None)
                arg_exprs )
        | None -> (None, [])
      in
      match
        Engine.step sys.Troll.community (Step.Create { cls; key; event; args })
      with
      | Ok _ -> Ok [ Printf.sprintf "created %s(%s)" cls (Value.to_string key) ]
      | Error r -> Error (Runtime_error.reason_to_string r))
  | C_fire term -> (
      let ev = resolve_event sys term in
      match Engine.step sys.Troll.community (Step.Fire ev) with
      | Ok o ->
          Ok
            [ Printf.sprintf "ok: %s"
                (String.concat "; "
                   (List.map
                      (fun step ->
                        String.concat ", " (List.map Event.to_string step))
                      o.Engine.committed)) ]
      | Error r -> Error (Runtime_error.reason_to_string r))
  | C_seq terms -> (
      let evs = List.map (resolve_event sys) terms in
      match Engine.step sys.Troll.community (Step.Seq evs) with
      | Ok _ -> Ok [ Printf.sprintf "ok: transaction of %d" (List.length evs) ]
      | Error r -> Error (Runtime_error.reason_to_string r))
  | C_show e -> (
      match Eval.expr sys.Troll.community ~env:Env.empty ~self:None e with
      | v -> Ok [ Printf.sprintf "%s = %s" (Pretty.expr_to_string e) (Value.to_string v) ]
      | exception Runtime_error.Error r ->
          Error (Runtime_error.reason_to_string r))
  | C_trace r -> (
      let id =
        Eval.resolve_ref sys.Troll.community ~env:Env.empty ~self:None r
      in
      match Community.find_object sys.Troll.community id with
      | None -> Error (Printf.sprintf "unknown object %s" (Ident.to_string id))
      | Some o ->
          if o.Obj_state.history = [] then
            Ok
              [ Printf.sprintf
                  "%s: no recorded history (enable record_history)"
                  (Ident.to_string id) ]
          else Ok (String.split_on_char '\n' (Trace.to_string o)))
  | C_goal (r, goal) -> (
      let id =
        Eval.resolve_ref sys.Troll.community ~env:Env.empty ~self:None r
      in
      match Community.find_object sys.Troll.community id with
      | None -> Error (Printf.sprintf "unknown object %s" (Ident.to_string id))
      | Some o ->
          if Template.is_temporal_ast goal then
            Error "liveness goals are state formulas (no temporal operators)"
          else
            Ok
              [ Format.asprintf "%a" Liveness.pp_verdict
                  (Liveness.audit sys.Troll.community o goal) ])
  | C_view name -> (
      match List.assoc_opt name sys.Troll.views with
      | None -> Error (Printf.sprintf "no interface class %s" name)
      | Some v ->
          let rows = Interface.tabulate v in
          Ok
            (Printf.sprintf "%s: %d row(s)" name (List.length rows)
            :: List.map (fun r -> "  " ^ Value.to_string r) rows))
  | C_active fuel ->
      let fired = Engine.run_active sys.Troll.community ~fuel in
      Ok
        (Printf.sprintf "active: %d event(s)" (List.length fired)
        :: List.map (fun e -> "  " ^ Event.to_string e) fired)
  | C_expect_reject inner -> (
      match exec_safe sys inner with
      | Ok _ -> Error "expected rejection, but the statement was accepted"
      | Error r -> Ok [ Printf.sprintf "rejected as expected: %s" r ])

(** Like {!exec_cmd} but turning evaluation exceptions (unknown names,
    unresolvable targets) into script errors. *)
and exec_safe sys cmd =
  try exec_cmd sys cmd
  with Runtime_error.Error r -> Error (Runtime_error.reason_to_string r)

(** Run a script; stops at the first failure. *)
let run sys (cmds : script) : outcome =
  let rec go acc = function
    | [] -> { output = List.rev acc; failed = None }
    | cmd :: rest -> (
        match exec_safe sys cmd with
        | Ok lines -> go (List.rev_append lines acc) rest
        | Error e -> { output = List.rev acc; failed = Some e })
  in
  go [] cmds

let run_string sys source : outcome =
  match parse source with
  | Ok cmds -> run sys cmds
  | Error e -> { output = []; failed = Some e }
