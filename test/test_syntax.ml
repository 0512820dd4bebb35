(** Lexer, parser and pretty-printer tests, including the
    print-parse-print round trip on the paper's specifications and on
    randomly generated expressions. *)

let check = Alcotest.check
let tstr = Alcotest.string
let tbool = Alcotest.bool
let tint = Alcotest.int

let tokens_of src =
  List.map (fun (l : Lexer.lexeme) -> l.Lexer.tok) (Lexer.tokenize src)

let token = Alcotest.testable Token.pp Token.equal

let parse_expr_exn src =
  match Parser.expr_of_string src with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse error: %s" (Parse_error.to_string e)

let parse_formula_exn src =
  match Parser.formula_of_string src with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse error: %s" (Parse_error.to_string e)

let parse_spec_exn src =
  match Parser.spec src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %s" (Parse_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_literals () =
  check (Alcotest.list token) "ints and idents"
    [ Token.INT 42; Token.IDENT "x"; Token.EOF ]
    (tokens_of "42 x");
  check (Alcotest.list token) "money two decimals"
    [ Token.MONEY 1250; Token.EOF ]
    (tokens_of "12.50");
  check (Alcotest.list token) "money one decimal"
    [ Token.MONEY 1350; Token.EOF ]
    (tokens_of "13.5");
  check (Alcotest.list token) "money thousands grouping (paper's 5.000)"
    [ Token.MONEY 500000; Token.EOF ]
    (tokens_of "5.000");
  check (Alcotest.list token) "date literal"
    [ Token.DATE 7749; Token.EOF ]
    (tokens_of {|d"1991-03-21"|});
  check (Alcotest.list token) "string with escapes"
    [ Token.STRING "a\"b\n"; Token.EOF ]
    (tokens_of {|"a\"b\n"|})

let test_lex_int_then_dot () =
  (* '5.' followed by a non-digit stays an integer + DOT *)
  check (Alcotest.list token) "field access on int-valued name"
    [ Token.INT 5; Token.DOT; Token.IDENT "x"; Token.EOF ]
    (tokens_of "5.x")

let test_lex_operators () =
  check (Alcotest.list token) "calls and arrows"
    [ Token.IDENT "a"; Token.CALLS; Token.IDENT "b"; Token.ARROW;
      Token.IDENT "c"; Token.BORNBY; Token.IDENT "d"; Token.EOF ]
    (tokens_of "a >> b => c <- d");
  check (Alcotest.list token) "comparisons"
    [ Token.LE; Token.GE; Token.NEQ; Token.LT; Token.GT; Token.EQ; Token.EOF ]
    (tokens_of "<= >= <> < > =");
  check (Alcotest.list token) "concat vs plus"
    [ Token.CONCAT; Token.PLUS; Token.EOF ]
    (tokens_of "++ +")

let test_lex_unicode () =
  check (Alcotest.list token) "unicode operators"
    [ Token.IDENT "a"; Token.GE; Token.INT 1; Token.ARROW; Token.IDENT "b";
      Token.NEQ; Token.INT 2; Token.EOF ]
    (tokens_of "a ≥ 1 ⇒ b ≠ 2")

let test_lex_comments () =
  check (Alcotest.list token) "line comment"
    [ Token.INT 1; Token.INT 2; Token.EOF ]
    (tokens_of "1 -- comment\n2");
  check (Alcotest.list token) "nested block comment"
    [ Token.INT 1; Token.INT 2; Token.EOF ]
    (tokens_of "1 (* a (* nested *) b *) 2")

let test_lex_keyword_case () =
  check (Alcotest.list token) "keywords are case-insensitive"
    [ Token.KW "identification"; Token.KW "self"; Token.KW "list"; Token.EOF ]
    (tokens_of "IDENTIFICATION SELF LIST");
  check (Alcotest.list token) "identifiers keep case"
    [ Token.IDENT "Name"; Token.IDENT "DEPT"; Token.EOF ]
    (tokens_of "Name DEPT")

let test_lex_every_keyword () =
  let mixed k =
    String.mapi (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else c) k
  in
  List.iter
    (fun k ->
      List.iter
        (fun spelled ->
          check (Alcotest.list token) spelled [ Token.KW k; Token.EOF ]
            (tokens_of spelled))
        [ k; String.uppercase_ascii k; mixed k ])
    Token.keywords;
  check (Alcotest.list token) "near-misses stay identifiers"
    [ Token.IDENT "selects"; Token.IDENT "sel"; Token.IDENT "in_x";
      Token.IDENT "Emps"; Token.IDENT "d"; Token.EQ; Token.IDENT "d";
      Token.EOF ]
    (tokens_of "selects sel in_x Emps d = d")

let test_lex_out_of_range () =
  let error_at src =
    match Lexer.tokenize src with
    | exception Lexer.Error e -> Some (e.Lexer.pos.Loc.line, e.Lexer.pos.Loc.col)
    | _ -> None
  in
  let at = Alcotest.(option (pair int int)) in
  check at "integer above max_int" (Some (2, 3))
    (error_at "x\n  99999999999999999999");
  check at "money whose cents wrap" (Some (1, 5))
    (error_at "x = 99999999999999999.50");
  check at "one fraction digit past the largest amount" (Some (1, 1))
    (error_at "46116860184273879.1");
  check at "grouped money whose cents wrap" (Some (1, 1))
    (error_at "46116860184274.000");
  check (Alcotest.list token) "largest integer"
    [ Token.INT max_int; Token.EOF ]
    (tokens_of "4611686018427387903");
  check (Alcotest.list token) "largest amount"
    [ Token.MONEY max_int; Token.EOF ]
    (tokens_of "46116860184273879.03");
  check at "one cent more" (Some (1, 1)) (error_at "46116860184273879.04")

let test_lex_errors () =
  let error_of src =
    match Lexer.tokenize src with
    | exception Lexer.Error e ->
        Printf.sprintf "%d:%d %s" e.Lexer.pos.Loc.line e.Lexer.pos.Loc.col
          e.Lexer.message
    | _ -> "no error"
  in
  List.iter
    (fun (src, want) -> check tstr (String.escaped src) want (error_of src))
    [
      ({|"abc|}, "1:1 unterminated string");
      ({|"ab\|}, "1:1 unterminated string");
      ({|d"abc|}, "1:2 unterminated string");
      ("(* abc", "1:1 unterminated comment");
      ("(* (* *)", "1:1 unterminated comment");
      ("(*)", "1:1 unterminated comment");
      ("ab\n(*\n x", "2:1 unterminated comment");
      ({|"a\q"|}, "1:4 invalid escape \\q");
      ("\"a\nb\\z\"", "2:3 invalid escape \\z");
      ("#", "1:1 unexpected character '#'");
      ("a\000b", "1:2 unexpected character '\\000'");
      ("\226\137", "1:1 unexpected character '\\226'");
      ("1.2345", "1:7 money literal with 4 fraction digits (use 1-3)");
      ({|d"1991-13-45"|}, {|1:14 invalid date literal "1991-13-45"|});
    ]

let test_lex_positions () =
  let lexemes = Lexer.tokenize "ab\n  cd" in
  match lexemes with
  | [ a; b; _eof ] ->
      check tint "first line" 1 a.Lexer.loc.Loc.start_pos.Loc.line;
      check tint "second line" 2 b.Lexer.loc.Loc.start_pos.Loc.line;
      check tint "second col" 3 b.Lexer.loc.Loc.start_pos.Loc.col
  | _ -> Alcotest.fail "expected two tokens"

(* ------------------------------------------------------------------ *)
(* Expression parsing                                                  *)
(* ------------------------------------------------------------------ *)

let expr_str src = Pretty.expr_to_string (parse_expr_exn src)

let test_parse_precedence () =
  check tstr "mul binds tighter" "(1 + (2 * 3))" (expr_str "1 + 2 * 3");
  check tstr "left assoc" "((1 - 2) - 3)" (expr_str "1 - 2 - 3");
  check tstr "cmp above add" "((a + 1) < (b * 2))" (expr_str "a + 1 < b * 2");
  check tstr "and above or" "(a or (b and c))" (expr_str "a or b and c");
  check tstr "not binds tight" "((not a) and b)" (expr_str "not a and b");
  check tstr "parens respected" "((1 + 2) * 3)" (expr_str "(1 + 2) * 3");
  check tstr "unary minus" "((- 1) + 2)" (expr_str "-1 + 2")

let test_parse_postfix () =
  check tstr "field access" "a.b" (expr_str "a.b");
  check tstr "chained" "(a.b).c" (expr_str "a.b.c");
  check tstr "instance attribute" "DEPT(d).manager" (expr_str "DEPT(d).manager");
  check tstr "self attribute" "self.Dept" (expr_str "self.Dept");
  check tstr "SELF is self" "self.Dept" (expr_str "SELF.Dept");
  check tstr "application" "count(xs)" (expr_str "count(xs)");
  check tstr "parameterized attribute" "p.IncomeInYear(1991)"
    (expr_str "p.IncomeInYear(1991)")

let test_parse_literals_and_collections () =
  check tstr "set literal" "{1, 2}" (expr_str "{1, 2}");
  check tstr "empty set" "{}" (expr_str "{ }");
  check tstr "list literal" "[1, 2]" (expr_str "[1, 2]");
  check tstr "named tuple" "tuple(a: 1, b: 2)" (expr_str "tuple(a: 1, b: 2)");
  check tstr "positional tuple" "tuple(n, b, s)" (expr_str "tuple(n, b, s)");
  check tstr "if expression" "(if (a < b) then a else b fi)"
    (expr_str "if a < b then a else b fi");
  check tstr "undefined" "undefined" (expr_str "undefined");
  check tstr "in prefix form" "in(Emps, x)" (expr_str "in(Emps, x)");
  check tstr "in infix form" "(x in Emps)" (expr_str "x in Emps")

let test_parse_query () =
  check tstr "select" {|select[(ename = n)](Emps)|}
    (expr_str {|select[ename = n](Emps)|});
  check tstr "project" "project[esalary](Emps)"
    (expr_str "project[esalary](Emps)");
  check tstr "nested algebra"
    "the(project[esalary](select[(ename = n)](Emps)))"
    (expr_str "the(project[esalary](select[ename = n](Emps)))")

(* ------------------------------------------------------------------ *)
(* Formula parsing                                                     *)
(* ------------------------------------------------------------------ *)

let formula_str src = Pretty.formula_to_string (parse_formula_exn src)

let test_parse_formulas () =
  check tstr "sometime after" "sometime(after(hire(P)))"
    (formula_str "sometime(after(hire(P)))");
  check tstr "implication chain"
    "(sometime(x) => sometime(after(f(P))))"
    (formula_str "sometime(x) => sometime(after(f(P)))");
  check tstr "forall"
    "for all (P: PERSON : (sometime((P in employees)) => sometime(after(fire(P)))))"
    (formula_str
       "for all (P: PERSON : sometime(P in employees) => sometime(after(fire(P))))");
  check tstr "exists paper style"
    "exists (s1: integer : in(Emps, tuple(ename: n, ebirth: b, esalary: s1)))"
    (formula_str
       "exists (s1: integer) in(Emps, tuple(ename: n, ebirth: b, esalary: s1))");
  check tstr "since" "(a since b)" (formula_str "a since b");
  check tstr "previous" "previous((x = 1))" (formula_str "previous(x = 1)");
  check tstr "always" "always((x >= 0))" (formula_str "always(x >= 0)");
  check tstr "not formula" "not(sometime(a))" (formula_str "not sometime(a)")

let test_parse_formula_expr_mix () =
  (* boolean connectives over plain expressions parse at the expression
     level inside select conditions *)
  check tstr "select with and"
    "select[((ename = n) and (ebirth = b))](Emps)"
    (expr_str "select[ename = n and ebirth = b](Emps)");
  (* a parenthesised temporal group in formula position *)
  check tstr "parenthesised temporal"
    "(sometime(a) and (x > 0))"
    (formula_str "(sometime(a) and x > 0)")

let test_formula_not_in_expr () =
  match Parser.expr_of_string "1 + (sometime(a))" with
  | Ok _ -> Alcotest.fail "temporal operator accepted in expression"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_dept_class () =
  match parse_spec_exn Paper_specs.dept with
  | [ Ast.D_class person; Ast.D_class dept; Ast.D_global g ] ->
      check tstr "person name" "PERSON" person.Ast.cl_name;
      check tstr "dept name" "DEPT" dept.Ast.cl_name;
      check tint "dept attrs" 3 (List.length dept.Ast.cl_body.Ast.t_attributes);
      check tint "dept events" 5 (List.length dept.Ast.cl_body.Ast.t_events);
      check tint "dept valuations" 5
        (List.length dept.Ast.cl_body.Ast.t_valuation);
      check tint "dept permissions" 3
        (List.length dept.Ast.cl_body.Ast.t_permissions);
      check tint "global rules" 1 (List.length g.Ast.g_rules);
      let birth =
        List.find
          (fun (e : Ast.event_decl) -> e.Ast.ev_kind = Ast.Ev_birth)
          dept.Ast.cl_body.Ast.t_events
      in
      check tstr "birth event" "establishment" birth.Ast.ev_decl_name
  | ds -> Alcotest.failf "unexpected shape: %d decls" (List.length ds)

let test_parse_phase_class () =
  let spec = parse_spec_exn Paper_specs.company in
  let manager =
    List.find_map
      (function
        | Ast.D_class c when String.equal c.Ast.cl_name "MANAGER" -> Some c
        | _ -> None)
      spec
  in
  match manager with
  | None -> Alcotest.fail "MANAGER not parsed"
  | Some m -> (
      check (Alcotest.option tstr) "view of" (Some "PERSON") m.Ast.cl_view_of;
      let birth =
        List.find
          (fun (e : Ast.event_decl) -> e.Ast.ev_born_by <> None)
          m.Ast.cl_body.Ast.t_events
      in
      check tstr "phase birth is base event" "become_manager"
        birth.Ast.ev_decl_name;
      match birth.Ast.ev_born_by with
      | Some { Ast.target = Some (Ast.OR_name "PERSON"); _ } -> ()
      | _ -> Alcotest.fail "born_by target")

let test_parse_interfaces () =
  let spec = parse_spec_exn Paper_specs.company in
  let ifaces =
    List.filter_map
      (function Ast.D_interface i -> Some i | _ -> None)
      spec
  in
  check tint "four interfaces" 4 (List.length ifaces);
  let works_for =
    List.find (fun (i : Ast.iface_decl) -> i.Ast.if_name = "WORKS_FOR") ifaces
  in
  check tint "join view encapsulates two" 2
    (List.length works_for.Ast.if_encapsulating);
  check tbool "has selection" true (works_for.Ast.if_selection <> None);
  check tint "two derivation rules" 2
    (List.length works_for.Ast.if_derivation);
  let sal2 =
    List.find
      (fun (i : Ast.iface_decl) -> i.Ast.if_name = "SAL_EMPLOYEE2")
      ifaces
  in
  check tbool "derived attribute flag" true
    (List.exists (fun (a : Ast.iface_attr) -> a.Ast.ia_derived)
       sal2.Ast.if_attributes);
  check tint "calling rules" 1 (List.length sal2.Ast.if_calling)

let test_parse_transaction_calling () =
  let spec = parse_spec_exn Paper_specs.employee_implementation in
  let emp_rel =
    List.find_map
      (function
        | Ast.D_object o when o.Ast.o_name = "emp_rel" -> Some o | _ -> None)
      spec
  in
  match emp_rel with
  | None -> Alcotest.fail "emp_rel not parsed"
  | Some o ->
      let rule =
        List.find
          (fun (r : Ast.calling_rule) ->
            r.Ast.i_caller.Ast.ev_name = "ChangeSalary")
          o.Ast.o_body.Ast.t_calling
      in
      check tint "transaction rhs has two events" 2
        (List.length rule.Ast.i_called)

let test_parse_single_called_instance () =
  (* CLASS(id).ev on the rhs must NOT be mistaken for a sequence *)
  let spec =
    parse_spec_exn
      {|
object class A
  identification k: string;
  template
    events birth mk; go;
    calling
      variables B1: |A|;
      go >> A("x").go;
end object class A;
|}
  in
  match spec with
  | [ Ast.D_class c ] ->
      let rule = List.hd c.Ast.cl_body.Ast.t_calling in
      check tint "single called event" 1 (List.length rule.Ast.i_called)
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_enum_and_module () =
  let spec =
    parse_spec_exn
      {|
data type Color = (red, green, blue);
module M
  import N.S;
  conceptual schema
    object class X
      identification k: string;
      template
        events birth b;
    end object class X;
  external schema pub = (X);
end module M;
|}
  in
  match spec with
  | [ Ast.D_enum e; Ast.D_module m ] ->
      check (Alcotest.list tstr) "constants" [ "red"; "green"; "blue" ]
        e.Ast.en_consts;
      check tstr "module name" "M" m.Ast.m_name;
      check tint "imports" 1 (List.length m.Ast.m_imports);
      check tint "conceptual decls" 1 (List.length m.Ast.m_conceptual);
      check tint "exports" 1 (List.length m.Ast.m_external)
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_errors_have_positions () =
  match Parser.spec "object class ; end" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
      check tbool "line recorded" true (e.Parse_error.loc.Loc.start_pos.Loc.line >= 1)

let test_parse_trailing_garbage () =
  match Parser.expr_of_string "1 + 2 )" with
  | Ok _ -> Alcotest.fail "accepted trailing input"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip_spec name src () =
  let spec = parse_spec_exn src in
  let printed = Pretty.spec_to_string spec in
  let spec2 = parse_spec_exn printed in
  let printed2 = Pretty.spec_to_string spec2 in
  check tstr (name ^ ": pretty∘parse∘pretty stable") printed printed2

(* random expression generator producing well-formed printable ASTs *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> Ast.mk_expr (Ast.E_lit (Ast.L_int i))) (int_range 0 99);
        map (fun b -> Ast.mk_expr (Ast.E_lit (Ast.L_bool b))) bool;
        return (Ast.mk_expr (Ast.E_lit Ast.L_undefined));
        oneofl
          (List.map
             (fun v -> Ast.mk_expr (Ast.E_var v))
             [ "x"; "y"; "employees"; "Salary" ]) ]
  in
  let rec gen n =
    if n = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (2,
           map2
             (fun op (a, b) -> Ast.mk_expr (Ast.E_binop (op, a, b)))
             (oneofl [ "+"; "-"; "*"; "="; "<"; "in"; "and"; "or" ])
             (pair (gen (n - 1)) (gen (n - 1))));
          (1,
           map
             (fun a -> Ast.mk_expr (Ast.E_unop ("not", a)))
             (gen (n - 1)));
          (1,
           map
             (fun xs -> Ast.mk_expr (Ast.E_setlit xs))
             (list_size (int_range 0 3) (gen (n - 1))));
          (1,
           map2
             (fun f args -> Ast.mk_expr (Ast.E_apply (f, args)))
             (oneofl [ "count"; "insert"; "union" ])
             (list_size (int_range 1 2) (gen (n - 1))));
          (1,
           map
             (fun fields ->
               Ast.mk_expr
                 (Ast.E_tuple (List.mapi (fun i e -> (Some (Printf.sprintf "f%d" i), e)) fields)))
             (list_size (int_range 1 3) (gen (n - 1))));
          (1,
           map3
             (fun a b c -> Ast.mk_expr (Ast.E_if (a, b, c)))
             (gen (n - 1)) (gen (n - 1)) (gen (n - 1))) ]
  in
  gen 4

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr: print/parse/print stable" ~count:500
    (QCheck.make ~print:Pretty.expr_to_string gen_expr)
    (fun e ->
      let s = Pretty.expr_to_string e in
      match Parser.expr_of_string s with
      | Error _ -> false
      | Ok e' -> String.equal s (Pretty.expr_to_string e'))

let gen_formula =
  let open QCheck.Gen in
  let atom =
    map
      (fun e -> Ast.mk_formula (Ast.F_expr e))
      (oneof
         [ map (fun b -> Ast.mk_expr (Ast.E_lit (Ast.L_bool b))) bool;
           oneofl
             (List.map (fun v -> Ast.mk_expr (Ast.E_var v)) [ "p"; "q" ]) ])
  in
  let ev =
    map
      (fun name -> Ast.mk_event name [])
      (oneofl [ "hire"; "fire"; "go" ])
  in
  let rec gen n =
    if n = 0 then atom
    else
      frequency
        [ (2, atom);
          (1, map (fun f -> Ast.mk_formula (Ast.F_not f)) (gen (n - 1)));
          (1,
           map2
             (fun a b -> Ast.mk_formula (Ast.F_and (a, b)))
             (gen (n - 1)) (gen (n - 1)));
          (1,
           map2
             (fun a b -> Ast.mk_formula (Ast.F_implies (a, b)))
             (gen (n - 1)) (gen (n - 1)));
          (1, map (fun f -> Ast.mk_formula (Ast.F_sometime f)) (gen (n - 1)));
          (1, map (fun f -> Ast.mk_formula (Ast.F_always f)) (gen (n - 1)));
          (1,
           map2
             (fun a b -> Ast.mk_formula (Ast.F_since (a, b)))
             (gen (n - 1)) (gen (n - 1)));
          (1, map (fun f -> Ast.mk_formula (Ast.F_previous f)) (gen (n - 1)));
          (1, map (fun e -> Ast.mk_formula (Ast.F_after e)) ev) ]
  in
  gen 4

let prop_formula_roundtrip =
  QCheck.Test.make ~name:"formula: print/parse/print stable" ~count:500
    (QCheck.make ~print:Pretty.formula_to_string gen_formula)
    (fun f ->
      let s = Pretty.formula_to_string f in
      match Parser.formula_of_string s with
      | Error _ -> false
      | Ok f' -> String.equal s (Pretty.formula_to_string f'))

(* random whole declarations: generate a well-formed class AST, print,
   re-parse, print — strings must agree *)
let gen_class_decl =
  let open QCheck.Gen in
  let tys = [ Ast.TE_name "integer"; Ast.TE_name "bool"; Ast.TE_name "string";
              Ast.TE_set (Ast.TE_name "integer") ] in
  let gen_ty = oneofl tys in
  let lit_for = function
    | Ast.TE_name "integer" ->
        map (fun i -> Ast.mk_expr (Ast.E_lit (Ast.L_int i))) (int_range 0 99)
    | Ast.TE_name "bool" ->
        map (fun b -> Ast.mk_expr (Ast.E_lit (Ast.L_bool b))) bool
    | Ast.TE_name "string" ->
        return (Ast.mk_expr (Ast.E_lit (Ast.L_string "s")))
    | _ -> return (Ast.mk_expr (Ast.E_setlit []))
  in
  let* n_attrs = int_range 1 5 in
  let* attr_tys = list_repeat n_attrs gen_ty in
  let attrs =
    List.mapi
      (fun i ty ->
        { Ast.a_name = Printf.sprintf "a%d" i; a_params = []; a_type = ty;
          a_derived = false; a_constant = false; a_loc = Loc.dummy })
      attr_tys
  in
  let* n_events = int_range 1 4 in
  let* ev_tys = list_repeat n_events (option gen_ty) in
  let events =
    { Ast.ev_decl_name = "birthed"; ev_params = []; ev_kind = Ast.Ev_birth;
      ev_active = false; ev_derived = false; ev_born_by = None;
      ev_decl_loc = Loc.dummy }
    :: List.mapi
         (fun i ty ->
           { Ast.ev_decl_name = Printf.sprintf "e%d" i;
             ev_params = (match ty with Some t -> [ t ] | None -> []);
             ev_kind = Ast.Ev_normal; ev_active = false; ev_derived = false;
             ev_born_by = None; ev_decl_loc = Loc.dummy })
         ev_tys
  in
  let* valuations =
    let rule i ty =
      let* rhs = lit_for ty in
      return
        { Ast.v_guard = None;
          v_event = Ast.mk_event "birthed" [];
          v_attr = Printf.sprintf "a%d" i; v_attr_args = []; v_rhs = rhs;
          v_loc = Loc.dummy }
    in
    flatten_l (List.mapi rule attr_tys)
  in
  let* with_perm = bool in
  let perms =
    if with_perm && n_events >= 1 then
      [ { Ast.p_guard =
            Ast.mk_formula
              (Ast.F_sometime
                 (Ast.mk_formula (Ast.F_after (Ast.mk_event "birthed" []))));
          p_event = Ast.mk_event "e0"
            (match List.hd ev_tys with
             | Some (Ast.TE_name "integer") ->
                 [ Ast.mk_expr (Ast.E_lit (Ast.L_int 1)) ]
             | Some (Ast.TE_name "bool") ->
                 [ Ast.mk_expr (Ast.E_lit (Ast.L_bool true)) ]
             | Some (Ast.TE_name "string") ->
                 [ Ast.mk_expr (Ast.E_lit (Ast.L_string "s")) ]
             | Some _ -> [ Ast.mk_expr (Ast.E_setlit []) ]
             | None -> []);
          p_loc = Loc.dummy } ]
    else []
  in
  let body =
    { Ast.empty_body with
      Ast.t_attributes = attrs;
      t_events = events;
      t_valuation = valuations;
      t_permissions = perms }
  in
  return
    (Ast.D_class
       { Ast.cl_name = "GEN"; cl_identification = [ ("id", Ast.TE_name "string") ];
         cl_view_of = None; cl_spec_of = None; cl_body = body;
         cl_loc = Loc.dummy })

let prop_decl_roundtrip =
  QCheck.Test.make ~name:"declaration: print/parse/print stable" ~count:300
    (QCheck.make ~print:Pretty.decl_to_string gen_class_decl)
    (fun d ->
      let s = Pretty.decl_to_string d in
      match Parser.spec s with
      | Error _ -> false
      | Ok spec -> String.equal s (Pretty.spec_to_string spec))

(* fuzz: arbitrary token soups must produce Ok or a positioned error,
   never an exception or a hang *)
let prop_parser_total =
  let fragments =
    [| "object"; "class"; "end"; "template"; "attributes"; "events";
       "valuation"; "permissions"; "{"; "}"; "("; ")"; "["; "]"; ";"; ":";
       ","; "."; "="; ">>"; "=>"; "<-"; "|"; "+"; "*"; "x"; "DEPT"; "42";
       "12.5"; "\"s\""; "sometime"; "after"; "in"; "self"; "birth";
       "d\"1991-01-01\""; "for"; "all"; "exists"; "tuple"; "select" |]
  in
  QCheck.Test.make ~name:"parser: total on token soups" ~count:500
    (QCheck.make
       ~print:(fun ids ->
         String.concat " " (List.map (fun i -> fragments.(i)) ids))
       QCheck.Gen.(
         list_size (int_range 0 30)
           (int_range 0 (Array.length fragments - 1))))
    (fun ids ->
      let src = String.concat " " (List.map (fun i -> fragments.(i)) ids) in
      match Parser.spec src with
      | Ok _ | Error _ -> true
      | exception Lexer.Error _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "syntax"
    [
      ( "lexer",
        [
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "int then dot" `Quick test_lex_int_then_dot;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "unicode operators" `Quick test_lex_unicode;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "keyword case" `Quick test_lex_keyword_case;
          Alcotest.test_case "every keyword, any case" `Quick
            test_lex_every_keyword;
          Alcotest.test_case "out-of-range literals" `Quick
            test_lex_out_of_range;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "positions" `Quick test_lex_positions;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "postfix" `Quick test_parse_postfix;
          Alcotest.test_case "literals/collections" `Quick
            test_parse_literals_and_collections;
          Alcotest.test_case "query algebra" `Quick test_parse_query;
        ] );
      ( "formulas",
        [
          Alcotest.test_case "temporal operators" `Quick test_parse_formulas;
          Alcotest.test_case "expr/formula mix" `Quick
            test_parse_formula_expr_mix;
          Alcotest.test_case "temporal rejected in expr" `Quick
            test_formula_not_in_expr;
        ] );
      ( "declarations",
        [
          Alcotest.test_case "DEPT (paper §4)" `Quick test_parse_dept_class;
          Alcotest.test_case "MANAGER phase" `Quick test_parse_phase_class;
          Alcotest.test_case "interfaces (§5.1)" `Quick test_parse_interfaces;
          Alcotest.test_case "transaction calling (§5.2)" `Quick
            test_parse_transaction_calling;
          Alcotest.test_case "rhs instance vs sequence" `Quick
            test_parse_single_called_instance;
          Alcotest.test_case "enum and module" `Quick
            test_parse_enum_and_module;
          Alcotest.test_case "error positions" `Quick
            test_parse_errors_have_positions;
          Alcotest.test_case "trailing garbage" `Quick
            test_parse_trailing_garbage;
        ] );
      ( "round-trips",
        [
          Alcotest.test_case "DEPT spec" `Quick
            (roundtrip_spec "dept" Paper_specs.dept);
          Alcotest.test_case "company spec" `Quick
            (roundtrip_spec "company" Paper_specs.company);
          Alcotest.test_case "employee abstract" `Quick
            (roundtrip_spec "employee" Paper_specs.employee_abstract);
          Alcotest.test_case "employee implementation" `Quick
            (roundtrip_spec "impl" Paper_specs.employee_implementation);
          Alcotest.test_case "library spec" `Quick
            (roundtrip_spec "library" Paper_specs.library);
        ] );
      ( "random-round-trips",
        List.map QCheck_alcotest.to_alcotest
          [ prop_expr_roundtrip; prop_formula_roundtrip ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest prop_parser_total ]);
      ( "random-declarations",
        [ QCheck_alcotest.to_alcotest prop_decl_roundtrip ] );
    ]
