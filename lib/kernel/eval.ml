(** Evaluation of expressions, state formulas and event patterns against
    a community.

    Name resolution is dynamic and follows the TROLL scoping rules:

    - a bare name is first a bound variable, then an attribute of the
      current object (including attributes inherited from base aspects),
      then an enumeration constant, then the extension of a class (as a
      set of surrogates), then a single named object (as a surrogate);
    - object references ([self], component aliases, [CLASS(key)]) resolve
      to identities; reading an attribute through them reads the other
      object's observable state — TROLL attributes are a read-only
      interface offered to other objects;
    - derived attributes evaluate their derivation rule on demand.

    All errors are reported through {!Runtime_error}. *)

open Runtime_error

let value_error fmt = Format.kasprintf (fun m -> fail (Eval_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Identity helpers                                                    *)
(* ------------------------------------------------------------------ *)

(** Interpret a value as a key for class [cls]: surrogate values pass
    through (their key is extracted), anything else is used as the raw
    key. *)
let key_of_value cls v =
  match v with
  | Value.Id (_, key) -> Ident.make cls key
  | other -> Ident.make cls other

(* ------------------------------------------------------------------ *)
(* Attribute reading with inheritance                                  *)
(* ------------------------------------------------------------------ *)

let rec read_attr (c : Community.t) (o : Obj_state.t) (name : string)
    (args : Value.t list) : Value.t =
  if String.equal name "surrogate" && args = [] then
    (* built-in pseudo attribute: the object's own identity, as used in
       the paper's WORKS_FOR join view ([P.surrogate in D.employees]) *)
    Ident.to_value o.Obj_state.id
  else
  match Template.find_attr o.Obj_state.template name with
  | Some def -> (
      match def.Template.at_derived with
      | Some rule ->
          let env =
            try Env.of_list (List.combine rule.Ast.d_params args)
            with Invalid_argument _ ->
              value_error "attribute %s.%s expects %d argument(s)"
                o.Obj_state.template.Template.t_name name
                (List.length rule.Ast.d_params)
          in
          expr c ~env ~self:(Some o) rule.Ast.d_rhs
      | None -> Obj_state.attr o name)
  | None -> (
      (* inheritance: delegate to base aspects with the same key *)
      match base_object c o with
      | Some base -> read_attr c base name args
      | None ->
          fail
            (Unknown_attribute (o.Obj_state.template.Template.t_name, name)))

and base_object (c : Community.t) (o : Obj_state.t) : Obj_state.t option =
  let tpl = o.Obj_state.template in
  let base_name =
    match (tpl.Template.t_view_of, tpl.Template.t_spec_of) with
    | Some b, _ | None, Some b -> Some b
    | None, None -> None
  in
  match base_name with
  | None -> None
  | Some b ->
      Community.find_object c (Ident.make b o.Obj_state.id.Ident.key)

(* ------------------------------------------------------------------ *)
(* Object reference resolution                                         *)
(* ------------------------------------------------------------------ *)

and resolve_ref (c : Community.t) ~env ~(self : Obj_state.t option)
    (r : Ast.obj_ref) : Ident.t =
  match r with
  | Ast.OR_self -> (
      match self with
      | Some o -> o.Obj_state.id
      | None -> value_error "self used outside an object context")
  | Ast.OR_instance (cls, e) ->
      let v = expr c ~env ~self e in
      key_of_value cls v
  | Ast.OR_name n -> (
      (* variable holding a surrogate *)
      match Env.find n env with
      | Some (Value.Id (cls, key)) -> Ident.make cls key
      | Some v -> value_error "%s = %a is not an object" n Value.pp v
      | None -> (
          (* attribute of self holding a surrogate (component alias or
             [inheriting … as] incorporation) *)
          let from_attr =
            match self with
            | Some o -> (
                match Template.find_attr o.Obj_state.template n with
                | Some _ -> (
                    match read_attr c o n [] with
                    | Value.Id (cls, key) -> Some (Ident.make cls key)
                    | v -> value_error "%s = %a is not an object" n Value.pp v)
                | None -> None)
            | None -> None
          in
          match from_attr with
          | Some id -> id
          | None ->
              (* a single named object *)
              if Community.is_class c n then Ident.singleton n
              else fail (Unknown_class n)))

(* The current object may be a detached pre-birth state (not yet
   registered); references to its own identity must use it directly. *)
and object_for (c : Community.t) ~(self : Obj_state.t option) (id : Ident.t) :
    Obj_state.t =
  match self with
  | Some o when Ident.equal o.Obj_state.id id -> o
  | _ -> Community.object_exn c id

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and expr (c : Community.t) ~env ~(self : Obj_state.t option) (x : Ast.expr) :
    Value.t =
  match x.Ast.e with
  | Ast.E_lit l -> lit l
  | Ast.E_self -> (
      match self with
      | Some o -> Ident.to_value o.Obj_state.id
      | None -> value_error "self used outside an object context")
  | Ast.E_var name -> var c ~env ~self name
  | Ast.E_attr (r, name, args) ->
      let id = resolve_ref c ~env ~self r in
      let o = object_for c ~self id in
      let args = List.map (expr c ~env ~self) args in
      read_attr c o name args
  | Ast.E_field (base, fname) -> (
      let v = expr c ~env ~self base in
      match v with
      | Value.Tuple _ -> Value.field fname v
      | Value.Id (cls, key) ->
          let o = object_for c ~self (Ident.make cls key) in
          read_attr c o fname []
      | Value.Undefined -> Value.Undefined
      | v -> value_error "cannot select field %s of %a" fname Value.pp v)
  | Ast.E_apply (f, args) -> (
      let args = List.map (expr c ~env ~self) args in
      match (Community.is_class c f, args) with
      | true, [ key ] ->
          (* surrogate construction: [PERSON("bob")] denotes the identity
             of that instance *)
          Ident.to_value (key_of_value f key)
      | _ -> (
          match Builtin.apply f args with
          | Ok v -> v
          | Error m -> value_error "%s" m))
  | Ast.E_binop (op, a, b) -> (
      (* short-circuit boolean operators *)
      match op with
      | "and" -> (
          match expr c ~env ~self a with
          | Value.Bool false -> Value.Bool false
          | va -> apply2 op va (expr c ~env ~self b))
      | "or" -> (
          match expr c ~env ~self a with
          | Value.Bool true -> Value.Bool true
          | va -> apply2 op va (expr c ~env ~self b))
      | "implies" -> (
          match expr c ~env ~self a with
          | Value.Bool false -> Value.Bool true
          | va -> apply2 op va (expr c ~env ~self b))
      | _ -> apply2 op (expr c ~env ~self a) (expr c ~env ~self b))
  | Ast.E_unop (op, a) -> (
      let va = expr c ~env ~self a in
      match Builtin.apply op [ va ] with
      | Ok v -> v
      | Error m -> value_error "%s" m)
  | Ast.E_tuple fields ->
      let named =
        List.mapi
          (fun i (name, fx) ->
            let v = expr c ~env ~self fx in
            match name with
            | Some n -> (n, v)
            | None -> (Printf.sprintf "_%d" (i + 1), v))
          fields
      in
      Value.Tuple named
  | Ast.E_setlit xs -> Value.set (List.map (expr c ~env ~self) xs)
  | Ast.E_listlit xs -> Value.List (List.map (expr c ~env ~self) xs)
  | Ast.E_if (cond, t, f) -> (
      match expr c ~env ~self cond with
      | Value.Bool true -> expr c ~env ~self t
      | Value.Bool false -> expr c ~env ~self f
      | Value.Undefined -> Value.Undefined
      | v -> value_error "if condition is not boolean: %a" Value.pp v)
  | Ast.E_query q -> query c ~env ~self q

and apply2 op va vb =
  match Builtin.apply op [ va; vb ] with
  | Ok v -> v
  | Error m -> value_error "%s" m

and lit = function
  | Ast.L_bool b -> Value.Bool b
  | Ast.L_int i -> Value.Int i
  | Ast.L_string s -> Value.String s
  | Ast.L_money m -> Value.Money (Money.of_cents m)
  | Ast.L_date d -> Value.Date d
  | Ast.L_undefined -> Value.Undefined

and var (c : Community.t) ~env ~self name : Value.t =
  match Env.find name env with
  | Some v -> v
  | None -> (
      (* attribute of the current object (or of a base aspect) *)
      let from_attr =
        match self with
        | Some o ->
            let rec lookup o =
              match Template.find_attr o.Obj_state.template name with
              | Some _ -> Some (read_attr c o name [])
              | None -> (
                  match base_object c o with
                  | Some b -> lookup b
                  | None -> None)
            in
            lookup o
        | None -> None
      in
      match from_attr with
      | Some v -> v
      | None -> (
          match Community.enum_of_const c name with
          | Some enum -> Value.Enum (enum, name)
          | None -> (
              match Community.find_template c name with
              | Some tpl when tpl.Template.t_kind = `Single ->
                  (* a single named object denotes its surrogate *)
                  Ident.to_value (Ident.singleton name)
              | Some _ ->
                  (* the class extension as a set of surrogates *)
                  Value.set
                    (List.map Ident.to_value
                       (Ident.Set.elements (Community.extension c name)))
              | None -> value_error "unbound name %s" name)))

(* ------------------------------------------------------------------ *)
(* Query algebra                                                       *)
(* ------------------------------------------------------------------ *)

and query (c : Community.t) ~env ~self (q : Ast.query) : Value.t =
  let elements v =
    match v with
    | Value.Set xs | Value.List xs -> xs
    | Value.Undefined -> []
    | v -> value_error "query over non-collection %a" Value.pp v
  in
  match q with
  | Ast.Q_expr e -> expr c ~env ~self e
  | Ast.Q_select (cond, sub) ->
      let src = query c ~env ~self sub in
      let xs = elements src in
      let keep x =
        (* tuple fields of the element are in scope inside the condition *)
        let env' =
          match x with
          | Value.Tuple fields -> Env.bind_all fields env
          | _ -> env
        in
        let env' = Env.bind "it" x env' in
        match expr c ~env:env' ~self cond with
        | Value.Bool b -> b
        | Value.Undefined -> false
        | v -> value_error "selection condition is not boolean: %a" Value.pp v
      in
      (* a filter keeps a canonical set canonical; a list's selection
         still has to be sorted into one *)
      (match src with
      | Value.Set _ -> Value.Set (List.filter keep xs)
      | _ -> Value.set (List.filter keep xs))
  | Ast.Q_project (fields, sub) ->
      let xs = elements (query c ~env ~self sub) in
      let proj x =
        match (fields, x) with
        | [ f ], Value.Tuple _ -> Value.field f x
        | _, Value.Tuple _ ->
            Value.Tuple (List.map (fun f -> (f, Value.field f x)) fields)
        | _, v -> value_error "project over non-tuple element %a" Value.pp v
      in
      Value.set (List.map proj xs)
  | Ast.Q_the sub -> (
      match elements (query c ~env ~self sub) with
      | [ v ] -> v
      | _ -> Value.Undefined)
  | Ast.Q_count sub ->
      Value.Int (List.length (elements (query c ~env ~self sub)))
  | Ast.Q_sum (field, sub) -> aggregate c ~env ~self "sum" field sub
  | Ast.Q_min (field, sub) -> aggregate c ~env ~self "minimum" field sub
  | Ast.Q_max (field, sub) -> aggregate c ~env ~self "maximum" field sub

and aggregate c ~env ~self op field sub =
  let base = query c ~env ~self sub in
  let v =
    match field with
    | None -> base
    | Some f -> (
        (* project the field as a multiset so duplicate values still
           count towards the aggregate *)
        match base with
        | Value.Set xs | Value.List xs ->
            Value.List (List.map (Value.field f) xs)
        | other -> other)
  in
  match Builtin.apply op [ v ] with
  | Ok r -> r
  | Error m -> value_error "%s" m

(* ------------------------------------------------------------------ *)
(* State formulas                                                      *)
(* ------------------------------------------------------------------ *)

(** Evaluate a non-temporal formula on the current state.  Bounded
    quantifiers range over class extensions, finite types, or — for
    [exists] — witness candidates extracted from membership and equality
    constraints on the bound variable. *)
and formula_state (c : Community.t) ~env ~self (f : Ast.formula) : bool =
  match f.Ast.f with
  | Ast.F_expr e -> (
      match expr c ~env ~self e with
      | Value.Bool b -> b
      | Value.Undefined -> false
      | v -> value_error "formula is not boolean: %a" Value.pp v)
  | Ast.F_not g -> not (formula_state c ~env ~self g)
  | Ast.F_and (a, b) ->
      formula_state c ~env ~self a && formula_state c ~env ~self b
  | Ast.F_or (a, b) ->
      formula_state c ~env ~self a || formula_state c ~env ~self b
  | Ast.F_implies (a, b) ->
      (not (formula_state c ~env ~self a)) || formula_state c ~env ~self b
  | Ast.F_forall (binds, g) -> quantify c ~env ~self ~forall:true binds g
  | Ast.F_exists (binds, g) -> quantify c ~env ~self ~forall:false binds g
  | Ast.F_sometime _ | Ast.F_always _ | Ast.F_since _ | Ast.F_previous _
  | Ast.F_after _ ->
      fail
        (Unsupported
           "temporal operator evaluated as a state formula (should have been \
            compiled to a monitor)")

and quantify c ~env ~self ~forall binds g =
  match binds with
  | [] -> formula_state c ~env ~self g
  | (v, ty) :: rest ->
      let dom = domain c ~env ~self ~var:v ~body:g ty in
      let test x =
        quantify c ~env:(Env.bind v x env) ~self ~forall rest g
      in
      if forall then List.for_all test dom else List.exists test dom

(** Candidate domain of a quantified variable. *)
and domain c ~env ~self ~var ~body (ty : Ast.type_expr) : Value.t list =
  match ty with
  | Ast.TE_name n when Community.is_class c n ->
      List.map Ident.to_value (Ident.Set.elements (Community.extension c n))
  | Ast.TE_id n ->
      List.map Ident.to_value (Ident.Set.elements (Community.extension c n))
  | Ast.TE_name "bool" -> [ Value.Bool false; Value.Bool true ]
  | Ast.TE_name n -> (
      match Community.enum_consts c n with
      | Some cs -> List.map (fun cst -> Value.Enum (n, cst)) cs
      | None ->
          (* infinite base type: fall back to witness candidates *)
          witness_candidates c ~env ~self ~var body)
  | _ -> witness_candidates c ~env ~self ~var body

(** Collect candidate witnesses for [var] from membership and equality
    constraints inside [body]: for [var in S] every element of [S], for
    [var = e] / [e = var] the value of [e], and for [in(S, tuple(…,var,…))]
    the corresponding components of [S]'s elements.  Sound for [exists]
    when the body constrains the variable this way (as the paper's
    [exists(s1: integer) in(Emps, tuple(n, b, s1))] does); an empty
    candidate set makes the quantifier false. *)
and witness_candidates c ~env ~self ~var (body : Ast.formula) : Value.t list =
  let acc = ref [] in
  let mentions_var (x : Ast.expr) = List.mem var (Ast.expr_vars [] x) in
  let add v = acc := v :: !acc in
  let try_eval (x : Ast.expr) =
    match expr c ~env ~self x with v -> Some v | exception Error _ -> None
  in
  let from_collection coll (pattern : Ast.expr) =
    (* pattern is an expression mentioning [var]; if it is the variable
       itself take the elements, if it is a positional tuple take the
       matching component of tuple elements *)
    match try_eval coll with
    | Some (Value.Set xs | Value.List xs) -> (
        match pattern.Ast.e with
        | Ast.E_var v when String.equal v var -> List.iter add xs
        | Ast.E_tuple fields ->
            List.iteri
              (fun i (_, fx) ->
                match fx.Ast.e with
                | Ast.E_var v when String.equal v var ->
                    List.iter
                      (fun el ->
                        match el with
                        | Value.Tuple tf -> (
                            match List.nth_opt tf i with
                            | Some (_, comp) -> add comp
                            | None -> ())
                        | _ -> ())
                      xs
                | _ -> ())
              fields
        | _ -> ())
    | _ -> ()
  in
  let rec walk_expr (x : Ast.expr) =
    (match x.Ast.e with
    | Ast.E_binop ("in", elem, coll) when mentions_var elem ->
        from_collection coll elem
    | Ast.E_apply ("in", [ a; b ]) ->
        (* both argument orders, as in the paper *)
        if mentions_var b then from_collection a b;
        if mentions_var a then from_collection b a
    | Ast.E_binop ("=", a, b) -> (
        match (a.Ast.e, b.Ast.e) with
        | Ast.E_var v, _ when String.equal v var ->
            Option.iter add (try_eval b)
        | _, Ast.E_var v when String.equal v var ->
            Option.iter add (try_eval a)
        | _ -> ())
    | _ -> ());
    sub_exprs walk_expr x
  and sub_exprs k (x : Ast.expr) =
    match x.Ast.e with
    | Ast.E_lit _ | Ast.E_var _ | Ast.E_self -> ()
    | Ast.E_attr (_, _, args) | Ast.E_apply (_, args) -> List.iter k args
    | Ast.E_field (b, _) | Ast.E_unop (_, b) -> k b
    | Ast.E_binop (_, a, b) ->
        k a;
        k b
    | Ast.E_tuple fs -> List.iter (fun (_, e) -> k e) fs
    | Ast.E_setlit xs | Ast.E_listlit xs -> List.iter k xs
    | Ast.E_if (a, b, d) ->
        k a;
        k b;
        k d
    | Ast.E_query q -> walk_query q
  and walk_query = function
    | Ast.Q_expr e -> walk_expr e
    | Ast.Q_select (e, q) ->
        walk_expr e;
        walk_query q
    | Ast.Q_project (_, q) | Ast.Q_the q | Ast.Q_count q -> walk_query q
    | Ast.Q_sum (_, q) | Ast.Q_min (_, q) | Ast.Q_max (_, q) -> walk_query q
  in
  let rec walk_formula (f : Ast.formula) =
    match f.Ast.f with
    | Ast.F_expr e -> walk_expr e
    | Ast.F_not g | Ast.F_sometime g | Ast.F_always g | Ast.F_previous g ->
        walk_formula g
    | Ast.F_and (a, b) | Ast.F_or (a, b) | Ast.F_implies (a, b)
    | Ast.F_since (a, b) ->
        walk_formula a;
        walk_formula b
    | Ast.F_after ev -> List.iter walk_expr ev.Ast.ev_args
    | Ast.F_forall (_, g) | Ast.F_exists (_, g) -> walk_formula g
  in
  walk_formula body;
  List.sort_uniq Value.compare !acc

(* ------------------------------------------------------------------ *)
(* Event pattern matching                                              *)
(* ------------------------------------------------------------------ *)

(** Unify pattern argument expressions against actual values.  A bare
    variable (declared in [vars], not already bound) binds; any other
    expression is evaluated and compared for equality. *)
let match_args (c : Community.t) ~env ~self ~(vars : string list)
    (patterns : Ast.expr list) (actuals : Value.t list) : Env.t option =
  if List.length patterns <> List.length actuals then None
  else
    let step acc (p : Ast.expr) v =
      match acc with
      | None -> None
      | Some env -> (
          match p.Ast.e with
          | Ast.E_var name when List.mem name vars && not (Env.mem name env) ->
              Some (Env.bind name v env)
          | _ -> (
              match expr c ~env ~self p with
              | pv when Value.equal pv v -> Some env
              | _ -> None
              | exception Error _ -> None))
    in
    List.fold_left2 step (Some env) patterns actuals

(** Match an event pattern (as used in valuation rules, permissions,
    guards' [after(…)] atoms) against an occurred event of object [o].
    The pattern's target, if any, must resolve to [o] itself (local
    rules name events of the own object). *)
let match_local_event (c : Community.t) (o : Obj_state.t)
    ~env ~(vars : string list) (pat : Ast.event_term) (ev : Event.t) :
    Env.t option =
  if not (String.equal pat.Ast.ev_name ev.Event.name) then None
  else
    let target_ok =
      match pat.Ast.target with
      | None | Some Ast.OR_self -> Ident.equal ev.Event.target o.Obj_state.id
      | Some r -> (
          match resolve_ref c ~env ~self:(Some o) r with
          | id -> Ident.equal ev.Event.target id
          | exception Error _ -> false)
    in
    if not target_ok then None
    else match_args c ~env ~self:(Some o) ~vars pat.Ast.ev_args ev.Event.args

(* ------------------------------------------------------------------ *)
(* Compiled evaluators                                                 *)
(* ------------------------------------------------------------------ *)

(* Expressions and formulas can be compiled once per template into
   closures with all static decisions taken up front: attribute names
   resolved to slots, enum constants and class names recognised,
   literals folded.  Compiled closures capture only schema facts, never
   a community — the community is a runtime argument, so clones (which
   share templates) evaluate against their own state.  Staleness of the
   captured schema facts is handled above this layer: {!Dispatch}
   rebuilds all compiled state when [Community.schema_generation]
   moves. *)

type compiled_expr = Community.t -> Env.t -> Obj_state.t option -> Value.t
type compiled_formula = Community.t -> Env.t -> Obj_state.t option -> bool

(** Compiled evaluations that had to fall back to the interpreter
    (dynamic name resolution, queries, quantifiers). *)
let fallback_count = ref 0

let fallback_expr (x : Ast.expr) : compiled_expr =
 fun c env self ->
  incr fallback_count;
  expr c ~env ~self x

(** [env] shadows every static resolution of a bare name. *)
let with_env name (k : compiled_expr) : compiled_expr =
 fun c env self ->
  match Env.find name env with Some v -> v | None -> k c env self

let rec compile_expr (c0 : Community.t) ~(tpl : Template.t option)
    (x : Ast.expr) : compiled_expr =
  match x.Ast.e with
  | Ast.E_lit l ->
      let v = lit l in
      fun _ _ _ -> v
  | Ast.E_self -> (
      fun _ _ self ->
        match self with
        | Some o -> Ident.to_value o.Obj_state.id
        | None -> value_error "self used outside an object context")
  | Ast.E_var name -> compile_var c0 ~tpl name
  | Ast.E_attr (Ast.OR_self, "surrogate", []) -> (
      fun _ _ self ->
        match self with
        | Some o -> Ident.to_value o.Obj_state.id
        | None -> value_error "self used outside an object context")
  | Ast.E_attr (Ast.OR_self, name, []) -> (
      match tpl with
      | Some t -> (
          match Template.find_attr t name with
          | Some def when def.Template.at_derived = None -> (
              match Template.slot_of t name with
              | Some slot -> (
                  fun c env self ->
                    match self with
                    | Some o when o.Obj_state.template == t ->
                        Obj_state.attr_slot o slot
                    | _ ->
                        incr fallback_count;
                        expr c ~env ~self x)
              | None -> fallback_expr x)
          | _ -> fallback_expr x)
      | None -> fallback_expr x)
  | Ast.E_attr _ -> fallback_expr x
  | Ast.E_field (base, fname) ->
      let cb = compile_expr c0 ~tpl base in
      fun c env self -> (
        match cb c env self with
        | Value.Tuple _ as v -> Value.field fname v
        | Value.Id (cls, key) ->
            let o = object_for c ~self (Ident.make cls key) in
            read_attr c o fname []
        | Value.Undefined -> Value.Undefined
        | v -> value_error "cannot select field %s of %a" fname Value.pp v)
  | Ast.E_apply (f, args) ->
      let cargs = List.map (compile_expr c0 ~tpl) args in
      if Community.is_class c0 f then (
        match cargs with
        | [ ckey ] ->
            fun c env self ->
              Ident.to_value (key_of_value f (ckey c env self))
        | _ ->
            fun c env self ->
              apply_builtin f (List.map (fun a -> a c env self) cargs))
      else fun c env self ->
        apply_builtin f (List.map (fun a -> a c env self) cargs)
  | Ast.E_binop (op, a, b) -> (
      let ca = compile_expr c0 ~tpl a in
      let cb = compile_expr c0 ~tpl b in
      match op with
      | "and" -> (
          fun c env self ->
            match ca c env self with
            | Value.Bool false -> Value.Bool false
            | va -> apply2 op va (cb c env self))
      | "or" -> (
          fun c env self ->
            match ca c env self with
            | Value.Bool true -> Value.Bool true
            | va -> apply2 op va (cb c env self))
      | "implies" -> (
          fun c env self ->
            match ca c env self with
            | Value.Bool false -> Value.Bool true
            | va -> apply2 op va (cb c env self))
      | _ -> fun c env self -> apply2 op (ca c env self) (cb c env self))
  | Ast.E_unop (op, a) ->
      let ca = compile_expr c0 ~tpl a in
      fun c env self -> apply_builtin op [ ca c env self ]
  | Ast.E_tuple fields ->
      let cfields =
        List.mapi
          (fun i (name, fx) ->
            ( (match name with
              | Some n -> n
              | None -> Printf.sprintf "_%d" (i + 1)),
              compile_expr c0 ~tpl fx ))
          fields
      in
      fun c env self ->
        Value.Tuple (List.map (fun (n, cf) -> (n, cf c env self)) cfields)
  | Ast.E_setlit xs ->
      let cxs = List.map (compile_expr c0 ~tpl) xs in
      fun c env self -> Value.set (List.map (fun cx -> cx c env self) cxs)
  | Ast.E_listlit xs ->
      let cxs = List.map (compile_expr c0 ~tpl) xs in
      fun c env self -> Value.List (List.map (fun cx -> cx c env self) cxs)
  | Ast.E_if (cond, t, f) -> (
      let cc = compile_expr c0 ~tpl cond in
      let ct = compile_expr c0 ~tpl t in
      let cf = compile_expr c0 ~tpl f in
      fun c env self ->
        match cc c env self with
        | Value.Bool true -> ct c env self
        | Value.Bool false -> cf c env self
        | Value.Undefined -> Value.Undefined
        | v -> value_error "if condition is not boolean: %a" Value.pp v)
  | Ast.E_query _ -> fallback_expr x

and apply_builtin f args =
  match Builtin.apply f args with
  | Ok v -> v
  | Error m -> value_error "%s" m

(** A bare name, with the scoping decision (attribute slot, enum
    constant, single object, class extension) taken at compile time.
    The runtime environment still shadows everything, and a [self] of an
    unexpected template falls back to dynamic resolution. *)
and compile_var (c0 : Community.t) ~(tpl : Template.t option) name :
    compiled_expr =
  let dynamic : compiled_expr =
   fun c env self ->
    incr fallback_count;
    var c ~env ~self name
  in
  let own_attr =
    match tpl with
    | Some t -> (
        match Template.find_attr t name with
        | Some def when def.Template.at_derived = None -> (
            match Template.slot_of t name with
            | Some slot ->
                Some
                  (with_env name (fun c env self ->
                       match self with
                       | Some o when o.Obj_state.template == t ->
                           Obj_state.attr_slot o slot
                       | _ -> dynamic c env self))
            | None -> None)
        | Some _ -> Some dynamic (* derived: evaluate its rule *)
        | None ->
            (* the name may be an inherited attribute: instance-dependent *)
            if t.Template.t_view_of <> None || t.Template.t_spec_of <> None
            then Some dynamic
            else None)
    | None -> None
  in
  match own_attr with
  | Some ce -> ce
  | None ->
      (* Not an attribute of the compiled template (which, when known,
         has no base aspect here): the scoping decision is a schema
         fact.  It covers [self = None] and a [self] of the compiled
         template; any other [self] resolves dynamically. *)
      let static_ok (self : Obj_state.t option) =
        match (self, tpl) with
        | None, _ -> true
        | Some o, Some t -> o.Obj_state.template == t
        | Some _, None -> false
      in
      let wrap (k : compiled_expr) =
        with_env name (fun c env self ->
            if static_ok self then k c env self else dynamic c env self)
      in
      (match Community.enum_of_const c0 name with
      | Some enum ->
          let v = Value.Enum (enum, name) in
          wrap (fun _ _ _ -> v)
      | None -> (
          match Community.find_template c0 name with
          | Some t when t.Template.t_kind = `Single ->
              let v = Ident.to_value (Ident.singleton name) in
              wrap (fun _ _ _ -> v)
          | Some _ ->
              wrap (fun c _ _ ->
                  Value.set
                    (List.map Ident.to_value
                       (Ident.Set.elements (Community.extension c name))))
          | None -> wrap (fun _ _ _ -> value_error "unbound name %s" name)))

let rec compile_formula (c0 : Community.t) ~(tpl : Template.t option)
    (f : Ast.formula) : compiled_formula =
  match f.Ast.f with
  | Ast.F_expr e -> (
      let ce = compile_expr c0 ~tpl e in
      fun c env self ->
        match ce c env self with
        | Value.Bool b -> b
        | Value.Undefined -> false
        | v -> value_error "formula is not boolean: %a" Value.pp v)
  | Ast.F_not g ->
      let cg = compile_formula c0 ~tpl g in
      fun c env self -> not (cg c env self)
  | Ast.F_and (a, b) ->
      let ca = compile_formula c0 ~tpl a in
      let cb = compile_formula c0 ~tpl b in
      fun c env self -> ca c env self && cb c env self
  | Ast.F_or (a, b) ->
      let ca = compile_formula c0 ~tpl a in
      let cb = compile_formula c0 ~tpl b in
      fun c env self -> ca c env self || cb c env self
  | Ast.F_implies (a, b) ->
      let ca = compile_formula c0 ~tpl a in
      let cb = compile_formula c0 ~tpl b in
      fun c env self -> (not (ca c env self)) || cb c env self
  | Ast.F_forall _ | Ast.F_exists _ | Ast.F_sometime _ | Ast.F_always _
  | Ast.F_since _ | Ast.F_previous _ | Ast.F_after _ ->
      (* quantifiers need dynamic domains; temporal operators raise the
         same [Unsupported] as the interpreter *)
      fun c env self ->
        incr fallback_count;
        formula_state c ~env ~self f

(* --- compiled event patterns --------------------------------------- *)

(** One pattern argument: a binder (bare declared variable) or a
    compiled expression to compare against the actual. *)
type compiled_arg =
  | CA_bind of string
  | CA_expr of compiled_expr

type compiled_pattern = {
  cp_name : string;
  cp_target : Ast.obj_ref option;
      (** [None] covers both "no target" and [self]: match the own
          object; [Some r] resolves dynamically *)
  cp_args : compiled_arg list;
  cp_nargs : int;
}

let compile_args (c0 : Community.t) ~(tpl : Template.t option)
    ~(vars : string list) (patterns : Ast.expr list) : compiled_arg list =
  List.map
    (fun (p : Ast.expr) ->
      match p.Ast.e with
      | Ast.E_var name when List.mem name vars -> CA_bind name
      | _ -> CA_expr (compile_expr c0 ~tpl p))
    patterns

let compile_pattern (c0 : Community.t) ~(tpl : Template.t option)
    ~(vars : string list) (pat : Ast.event_term) : compiled_pattern =
  {
    cp_name = pat.Ast.ev_name;
    cp_target =
      (match pat.Ast.target with
      | None | Some Ast.OR_self -> None
      | Some r -> Some r);
    cp_args = compile_args c0 ~tpl ~vars pat.Ast.ev_args;
    cp_nargs = List.length pat.Ast.ev_args;
  }

(** Compiled counterpart of {!match_args}: binders bind on first
    occurrence and compare afterwards; expression arguments compare by
    value, with evaluation errors failing the match. *)
let match_compiled_args (c : Community.t) ~env ~self
    (cargs : compiled_arg list) (nargs : int) (actuals : Value.t list) :
    Env.t option =
  if List.length actuals <> nargs then None
  else
    let step acc ca v =
      match acc with
      | None -> None
      | Some env -> (
          match ca with
          | CA_bind name -> (
              match Env.find name env with
              | None -> Some (Env.bind name v env)
              | Some bv -> if Value.equal bv v then Some env else None)
          | CA_expr ce -> (
              match ce c env self with
              | pv when Value.equal pv v -> Some env
              | _ -> None
              | exception Error _ -> None))
    in
    List.fold_left2 step (Some env) cargs actuals

(** Compiled counterpart of {!match_local_event}. *)
let match_compiled_event (c : Community.t) (o : Obj_state.t) ~env
    (cp : compiled_pattern) (ev : Event.t) : Env.t option =
  if not (String.equal cp.cp_name ev.Event.name) then None
  else
    let target_ok =
      match cp.cp_target with
      | None -> Ident.equal ev.Event.target o.Obj_state.id
      | Some r -> (
          match resolve_ref c ~env ~self:(Some o) r with
          | id -> Ident.equal ev.Event.target id
          | exception Error _ -> false)
    in
    if not target_ok then None
    else
      match_compiled_args c ~env ~self:(Some o) cp.cp_args cp.cp_nargs
        ev.Event.args
