(** Built-in operations of the TROLL data universe.

    The paper's valuation and derivation rules use a fixed family of
    operations on the parameterized data types: [insert], [remove] /
    [delete] and [in] on sets (in both argument orders, as the paper
    itself does — compare [insert(P, employees)] in [DEPT] with
    [insert(Emps, tuple(n,b,s))] in [emp_rel]), aggregates such as
    [count] and [sum], list and string operations, and arithmetic.

    Each operation has a typing rule ({!type_of_application}) used by the
    static checker and a strict evaluation rule ({!apply}); [Undefined]
    arguments propagate to an [Undefined] result rather than an error, so
    that observations over not-yet-initialised attributes stay
    unobservable instead of crashing the animator. *)

type error = string

let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Typing                                                              *)
(* ------------------------------------------------------------------ *)

let is_numeric = function Vtype.Int | Vtype.Nat | Vtype.Money -> true | _ -> false

let is_comparable = function
  | Vtype.Int | Vtype.Nat | Vtype.String | Vtype.Date | Vtype.Money -> true
  | _ -> false

let numeric_join a b =
  match (a, b) with
  | Vtype.Money, _ | _, Vtype.Money -> Vtype.Money
  | Vtype.Int, _ | _, Vtype.Int -> Vtype.Int
  | _ -> Vtype.Nat

(* Recognise (collection, element) in either argument order; returns
   (element_type_of_collection, collection_type). *)
let set_elem_pair t1 t2 =
  match (t1, t2) with
  | Vtype.Set e, other when Vtype.subtype other e || Vtype.equal e Vtype.Any ->
      Some (e, t1, other)
  | other, Vtype.Set e when Vtype.subtype other e || Vtype.equal e Vtype.Any ->
      Some (e, t2, other)
  | _ -> None

(** Typing of an operator application.  [name] is the surface operator
    name; binary operators are routed through here as well. *)
let type_of_application name (args : Vtype.t list) : (Vtype.t, error) result =
  let arity n k =
    if List.length args = n then k ()
    else err "operator %s expects %d argument(s), got %d" name n
        (List.length args)
  in
  match (name, args) with
  (* arithmetic *)
  | ("+" | "-" | "*"), [ a; b ] when is_numeric a && is_numeric b ->
      (* [money * money] is scaling: the paper writes [Salary * 13.5] with
         a decimal literal factor, which lexes as money. *)
      Ok (numeric_join a b)
  | ("+" | "-"), [ Vtype.Date; t ] when Vtype.subtype t Vtype.Int ->
      Ok Vtype.Date
  | "-", [ Vtype.Date; Vtype.Date ] -> Ok Vtype.Int
  | "+", [ Vtype.String; Vtype.String ] -> Ok Vtype.String
  | ("div" | "mod"), [ a; b ]
    when Vtype.subtype a Vtype.Int && Vtype.subtype b Vtype.Int ->
      Ok Vtype.Int
  | "-", [ a ] when is_numeric a -> Ok a
  | "abs", [ a ] when is_numeric a -> Ok a
  | ("min" | "max"), [ a; b ] when is_comparable a && Vtype.equal a b -> Ok a
  (* comparison *)
  | ("=" | "<>"), [ _; _ ] -> Ok Vtype.Bool
  | ("<" | "<=" | ">" | ">="), [ a; b ]
    when is_comparable a && is_comparable b
         && (Vtype.subtype a b || Vtype.subtype b a) ->
      Ok Vtype.Bool
  (* boolean *)
  | ("and" | "or" | "implies" | "xor"), [ Vtype.Bool; Vtype.Bool ] ->
      Ok Vtype.Bool
  | "not", [ Vtype.Bool ] -> Ok Vtype.Bool
  (* sets: either argument order accepted *)
  | ("insert" | "remove" | "delete"), [ t1; t2 ] -> (
      match set_elem_pair t1 t2 with
      | Some (e, _, other) -> (
          match Vtype.join e other with
          | Some e' -> Ok (Vtype.Set e')
          | None -> err "%s: element type %s does not fit set(%s)" name
                      (Vtype.to_string other) (Vtype.to_string e))
      | None -> err "%s expects a set and an element" name)
  | "in", [ t1; t2 ] -> (
      match set_elem_pair t1 t2 with
      | Some _ -> Ok Vtype.Bool
      | None -> (
          match (t1, t2) with
          | _, Vtype.List e when Vtype.subtype t1 e -> Ok Vtype.Bool
          | _ -> err "in expects an element and a collection"))
  | ("union" | "intersect" | "minus"), [ Vtype.Set a; Vtype.Set b ] -> (
      match Vtype.join a b with
      | Some e -> Ok (Vtype.Set e)
      | None -> err "%s: incompatible element types" name)
  | ("card" | "count"), [ (Vtype.Set _ | Vtype.List _ | Vtype.Map _) ] ->
      Ok Vtype.Nat
  | "isempty", [ (Vtype.Set _ | Vtype.List _) ] -> Ok Vtype.Bool
  | ("sum" | "minimum" | "maximum"),
    [ (Vtype.Set e | Vtype.List e) ] when is_numeric e || is_comparable e ->
      if String.equal name "sum" && not (is_numeric e) then
        err "sum requires numeric elements"
      else Ok e
  | "avg", [ (Vtype.Set e | Vtype.List e) ] when is_numeric e -> Ok e
  | "the", [ (Vtype.Set e | Vtype.List e) ] ->
      (* extract the unique element of a singleton collection *)
      Ok e
  (* lists *)
  | "append", [ Vtype.List a; b ] when Vtype.subtype b a || Vtype.equal a Vtype.Any
    -> (
      match Vtype.join a b with
      | Some e -> Ok (Vtype.List e)
      | None -> err "append: incompatible element type")
  | "concat", [ Vtype.List a; Vtype.List b ] -> (
      match Vtype.join a b with
      | Some e -> Ok (Vtype.List e)
      | None -> err "concat: incompatible element types")
  | "head", [ Vtype.List e ] -> Ok e
  | "tail", [ Vtype.List e ] -> Ok (Vtype.List e)
  | "length", [ Vtype.List _ ] -> Ok Vtype.Nat
  | "nth", [ Vtype.List e; t ] when Vtype.subtype t Vtype.Int -> Ok e
  | "elems", [ Vtype.List e ] -> Ok (Vtype.Set e)
  (* maps *)
  | "get", [ Vtype.Map (k, v); t ] when Vtype.subtype t k -> Ok v
  | "put", [ Vtype.Map (k, v); tk; tv ]
    when Vtype.subtype tk k && Vtype.subtype tv v ->
      Ok (Vtype.Map (k, v))
  | "dom", [ Vtype.Map (k, _) ] -> Ok (Vtype.Set k)
  (* strings *)
  | "++", [ Vtype.String; Vtype.String ] -> Ok Vtype.String
  | "strlen", [ Vtype.String ] -> Ok Vtype.Nat
  (* dates *)
  | "add_days", [ Vtype.Date; t ] when Vtype.subtype t Vtype.Int ->
      Ok Vtype.Date
  | "diff_days", [ Vtype.Date; Vtype.Date ] -> Ok Vtype.Int
  | "year", [ Vtype.Date ] -> Ok Vtype.Int
  (* definedness *)
  | "defined", _ -> arity 1 (fun () -> Ok Vtype.Bool)
  | _ ->
      err "no typing for operator %s applied to (%s)" name
        (String.concat ", " (List.map Vtype.to_string args))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Any strict op: Undefined in, Undefined out. *)
let strict args k =
  if List.exists Value.is_undefined args then Ok Value.Undefined else k ()

let bool b = Value.Bool b

let numeric2 name a b ~int ~money =
  match (a, b) with
  | Value.Int x, Value.Int y -> Ok (Value.Int (int x y))
  | Value.Money x, Value.Money y -> Ok (Value.Money (money x y))
  | Value.Date d, Value.Int n when String.equal name "+" ->
      Ok (Value.Date (Date_adt.add_days d n))
  | Value.Date d, Value.Int n when String.equal name "-" ->
      Ok (Value.Date (Date_adt.add_days d (-n)))
  | Value.Date d1, Value.Date d2 when String.equal name "-" ->
      Ok (Value.Int (Date_adt.diff_days d1 d2))
  | _ -> err "operator %s: incompatible operands %s, %s" name
           (Value.to_string a) (Value.to_string b)

let set_elem_args v1 v2 =
  (* Return (set contents, element) regardless of order; prefer treating
     the second argument as the collection when ambiguous, matching the
     dominant [op(elem, set)] style of the paper's valuation rules. *)
  match (v1, v2) with
  | e, Value.Set s -> Some (s, e)
  | Value.Set s, e -> Some (s, e)
  | _ -> None

(* Every [Value.Set] is canonical (built by [Value.set], an
   order-preserving filter, or empty), so inserting, removing and
   membership are one ordered walk that stops at the first element not
   below the operand, instead of a re-sort or a scan of the whole set.
   Each result equals its [Value.set] definition, and each is a fresh
   [Value.Set] even when the elements are unchanged, as a re-sort's
   would be. *)
let set_insert e s =
  let rec go = function
    | [] -> [ e ]
    | x :: rest as l ->
        let c = Value.compare e x in
        if c < 0 then e :: l
        else if c = 0 then raise_notrace Exit
        else x :: go rest
  in
  Value.Set (try go s with Exit -> s)

let set_remove e s =
  let rec go = function
    | [] -> raise_notrace Exit
    | x :: rest ->
        let c = Value.compare e x in
        if c < 0 then raise_notrace Exit
        else if c = 0 then rest
        else x :: go rest
  in
  Value.Set (try go s with Exit -> s)

let rec set_mem e = function
  | [] -> false
  | x :: rest ->
      let c = Value.compare e x in
      if c > 0 then set_mem e rest else c = 0

let rec aggregate name vs =
  match (name, vs) with
  | _, [] -> Ok Value.Undefined
  | "sum", Value.Int _ :: _ ->
      let rec go acc = function
        | [] -> Ok (Value.Int acc)
        | Value.Int i :: r -> go (acc + i) r
        | v :: _ -> err "sum: non-integer element %s" (Value.to_string v)
      in
      go 0 vs
  | "sum", Value.Money _ :: _ ->
      let rec go acc = function
        | [] -> Ok (Value.Money acc)
        | Value.Money m :: r -> go (Money.add acc m) r
        | v :: _ -> err "sum: non-money element %s" (Value.to_string v)
      in
      go Money.zero vs
  | "avg", _ -> (
      match aggregate "sum" vs with
      | Ok (Value.Int s) -> Ok (Value.Int (s / List.length vs))
      | Ok (Value.Money s) ->
          Ok (Value.Money (Money.scale_ratio s ~num:1 ~den:(List.length vs)))
      | Ok v -> err "avg: cannot average %s" (Value.to_string v)
      | Error e -> Error e)
  | "minimum", v :: r ->
      Ok (List.fold_left (fun acc x -> if Value.compare x acc < 0 then x else acc) v r)
  | "maximum", v :: r ->
      Ok (List.fold_left (fun acc x -> if Value.compare x acc > 0 then x else acc) v r)
  | _, _ -> err "aggregate %s: unsupported elements" name

(** Evaluate an operator application on canonical values. *)
let apply name (args : Value.t list) : (Value.t, error) result =
  match (name, args) with
  | "defined", [ v ] -> Ok (bool (not (Value.is_undefined v)))
  | ("=" | "<>"), [ a; b ] ->
      (* Equality is non-strict: undefined = undefined holds. *)
      let e = Value.equal a b in
      Ok (bool (if String.equal name "=" then e else not e))
  | "and", [ a; b ] -> (
      (* Kleene-style: false dominates undefined. *)
      match (a, b) with
      | Value.Bool false, _ | _, Value.Bool false -> Ok (bool false)
      | Value.Bool x, Value.Bool y -> Ok (bool (x && y))
      | _ -> strict args (fun () -> err "and: non-boolean operand"))
  | "or", [ a; b ] -> (
      match (a, b) with
      | Value.Bool true, _ | _, Value.Bool true -> Ok (bool true)
      | Value.Bool x, Value.Bool y -> Ok (bool (x || y))
      | _ -> strict args (fun () -> err "or: non-boolean operand"))
  | "implies", [ a; b ] -> (
      match (a, b) with
      | Value.Bool false, _ | _, Value.Bool true -> Ok (bool true)
      | Value.Bool x, Value.Bool y -> Ok (bool ((not x) || y))
      | _ -> strict args (fun () -> err "implies: non-boolean operand"))
  | _ ->
      strict args @@ fun () ->
      (match (name, args) with
      | "+", [ a; b ] -> (
          match (a, b) with
          | Value.String x, Value.String y -> Ok (Value.String (x ^ y))
          | _ -> numeric2 "+" a b ~int:( + ) ~money:Money.add)
      | "-", [ a; b ] -> numeric2 "-" a b ~int:( - ) ~money:Money.sub
      | "-", [ Value.Int x ] -> Ok (Value.Int (-x))
      | "-", [ Value.Money x ] -> Ok (Value.Money (Money.neg x))
      | "*", [ a; b ] -> (
          match (a, b) with
          | Value.Int x, Value.Int y -> Ok (Value.Int (x * y))
          | Value.Money m, Value.Int k | Value.Int k, Value.Money m ->
              Ok (Value.Money (Money.scale_ratio m ~num:k ~den:1))
          | Value.Money m, Value.Money k ->
              (* scaling by a decimal factor, e.g. [Salary * 1.1] *)
              Ok (Value.Money (Money.scale_ratio m ~num:(Money.to_cents k) ~den:100))
          | _ -> err "*: incompatible operands")
      | "div", [ Value.Int x; Value.Int y ] ->
          if y = 0 then Ok Value.Undefined else Ok (Value.Int (x / y))
      | "mod", [ Value.Int x; Value.Int y ] ->
          if y = 0 then Ok Value.Undefined else Ok (Value.Int (x mod y))
      | "abs", [ Value.Int x ] -> Ok (Value.Int (abs x))
      | "abs", [ Value.Money x ] ->
          Ok (Value.Money (if Money.compare x Money.zero < 0 then Money.neg x else x))
      | ("min" | "max"), [ a; b ] ->
          let c = Value.compare a b in
          Ok (if (c <= 0) = String.equal name "min" then a else b)
      | "<", [ a; b ] -> Ok (bool (Value.compare a b < 0))
      | "<=", [ a; b ] -> Ok (bool (Value.compare a b <= 0))
      | ">", [ a; b ] -> Ok (bool (Value.compare a b > 0))
      | ">=", [ a; b ] -> Ok (bool (Value.compare a b >= 0))
      | "not", [ Value.Bool x ] -> Ok (bool (not x))
      | "xor", [ Value.Bool x; Value.Bool y ] -> Ok (bool (x <> y))
      | "insert", [ a; b ] -> (
          match set_elem_args a b with
          | Some (s, e) -> Ok (set_insert e s)
          | None -> err "insert: no set operand")
      | ("remove" | "delete"), [ a; b ] -> (
          match set_elem_args a b with
          | Some (s, e) -> Ok (set_remove e s)
          | None -> err "%s: no set operand" name)
      | "in", [ a; b ] -> (
          match (a, b) with
          | e, Value.List l -> Ok (bool (List.exists (Value.equal e) l))
          | _ -> (
              match set_elem_args a b with
              | Some (s, e) -> Ok (bool (set_mem e s))
              | None -> err "in: no collection operand"))
      | "union", [ Value.Set a; Value.Set b ] -> Ok (Value.set (a @ b))
      | "intersect", [ Value.Set a; Value.Set b ] ->
          Ok (Value.Set (List.filter (fun x -> List.exists (Value.equal x) b) a))
      | "minus", [ Value.Set a; Value.Set b ] ->
          Ok
            (Value.Set
               (List.filter (fun x -> not (List.exists (Value.equal x) b)) a))
      | ("card" | "count"), [ Value.Set s ] -> Ok (Value.Int (List.length s))
      | ("card" | "count"), [ Value.List l ] -> Ok (Value.Int (List.length l))
      | ("card" | "count"), [ Value.Map m ] -> Ok (Value.Int (List.length m))
      | "isempty", [ Value.Set s ] -> Ok (bool (s = []))
      | "isempty", [ Value.List l ] -> Ok (bool (l = []))
      | ("sum" | "avg" | "minimum" | "maximum"), [ (Value.Set vs | Value.List vs) ]
        ->
          aggregate name vs
      | "the", [ (Value.Set [ v ] | Value.List [ v ]) ] -> Ok v
      | "the", [ (Value.Set _ | Value.List _) ] -> Ok Value.Undefined
      | "append", [ Value.List l; e ] -> Ok (Value.List (l @ [ e ]))
      | "concat", [ Value.List a; Value.List b ] -> Ok (Value.List (a @ b))
      | "head", [ Value.List (v :: _) ] -> Ok v
      | "head", [ Value.List [] ] -> Ok Value.Undefined
      | "tail", [ Value.List (_ :: r) ] -> Ok (Value.List r)
      | "tail", [ Value.List [] ] -> Ok Value.Undefined
      | "length", [ Value.List l ] -> Ok (Value.Int (List.length l))
      | "nth", [ Value.List l; Value.Int i ] -> (
          match List.nth_opt l i with
          | Some v -> Ok v
          | None -> Ok Value.Undefined)
      | "elems", [ Value.List l ] -> Ok (Value.set l)
      | "get", [ Value.Map m; k ] -> (
          match List.assoc_opt k m with
          | Some v -> Ok v
          | None -> Ok Value.Undefined)
      | "put", [ Value.Map m; k; v ] ->
          Ok (Value.map (m @ [ (k, v) ]))
      | "dom", [ Value.Map m ] -> Ok (Value.set (List.map fst m))
      | "++", [ Value.String a; Value.String b ] -> Ok (Value.String (a ^ b))
      | "strlen", [ Value.String s ] -> Ok (Value.Int (String.length s))
      | "add_days", [ Value.Date d; Value.Int n ] ->
          Ok (Value.Date (Date_adt.add_days d n))
      | "diff_days", [ Value.Date a; Value.Date b ] ->
          Ok (Value.Int (Date_adt.diff_days a b))
      | "year", [ Value.Date d ] -> Ok (Value.Int (Date_adt.year d))
      | _ ->
          err "no evaluation for operator %s applied to (%s)" name
            (String.concat ", " (List.map Value.to_string args)))
