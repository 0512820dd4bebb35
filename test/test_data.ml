(** Unit and property tests for the data layer: dates, money, the type
    universe, canonical values and the built-in operator table. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let value = Alcotest.testable Value.pp Value.equal
let vtype =
  Alcotest.testable Vtype.pp Vtype.equal

let ok_value = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected builtin error: %s" m

(* ------------------------------------------------------------------ *)
(* Dates                                                               *)
(* ------------------------------------------------------------------ *)

let test_date_epoch () =
  check tint "epoch is 1970-01-01" 0
    (Date_adt.of_ymd ~year:1970 ~month:1 ~day:1);
  check tstr "epoch prints" "1970-01-01" (Date_adt.to_string 0)

let test_date_known_values () =
  (* reference values computed independently *)
  check tint "1991-03-21" 7749 (Date_adt.of_ymd ~year:1991 ~month:3 ~day:21);
  check tint "2000-02-29 (leap)" 11016
    (Date_adt.of_ymd ~year:2000 ~month:2 ~day:29);
  check tint "1969-12-31 is -1" (-1)
    (Date_adt.of_ymd ~year:1969 ~month:12 ~day:31)

let test_date_roundtrip_ymd () =
  List.iter
    (fun (y, m, d) ->
      let t = Date_adt.of_ymd ~year:y ~month:m ~day:d in
      check (Alcotest.triple tint tint tint)
        (Printf.sprintf "%04d-%02d-%02d" y m d)
        (y, m, d) (Date_adt.to_ymd t))
    [ (1970, 1, 1); (1991, 12, 31); (1600, 2, 29); (2024, 2, 29);
      (1900, 2, 28); (1, 1, 1); (9999, 12, 31) ]

let test_date_leap_years () =
  check tbool "2000 leap" true (Date_adt.is_leap_year 2000);
  check tbool "1900 not leap" false (Date_adt.is_leap_year 1900);
  check tbool "1996 leap" true (Date_adt.is_leap_year 1996);
  check tbool "1991 not leap" false (Date_adt.is_leap_year 1991)

let test_date_days_in_month () =
  check tint "feb leap" 29 (Date_adt.days_in_month ~year:2000 ~month:2);
  check tint "feb non-leap" 28 (Date_adt.days_in_month ~year:1900 ~month:2);
  check tint "april" 30 (Date_adt.days_in_month ~year:1991 ~month:4);
  check tint "december" 31 (Date_adt.days_in_month ~year:1991 ~month:12)

let test_date_arithmetic () =
  let d = Date_adt.of_ymd ~year:1991 ~month:3 ~day:21 in
  check tstr "add 10 days" "1991-03-31"
    (Date_adt.to_string (Date_adt.add_days d 10));
  check tstr "add 11 days crosses month" "1991-04-01"
    (Date_adt.to_string (Date_adt.add_days d 11));
  check tint "diff" 11 (Date_adt.diff_days (Date_adt.add_days d 11) d)

let test_date_of_string () =
  check (Alcotest.option tint) "parse" (Some 7749)
    (Date_adt.of_string "1991-03-21");
  check (Alcotest.option tint) "invalid day" None
    (Date_adt.of_string "1991-02-30");
  check (Alcotest.option tint) "invalid month" None
    (Date_adt.of_string "1991-13-01");
  check (Alcotest.option tint) "garbage" None (Date_adt.of_string "hello")

let prop_date_roundtrip =
  QCheck.Test.make ~name:"date: to_ymd/of_ymd round-trip" ~count:500
    QCheck.(int_range (-400000) 400000)
    (fun t ->
      let y, m, d = Date_adt.to_ymd t in
      Date_adt.of_ymd ~year:y ~month:m ~day:d = t
      && Date_adt.is_valid_ymd ~year:y ~month:m ~day:d)

let prop_date_string_roundtrip =
  QCheck.Test.make ~name:"date: to_string/of_string round-trip" ~count:300
    QCheck.(int_range 0 200000)
    (fun t -> Date_adt.of_string (Date_adt.to_string t) = Some t)

let prop_date_add_monotone =
  QCheck.Test.make ~name:"date: add_days is additive" ~count:200
    QCheck.(triple (int_range 0 100000) (int_range (-500) 500) (int_range (-500) 500))
    (fun (t, a, b) ->
      Date_adt.add_days (Date_adt.add_days t a) b = Date_adt.add_days t (a + b))

(* ------------------------------------------------------------------ *)
(* Money                                                               *)
(* ------------------------------------------------------------------ *)

let test_money_print () =
  check tstr "positive" "12.50" (Money.to_string (Money.of_cents 1250));
  check tstr "zero" "0.00" (Money.to_string Money.zero);
  check tstr "negative" "-3.07" (Money.to_string (Money.of_cents (-307)));
  check tstr "units" "5.00" (Money.to_string (Money.of_units 5))

let test_money_parse () =
  check (Alcotest.option tint) "units only" (Some 500) (Money.of_string "5");
  check (Alcotest.option tint) "two decimals" (Some 1250)
    (Money.of_string "12.50");
  check (Alcotest.option tint) "one decimal" (Some 1250)
    (Money.of_string "12.5");
  check (Alcotest.option tint) "negative" (Some (-307))
    (Money.of_string "-3.07");
  check (Alcotest.option tint) "garbage" None (Money.of_string "12.345")

let test_money_scale () =
  (* the paper's factors: Salary * 13.5 and Salary * 1.1 *)
  check tint "6000 * 13.5" (Money.of_units 81000)
    (Money.scale_decimal (Money.of_units 6000) ~mantissa:135 ~decimals:1);
  check tint "6000 * 1.1" (Money.of_units 6600)
    (Money.scale_decimal (Money.of_units 6000) ~mantissa:11 ~decimals:1);
  (* rounding half away from zero *)
  check tint "0.01 * 0.5 rounds to 0.01" 1
    (Money.scale_ratio (Money.of_cents 1) ~num:1 ~den:2);
  check tint "-0.01 * 0.5 rounds to -0.01" (-1)
    (Money.scale_ratio (Money.of_cents (-1)) ~num:1 ~den:2);
  check tint "0.01 * 0.4 rounds to 0" 0
    (Money.scale_ratio (Money.of_cents 1) ~num:2 ~den:5)

let test_money_arith () =
  check tint "add" 350 (Money.add (Money.of_cents 100) (Money.of_cents 250));
  check tint "sub" (-150) (Money.sub (Money.of_cents 100) (Money.of_cents 250));
  check tint "neg" (-100) (Money.neg (Money.of_cents 100))

let prop_money_string_roundtrip =
  QCheck.Test.make ~name:"money: print/parse round-trip" ~count:500
    QCheck.(int_range (-10_000_000) 10_000_000)
    (fun c -> Money.of_string (Money.to_string c) = Some c)

let prop_money_scale_by_100_cents =
  QCheck.Test.make ~name:"money: scaling by 1.00 is identity" ~count:200
    QCheck.(int_range (-100000) 100000)
    (fun c -> Money.scale_ratio c ~num:100 ~den:100 = c)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let arbitrary_vtype =
  let open QCheck.Gen in
  let base =
    oneofl
      [ Vtype.Bool; Vtype.Int; Vtype.Nat; Vtype.String; Vtype.Date;
        Vtype.Money; Vtype.Enum ("Genre", [ "a"; "b" ]); Vtype.Id "PERSON" ]
  in
  let rec gen n =
    if n = 0 then base
    else
      frequency
        [ (3, base);
          (1, map (fun t -> Vtype.Set t) (gen (n - 1)));
          (1, map (fun t -> Vtype.List t) (gen (n - 1)));
          (1, map2 (fun k v -> Vtype.Map (k, v)) (gen (n - 1)) (gen (n - 1)));
          (1,
           map2
             (fun a b -> Vtype.Tuple [ ("x", a); ("y", b) ])
             (gen (n - 1)) (gen (n - 1))) ]
  in
  QCheck.make ~print:Vtype.to_string (gen 3)

let test_vtype_subtype_basics () =
  check tbool "nat <= int" true (Vtype.subtype Vtype.Nat Vtype.Int);
  check tbool "int not <= nat" false (Vtype.subtype Vtype.Int Vtype.Nat);
  check tbool "set covariant" true
    (Vtype.subtype (Vtype.Set Vtype.Nat) (Vtype.Set Vtype.Int));
  check tbool "any absorbs" true (Vtype.subtype (Vtype.Set Vtype.Int) Vtype.Any);
  check tbool "empty-collection type fits" true
    (Vtype.subtype (Vtype.Set Vtype.Any) (Vtype.Set (Vtype.Id "P")))

let test_vtype_join () =
  check (Alcotest.option vtype) "nat ∨ int" (Some Vtype.Int)
    (Vtype.join Vtype.Nat Vtype.Int);
  check (Alcotest.option vtype) "int ∨ string" None
    (Vtype.join Vtype.Int Vtype.String);
  check (Alcotest.option vtype) "set(any) ∨ set(int)"
    (Some (Vtype.Set Vtype.Int))
    (Vtype.join (Vtype.Set Vtype.Any) (Vtype.Set Vtype.Int))

let test_vtype_finite () =
  check tbool "bool finite" true (Vtype.is_finite Vtype.Bool);
  check tbool "int infinite" false (Vtype.is_finite Vtype.Int);
  check (Alcotest.option (Alcotest.list tstr)) "enum values"
    (Some [ "a"; "b" ])
    (Vtype.enum_values (Vtype.Enum ("G", [ "a"; "b" ])))

let prop_subtype_reflexive =
  QCheck.Test.make ~name:"vtype: subtype reflexive" ~count:200 arbitrary_vtype
    (fun t -> Vtype.subtype t t)

let prop_join_commutative =
  QCheck.Test.make ~name:"vtype: join commutative" ~count:200
    (QCheck.pair arbitrary_vtype arbitrary_vtype)
    (fun (a, b) ->
      match (Vtype.join a b, Vtype.join b a) with
      | Some x, Some y -> Vtype.equal x y
      | None, None -> true
      | _ -> false)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"vtype: join is an upper bound" ~count:200
    (QCheck.pair arbitrary_vtype arbitrary_vtype)
    (fun (a, b) ->
      match Vtype.join a b with
      | Some j -> Vtype.subtype a j && Vtype.subtype b j
      | None -> true)

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let arbitrary_value =
  let open QCheck.Gen in
  let base =
    oneof
      [ map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun s -> Value.String s) (string_size ~gen:printable (int_range 0 6));
        map (fun d -> Value.Date d) (int_range 0 40000);
        map (fun c -> Value.Money c) (int_range (-10000) 10000);
        return (Value.Enum ("G", "a"));
        return Value.Undefined ]
  in
  let rec gen n =
    if n = 0 then base
    else
      frequency
        [ (4, base);
          (1, map Value.set (list_size (int_range 0 4) (gen (n - 1))));
          (1, map (fun l -> Value.List l) (list_size (int_range 0 4) (gen (n - 1))));
          (1,
           map2
             (fun a b -> Value.Tuple [ ("x", a); ("y", b) ])
             (gen (n - 1)) (gen (n - 1))) ]
  in
  QCheck.make ~print:Value.to_string (gen 2)

let test_value_set_canonical () =
  check value "dedup + sort"
    (Value.Set [ Value.Int 1; Value.Int 2; Value.Int 3 ])
    (Value.set [ Value.Int 3; Value.Int 1; Value.Int 2; Value.Int 1 ]);
  check value "empty" (Value.Set []) (Value.set [])

let test_value_map_canonical () =
  check value "later binding wins"
    (Value.map [ (Value.Int 1, Value.String "b") ])
    (Value.map
       [ (Value.Int 1, Value.String "a"); (Value.Int 1, Value.String "b") ])

let test_value_field () =
  let t = Value.Tuple [ ("a", Value.Int 1); ("b", Value.Int 2) ] in
  check value "present" (Value.Int 2) (Value.field "b" t);
  check value "absent" Value.Undefined (Value.field "c" t);
  check value "non-tuple" Value.Undefined (Value.field "a" (Value.Int 1))

let test_value_type_of () =
  check vtype "int" Vtype.Int (Value.type_of (Value.Int 3));
  check vtype "homogeneous set" (Vtype.Set Vtype.Int)
    (Value.type_of (Value.set [ Value.Int 1; Value.Int 2 ]));
  check vtype "empty set" (Vtype.Set Vtype.Any) (Value.type_of (Value.Set []))

let prop_value_compare_antisym =
  QCheck.Test.make ~name:"value: compare antisymmetric" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value)
    (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_value_compare_transitive =
  QCheck.Test.make ~name:"value: compare transitive (sampled)" ~count:300
    (QCheck.triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
      if Value.compare a b <= 0 && Value.compare b c <= 0 then
        Value.compare a c <= 0
      else true)

let prop_set_constructor_idempotent =
  QCheck.Test.make ~name:"value: set canonicalisation idempotent" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) arbitrary_value)
    (fun xs ->
      match Value.set xs with
      | Value.Set s -> Value.equal (Value.set s) (Value.Set s)
      | _ -> false)

(* [insert] walks the canonical operand instead of re-sorting it; it
   must agree with the canonical constructor on every set and element,
   members and newcomers alike *)
let prop_insert_is_canonical =
  QCheck.Test.make ~name:"builtin: insert equals Value.set (e :: s)"
    ~count:500
    (QCheck.pair arbitrary_value
       (QCheck.list_of_size (QCheck.Gen.int_range 0 8) arbitrary_value))
    (fun (e, xs) ->
      let s = match Value.set xs with Value.Set s -> s | _ -> assert false in
      (* often pick a member, so the "already present" walk runs too *)
      let e = match s with x :: _ when Value.compare e x < 0 -> x | _ -> e in
      (* an undefined operand makes [insert] undefined (strictness) *)
      QCheck.assume (not (Value.is_undefined e));
      match Builtin.apply "insert" [ e; Value.Set s ] with
      | Ok v -> v = Value.set (e :: s)
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Builtin operators                                                   *)
(* ------------------------------------------------------------------ *)

let test_builtin_arith () =
  check value "int +" (Value.Int 7)
    (ok_value (Builtin.apply "+" [ Value.Int 3; Value.Int 4 ]));
  check value "money +" (Value.Money 350)
    (ok_value (Builtin.apply "+" [ Value.Money 100; Value.Money 250 ]));
  check value "string +" (Value.String "ab")
    (ok_value (Builtin.apply "+" [ Value.String "a"; Value.String "b" ]));
  check value "div by zero undefined" Value.Undefined
    (ok_value (Builtin.apply "div" [ Value.Int 1; Value.Int 0 ]));
  check value "mod" (Value.Int 2)
    (ok_value (Builtin.apply "mod" [ Value.Int 17; Value.Int 5 ]));
  check value "money scaling" (Value.Money 6600_00)
    (ok_value (Builtin.apply "*" [ Value.Money 6000_00; Value.Money 110 ]))

let test_builtin_date_arith () =
  check value "date + int" (Value.Date 10)
    (ok_value (Builtin.apply "+" [ Value.Date 3; Value.Int 7 ]));
  check value "date - date" (Value.Int 7)
    (ok_value (Builtin.apply "-" [ Value.Date 10; Value.Date 3 ]))

let test_builtin_sets_both_orders () =
  let s = Value.set [ Value.Int 1 ] in
  let expected = Value.set [ Value.Int 1; Value.Int 2 ] in
  check value "insert(elem, set)" expected
    (ok_value (Builtin.apply "insert" [ Value.Int 2; s ]));
  check value "insert(set, elem)" expected
    (ok_value (Builtin.apply "insert" [ s; Value.Int 2 ]));
  check value "remove(elem, set)" (Value.set [])
    (ok_value (Builtin.apply "remove" [ Value.Int 1; s ]));
  check value "in(elem, set)" (Value.Bool true)
    (ok_value (Builtin.apply "in" [ Value.Int 1; s ]));
  check value "in(set, elem)" (Value.Bool true)
    (ok_value (Builtin.apply "in" [ s; Value.Int 1 ]));
  check value "delete synonym" (Value.set [])
    (ok_value (Builtin.apply "delete" [ s; Value.Int 1 ]))

let test_builtin_set_ops () =
  let a = Value.set [ Value.Int 1; Value.Int 2 ] in
  let b = Value.set [ Value.Int 2; Value.Int 3 ] in
  check value "union" (Value.set [ Value.Int 1; Value.Int 2; Value.Int 3 ])
    (ok_value (Builtin.apply "union" [ a; b ]));
  check value "intersect" (Value.set [ Value.Int 2 ])
    (ok_value (Builtin.apply "intersect" [ a; b ]));
  check value "minus" (Value.set [ Value.Int 1 ])
    (ok_value (Builtin.apply "minus" [ a; b ]));
  check value "card" (Value.Int 2) (ok_value (Builtin.apply "card" [ a ]));
  check value "isempty" (Value.Bool false)
    (ok_value (Builtin.apply "isempty" [ a ]))

let test_builtin_aggregates () =
  let xs = Value.List [ Value.Int 3; Value.Int 1; Value.Int 2 ] in
  check value "sum" (Value.Int 6) (ok_value (Builtin.apply "sum" [ xs ]));
  check value "minimum" (Value.Int 1)
    (ok_value (Builtin.apply "minimum" [ xs ]));
  check value "maximum" (Value.Int 3)
    (ok_value (Builtin.apply "maximum" [ xs ]));
  check value "avg" (Value.Int 2) (ok_value (Builtin.apply "avg" [ xs ]));
  check value "sum of empty is undefined" Value.Undefined
    (ok_value (Builtin.apply "sum" [ Value.List [] ]));
  check value "money sum" (Value.Money 300)
    (ok_value
       (Builtin.apply "sum" [ Value.List [ Value.Money 100; Value.Money 200 ] ]));
  check value "the singleton" (Value.Int 5)
    (ok_value (Builtin.apply "the" [ Value.set [ Value.Int 5 ] ]));
  check value "the non-singleton" Value.Undefined
    (ok_value (Builtin.apply "the" [ Value.set [ Value.Int 5; Value.Int 6 ] ]))

let test_builtin_lists () =
  let l = Value.List [ Value.Int 1; Value.Int 2 ] in
  check value "append" (Value.List [ Value.Int 1; Value.Int 2; Value.Int 3 ])
    (ok_value (Builtin.apply "append" [ l; Value.Int 3 ]));
  check value "head" (Value.Int 1) (ok_value (Builtin.apply "head" [ l ]));
  check value "head empty" Value.Undefined
    (ok_value (Builtin.apply "head" [ Value.List [] ]));
  check value "tail" (Value.List [ Value.Int 2 ])
    (ok_value (Builtin.apply "tail" [ l ]));
  check value "nth" (Value.Int 2)
    (ok_value (Builtin.apply "nth" [ l; Value.Int 1 ]));
  check value "nth out of range" Value.Undefined
    (ok_value (Builtin.apply "nth" [ l; Value.Int 9 ]));
  check value "elems" (Value.set [ Value.Int 1; Value.Int 2 ])
    (ok_value (Builtin.apply "elems" [ l ]))

let test_builtin_maps () =
  let m = Value.map [ (Value.Int 1, Value.String "a") ] in
  check value "get hit" (Value.String "a")
    (ok_value (Builtin.apply "get" [ m; Value.Int 1 ]));
  check value "get miss" Value.Undefined
    (ok_value (Builtin.apply "get" [ m; Value.Int 2 ]));
  check value "put overrides" (Value.String "b")
    (ok_value
       (Builtin.apply "get"
          [ ok_value (Builtin.apply "put" [ m; Value.Int 1; Value.String "b" ]);
            Value.Int 1 ]));
  check value "dom" (Value.set [ Value.Int 1 ])
    (ok_value (Builtin.apply "dom" [ m ]))

let test_builtin_logic () =
  check value "false and undefined" (Value.Bool false)
    (ok_value (Builtin.apply "and" [ Value.Bool false; Value.Undefined ]));
  check value "true or undefined" (Value.Bool true)
    (ok_value (Builtin.apply "or" [ Value.Undefined; Value.Bool true ]));
  check value "undefined implies" (Value.Bool true)
    (ok_value (Builtin.apply "implies" [ Value.Undefined; Value.Bool true ]));
  check value "undefined = undefined" (Value.Bool true)
    (ok_value (Builtin.apply "=" [ Value.Undefined; Value.Undefined ]));
  check value "defined" (Value.Bool false)
    (ok_value (Builtin.apply "defined" [ Value.Undefined ]))

let test_builtin_strictness () =
  (* strict operators propagate Undefined *)
  List.iter
    (fun (op, args) ->
      check value (op ^ " strict") Value.Undefined
        (ok_value (Builtin.apply op args)))
    [ ("+", [ Value.Undefined; Value.Int 1 ]);
      ("<", [ Value.Int 1; Value.Undefined ]);
      ("insert", [ Value.Undefined; Value.set [] ]);
      ("card", [ Value.Undefined ]) ]

let comparable_value =
  QCheck.map
    (fun i -> Value.Int i)
    QCheck.(int_range (-100) 100)

let prop_builtin_min_max =
  QCheck.Test.make ~name:"builtin: min/max agree with compare" ~count:300
    (QCheck.pair comparable_value comparable_value)
    (fun (a, b) ->
      let mn = ok_value (Builtin.apply "min" [ a; b ]) in
      let mx = ok_value (Builtin.apply "max" [ a; b ]) in
      Value.compare mn mx <= 0
      && (Value.equal mn a || Value.equal mn b)
      && (Value.equal mx a || Value.equal mx b))

let prop_builtin_insert_member =
  QCheck.Test.make ~name:"builtin: insert then in" ~count:300
    (QCheck.pair arbitrary_value
       (QCheck.list_of_size (QCheck.Gen.int_range 0 6) arbitrary_value))
    (fun (x, xs) ->
      QCheck.assume (not (Value.is_undefined x));
      QCheck.assume (not (List.exists Value.is_undefined xs));
      let s = Value.set xs in
      let s' = ok_value (Builtin.apply "insert" [ x; s ]) in
      Value.equal (Value.Bool true) (ok_value (Builtin.apply "in" [ x; s' ])))

let prop_builtin_remove_not_member =
  QCheck.Test.make ~name:"builtin: remove then not in" ~count:300
    (QCheck.pair arbitrary_value
       (QCheck.list_of_size (QCheck.Gen.int_range 0 6) arbitrary_value))
    (fun (x, xs) ->
      QCheck.assume (not (Value.is_undefined x));
      QCheck.assume (not (List.exists Value.is_undefined xs));
      let s = Value.set xs in
      let s' = ok_value (Builtin.apply "remove" [ x; s ]) in
      Value.equal (Value.Bool false) (ok_value (Builtin.apply "in" [ x; s' ])))

let prop_builtin_typing_soundness =
  (* when the typing rule accepts and evaluation succeeds, the computed
     value inhabits the predicted type *)
  let gen =
    QCheck.pair
      (QCheck.oneofl [ "+"; "-"; "*"; "min"; "max"; "=" ])
      (QCheck.pair comparable_value comparable_value)
  in
  QCheck.Test.make ~name:"builtin: evaluation matches typing" ~count:300 gen
    (fun (op, (a, b)) ->
      match Builtin.type_of_application op [ Value.type_of a; Value.type_of b ] with
      | Error _ -> true
      | Ok ty -> (
          match Builtin.apply op [ a; b ] with
          | Error _ -> true
          | Ok v ->
              Value.is_undefined v || Vtype.subtype (Value.type_of v) ty))

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let test_env () =
  let e = Env.of_list [ ("x", Value.Int 1) ] in
  check (Alcotest.option value) "find hit" (Some (Value.Int 1))
    (Env.find "x" e);
  check (Alcotest.option value) "find miss" None (Env.find "y" e);
  let e2 = Env.bind "x" (Value.Int 2) e in
  check (Alcotest.option value) "shadowing" (Some (Value.Int 2))
    (Env.find "x" e2);
  check (Alcotest.option value) "persistence" (Some (Value.Int 1))
    (Env.find "x" e);
  check tbool "mem" true (Env.mem "x" e)

(* ------------------------------------------------------------------ *)

(* The set builtins lean on every set being canonical ([insert],
   [remove] and [in] walk it only up to the operand); they must agree
   with the naive definitions on every set, and every result must stay
   strictly increasing.  The elements include
   tuple-keyed identities, and every operand is handed over as a
   structurally equal but physically distinct copy, so no answer can
   rest on sharing. *)
let set_elem_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> Value.Int i) (int_range 0 12);
      map (fun s -> Value.String s) (oneofl [ "a"; "b"; "ab"; "" ]);
      map2
        (fun n d ->
          Value.Id
            ( "PERSON",
              Value.Tuple
                [ ("Name", Value.String n); ("Birthdate", Value.Date d) ] ))
        (oneofl [ "ada"; "bob"; "cy" ])
        (int_range 0 2);
      map
        (fun i -> Value.Id ("DEPT", Value.String (string_of_int i)))
        (int_range 0 3);
    ]

let copy_value v =
  match Value_codec.decode (Value_codec.encode v) with
  | Ok v' -> v'
  | Error m -> failwith m

let rec strictly_increasing = function
  | x :: (y :: _ as rest) -> Value.compare x y < 0 && strictly_increasing rest
  | _ -> true

let prop_set_kernels_naive =
  let elems = QCheck.Gen.(list_size (int_range 0 9) set_elem_gen) in
  QCheck.Test.make ~name:"builtin: set kernels equal their naive definitions"
    ~count:1000
    (QCheck.make
       ~print:(fun (xs, ys, e) ->
         Printf.sprintf "A=%s B=%s e=%s"
           (Value.to_string (Value.set xs))
           (Value.to_string (Value.set ys))
           (Value.to_string e))
       QCheck.Gen.(triple elems elems set_elem_gen))
    (fun (xs, ys, e) ->
      let elements = function Value.Set s -> s | _ -> assert false in
      let a = elements (Value.set xs) in
      let b = elements (Value.set (List.map copy_value ys)) in
      (* often an element of A, so the hit paths run too *)
      let e =
        copy_value
          (match a with
          | [] -> e
          | _ when Value.compare e (List.hd a) > 0 ->
              List.nth a (List.length a / 2)
          | _ -> e)
      in
      let mem x l = List.exists (Value.equal x) l in
      let apply op args = ok_value (Builtin.apply op args) in
      let same_set got want =
        match got with
        | Value.Set l ->
            strictly_increasing l && Value.equal got (Value.Set want)
        | _ -> false
      in
      let select =
        match Parser.expr_of_string "select[it < P](S)" with
        | Ok q ->
            Eval.expr (Community.create ()) ~self:None
              ~env:(Env.bind "S" (Value.Set a) (Env.bind "P" e Env.empty))
              q
        | Error err -> failwith (Parse_error.to_string err)
      in
      same_set (apply "insert" [ e; Value.Set a ])
        (match Value.set (e :: a) with Value.Set l -> l | _ -> [])
      && same_set (apply "insert" [ Value.Set a; e ])
           (match Value.set (e :: a) with Value.Set l -> l | _ -> [])
      && same_set (apply "remove" [ e; Value.Set a ])
           (List.filter (fun x -> not (Value.equal x e)) a)
      && same_set (apply "delete" [ Value.Set a; e ])
           (List.filter (fun x -> not (Value.equal x e)) a)
      && Value.equal (apply "in" [ e; Value.Set a ]) (Value.Bool (mem e a))
      && Value.equal (apply "in" [ Value.Set b; e ]) (Value.Bool (mem e b))
      && same_set (apply "union" [ Value.Set a; Value.Set b ])
           (match Value.set (a @ b) with Value.Set l -> l | _ -> [])
      && same_set (apply "intersect" [ Value.Set a; Value.Set b ])
           (List.filter (fun x -> mem x b) a)
      && same_set (apply "minus" [ Value.Set a; Value.Set b ])
           (List.filter (fun x -> not (mem x b)) a)
      && same_set select (List.filter (fun x -> Value.compare x e < 0) a))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest) tests)

let () =
  Alcotest.run "data"
    [
      ( "date",
        [
          Alcotest.test_case "epoch" `Quick test_date_epoch;
          Alcotest.test_case "known values" `Quick test_date_known_values;
          Alcotest.test_case "ymd round-trips" `Quick test_date_roundtrip_ymd;
          Alcotest.test_case "leap years" `Quick test_date_leap_years;
          Alcotest.test_case "days in month" `Quick test_date_days_in_month;
          Alcotest.test_case "arithmetic" `Quick test_date_arithmetic;
          Alcotest.test_case "of_string" `Quick test_date_of_string;
        ] );
      qsuite "date-properties"
        [ prop_date_roundtrip; prop_date_string_roundtrip;
          prop_date_add_monotone ];
      ( "money",
        [
          Alcotest.test_case "printing" `Quick test_money_print;
          Alcotest.test_case "parsing" `Quick test_money_parse;
          Alcotest.test_case "scaling" `Quick test_money_scale;
          Alcotest.test_case "arithmetic" `Quick test_money_arith;
        ] );
      qsuite "money-properties"
        [ prop_money_string_roundtrip; prop_money_scale_by_100_cents ];
      ( "vtype",
        [
          Alcotest.test_case "subtyping" `Quick test_vtype_subtype_basics;
          Alcotest.test_case "join" `Quick test_vtype_join;
          Alcotest.test_case "finiteness" `Quick test_vtype_finite;
        ] );
      qsuite "vtype-properties"
        [ prop_subtype_reflexive; prop_join_commutative; prop_join_upper_bound ];
      ( "value",
        [
          Alcotest.test_case "set canonical" `Quick test_value_set_canonical;
          Alcotest.test_case "map canonical" `Quick test_value_map_canonical;
          Alcotest.test_case "field access" `Quick test_value_field;
          Alcotest.test_case "type_of" `Quick test_value_type_of;
        ] );
      qsuite "value-properties"
        [ prop_value_compare_antisym; prop_value_compare_transitive;
          prop_set_constructor_idempotent; prop_insert_is_canonical ];
      ( "builtin",
        [
          Alcotest.test_case "arithmetic" `Quick test_builtin_arith;
          Alcotest.test_case "date arithmetic" `Quick test_builtin_date_arith;
          Alcotest.test_case "set ops, both orders" `Quick
            test_builtin_sets_both_orders;
          Alcotest.test_case "set algebra" `Quick test_builtin_set_ops;
          Alcotest.test_case "aggregates" `Quick test_builtin_aggregates;
          Alcotest.test_case "lists" `Quick test_builtin_lists;
          Alcotest.test_case "maps" `Quick test_builtin_maps;
          Alcotest.test_case "three-valued logic" `Quick test_builtin_logic;
          Alcotest.test_case "strictness" `Quick test_builtin_strictness;
        ] );
      qsuite "builtin-properties"
        [ prop_builtin_min_max; prop_builtin_insert_member;
          prop_builtin_remove_not_member; prop_builtin_typing_soundness;
          prop_set_kernels_naive ];
      ("env", [ Alcotest.test_case "bindings" `Quick test_env ]);
    ]
