(** Temporal layer: reference trace semantics, incremental monitors, and
    their equivalence (the correctness basis of permission checking and
    of experiment E4). *)

let check = Alcotest.check
let tbool = Alcotest.bool

(* Atoms are indices into a boolean state vector. *)
let atom i (s : bool array) = s.(i)

let trace rows : bool array array = Array.of_list (List.map Array.of_list rows)

let eval_last tr f = Trace_eval.eval_last ~atom tr f

let f_a = Formula.Atom 0
let f_b = Formula.Atom 1

(* ------------------------------------------------------------------ *)
(* Reference semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_sometime () =
  let tr = trace [ [ true; false ]; [ false; false ]; [ false; false ] ] in
  check tbool "past occurrence seen" true (eval_last tr (Formula.Sometime f_a));
  check tbool "never occurred" false (eval_last tr (Formula.Sometime f_b));
  check tbool "includes present" true
    (eval_last (trace [ [ false; false ]; [ true; false ] ]) (Formula.Sometime f_a))

let test_always () =
  let tr = trace [ [ true; true ]; [ true; false ] ] in
  check tbool "held throughout" true (eval_last tr (Formula.Always f_a));
  check tbool "broken once" false (eval_last tr (Formula.Always f_b))

let test_previous () =
  let tr = trace [ [ true; false ]; [ false; false ] ] in
  check tbool "previous state" true (eval_last tr (Formula.Previous f_a));
  check tbool "previous at start is false" false
    (eval_last (trace [ [ true; true ] ]) (Formula.Previous f_a))

let test_since () =
  (* b held at instant 1, a held from then on *)
  let tr =
    trace [ [ false; false ]; [ false; true ]; [ true; false ]; [ true; false ] ]
  in
  check tbool "a since b" true (eval_last tr (Formula.Since (f_a, f_b)));
  (* a gap in a after b breaks since *)
  let tr2 =
    trace [ [ false; true ]; [ false; false ]; [ true; false ] ]
  in
  check tbool "gap breaks since" false (eval_last tr2 (Formula.Since (f_a, f_b)));
  (* ψ now satisfies since immediately *)
  check tbool "b now" true
    (eval_last (trace [ [ false; true ] ]) (Formula.Since (f_a, f_b)))

let test_connectives () =
  let tr = trace [ [ true; false ] ] in
  check tbool "not" false (eval_last tr (Formula.Not f_a));
  check tbool "and" false (eval_last tr (Formula.And (f_a, f_b)));
  check tbool "or" true (eval_last tr (Formula.Or (f_a, f_b)));
  check tbool "implies" false (eval_last tr (Formula.Implies (f_a, f_b)));
  check tbool "true" true (eval_last tr Formula.True);
  check tbool "false" false (eval_last tr Formula.False)

let test_nested () =
  (* sometime(previous a): a held at some non-final instant *)
  let tr = trace [ [ true; false ]; [ false; false ]; [ false; false ] ] in
  check tbool "sometime previous" true
    (eval_last tr (Formula.Sometime (Formula.Previous f_a)));
  (* the permission pattern of the paper: sometime(after(hire)) =>
     modelled as Sometime (Atom occurs) *)
  let tr2 = trace [ [ false; false ]; [ true; false ]; [ false; false ] ] in
  check tbool "sometime then query later" true
    (eval_last tr2 (Formula.Sometime f_a))

(* ------------------------------------------------------------------ *)
(* Formula utilities                                                   *)
(* ------------------------------------------------------------------ *)

let test_size_atoms () =
  let f = Formula.Implies (Formula.Sometime f_a, Formula.Not f_b) in
  check Alcotest.int "size" 5 (Formula.size f);
  check (Alcotest.list Alcotest.int) "atoms" [ 0; 1 ]
    (List.sort compare (Formula.atoms [] f));
  check tbool "is_temporal" true (Formula.is_temporal f);
  check tbool "propositional" false
    (Formula.is_temporal (Formula.And (f_a, f_b)))

let test_map () =
  let f = Formula.Sometime (Formula.And (f_a, f_b)) in
  let g = Formula.map (fun i -> i + 10) f in
  check (Alcotest.list Alcotest.int) "mapped atoms" [ 10; 11 ]
    (List.sort compare (Formula.atoms [] g))

(* ------------------------------------------------------------------ *)
(* Monitor vs reference semantics                                      *)
(* ------------------------------------------------------------------ *)

let monitor_value tr f =
  let c = Monitor.compile f in
  Monitor.value c (Monitor.run c ~atom tr)

let test_monitor_basic () =
  let tr = trace [ [ true; false ]; [ false; false ] ] in
  check tbool "monitor sometime" true (monitor_value tr (Formula.Sometime f_a));
  check tbool "monitor previous" true (monitor_value tr (Formula.Previous f_a));
  check tbool "monitor always false" false
    (monitor_value tr (Formula.Always f_a))

let test_monitor_stepwise () =
  (* stepping one state at a time matches evaluating each prefix *)
  let c = Monitor.compile (Formula.Sometime f_a) in
  let s1 = Monitor.step c ~atom_eval:(fun i -> [| false; true |].(i)) None in
  check tbool "after step 1" false (Monitor.value c s1);
  let s2 =
    Monitor.step c ~atom_eval:(fun i -> [| true; false |].(i)) (Some s1)
  in
  check tbool "after step 2" true (Monitor.value c s2);
  let s3 =
    Monitor.step c ~atom_eval:(fun i -> [| false; false |].(i)) (Some s2)
  in
  check tbool "latches" true (Monitor.value c s3);
  (* old states are unaffected (immutability supports rollback) *)
  check tbool "old state intact" false (Monitor.value c s1)

(* step_false is the engine's fast path for objects untouched by a step
   (engine.ml uses it in four places): it must agree with the general
   step on an all-false state, and when the truth vector is unchanged it
   must return the input state itself — the pointer reuse is what lets
   rollback keep old states and lets the engine skip re-allocating
   monitor vectors for idle objects. *)
let all_false = Monitor.step ~atom_eval:(fun _ -> false)

let test_step_false_pointer_reuse () =
  (* sometime(a) latches: once true, further all-false steps leave the
     vector fixed, so step_false must hand back the very same state *)
  let c = Monitor.compile (Formula.Sometime f_a) in
  let s0 = Monitor.step c ~atom_eval:(fun i -> [| true; false |].(i)) None in
  (* first all-false step flips the atom entry, so a fresh state *)
  let s1 = Monitor.step_false c s0 in
  check tbool "atom entry flipped: fresh state" true (not (s1 == s0));
  (* from here the vector is a fixpoint of all-false stepping *)
  let s2 = Monitor.step_false c s1 in
  check tbool "latched vector: state physically reused" true (s2 == s1);
  check tbool "latched verdict" true (Monitor.value c s2);
  (* previous(a) after a true instant: the vector does change, so a
     fresh state must come back and carry the right verdict *)
  let c' = Monitor.compile (Formula.Previous f_a) in
  let t1 = Monitor.step c' ~atom_eval:(fun i -> [| true; false |].(i)) None in
  let t2 = Monitor.step_false c' t1 in
  check tbool "changed vector: fresh state" true (not (t2 == t1));
  check tbool "previous now true" true (Monitor.value c' t2);
  check tbool "matches general step" (Monitor.value c' (all_false c' (Some t1)))
    (Monitor.value c' t2)

(* random formulas over two atoms *)
let gen_formula =
  let open QCheck.Gen in
  let atom = map (fun i -> Formula.Atom i) (int_range 0 1) in
  let rec gen n =
    if n = 0 then oneof [ atom; return Formula.True; return Formula.False ]
    else
      frequency
        [ (2, atom);
          (1, map (fun f -> Formula.Not f) (gen (n - 1)));
          (1, map2 (fun a b -> Formula.And (a, b)) (gen (n - 1)) (gen (n - 1)));
          (1, map2 (fun a b -> Formula.Or (a, b)) (gen (n - 1)) (gen (n - 1)));
          (1,
           map2 (fun a b -> Formula.Implies (a, b)) (gen (n - 1)) (gen (n - 1)));
          (1, map (fun f -> Formula.Sometime f) (gen (n - 1)));
          (1, map (fun f -> Formula.Always f) (gen (n - 1)));
          (1, map2 (fun a b -> Formula.Since (a, b)) (gen (n - 1)) (gen (n - 1)));
          (1, map (fun f -> Formula.Previous f) (gen (n - 1))) ]
  in
  gen 4

let gen_trace =
  QCheck.Gen.(
    list_size (int_range 1 25) (pair bool bool)
    |> map (fun rows -> trace (List.map (fun (a, b) -> [ a; b ]) rows)))

let pp_formula_int = Formula.pp (fun ppf i -> Format.fprintf ppf "a%d" i)

let prop_monitor_equals_trace_eval =
  QCheck.Test.make
    ~name:"monitor ≡ reference semantics on every prefix" ~count:1000
    (QCheck.make
       ~print:(fun (f, tr) ->
         Format.asprintf "%a on %d states" pp_formula_int f (Array.length tr))
       (QCheck.Gen.pair gen_formula gen_trace))
    (fun (f, tr) ->
      let c = Monitor.compile f in
      let state = ref None in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          let st = Monitor.step c ~atom_eval:(fun a -> atom a s) !state in
          state := Some st;
          if Monitor.value c st <> Trace_eval.eval ~atom tr i f then ok := false)
        tr;
      !ok)

let prop_step_false_equals_step =
  QCheck.Test.make
    ~name:"step_false ≡ step on all-false states, with pointer reuse"
    ~count:500
    (QCheck.make
       ~print:(fun (f, tr) ->
         Format.asprintf "%a on %d states" pp_formula_int f (Array.length tr))
       (QCheck.Gen.pair gen_formula gen_trace))
    (fun (f, tr) ->
      let c = Monitor.compile f in
      (* run the random prefix, then trail three all-false instants *)
      let s = ref (Monitor.run c ~atom tr) in
      let ok = ref true in
      for _ = 1 to 3 do
        let fast = Monitor.step_false c !s in
        let slow = all_false c (Some !s) in
        if Monitor.state_to_bools fast <> Monitor.state_to_bools slow then
          ok := false;
        if Monitor.value c fast <> Monitor.value c slow then ok := false;
        (* unchanged vector must come back as the same pointer *)
        if Monitor.state_to_bools fast = Monitor.state_to_bools !s
           && not (fast == !s)
        then ok := false;
        s := fast
      done;
      !ok)

let prop_monitor_size_linear =
  QCheck.Test.make ~name:"compiled monitor linear in formula size" ~count:200
    (QCheck.make ~print:(Format.asprintf "%a" pp_formula_int) gen_formula)
    (fun f ->
      let c = Monitor.compile f in
      Monitor.length c = Formula.size f)

(* ------------------------------------------------------------------ *)
(* Parametric monitors                                                 *)
(* ------------------------------------------------------------------ *)

(* One monitor per key: sometime(atom), where the atom of key k holds
   when the state (an int list) contains k.  The table is the engine's
   own ({!Param_table}); the quantifier is a fold over its instances. *)
let param_formula = Monitor.compile (Formula.Sometime (Formula.Atom ()))
let param_key k = [ Value.Int k ]

let param_step domain state tbl =
  Param_table.step_full param_formula
    ~atom_eval:(fun k () ->
      match k with [ Value.Int k ] -> List.mem k state | _ -> false)
    ~spawn:(List.map param_key domain) ~stamp:0 tbl

let forall tbl = Param_table.for_all (Monitor.value param_formula) tbl
let exists tbl = Param_table.exists (Monitor.value param_formula) tbl

let test_param_forall () =
  (* empty domain: vacuously true *)
  check tbool "empty" true (forall Param_table.empty);
  (* key 1 appears and is satisfied; key 2 appears later, never satisfied *)
  let s1 = param_step [ 1 ] [ 1 ] Param_table.empty in
  check tbool "one satisfied instance" true (forall s1);
  let s2 = param_step [ 1; 2 ] [] s1 in
  check tbool "unsatisfied newcomer falsifies" false (forall s2);
  let s3 = param_step [ 1; 2 ] [ 2 ] s2 in
  check tbool "newcomer satisfied later" true (forall s3)

let test_param_exists () =
  check tbool "empty is false" false (exists Param_table.empty);
  let s1 = param_step [ 1; 2 ] [] Param_table.empty in
  check tbool "none satisfied" false (exists s1);
  let s2 = param_step [ 1; 2 ] [ 2 ] s1 in
  check tbool "one witness suffices" true (exists s2)

let test_param_spawn_once () =
  let s1 = param_step [ 1; 1; 1 ] [ 1 ] Param_table.empty in
  check Alcotest.int "duplicate domain values spawn once" 1
    (Param_table.cardinal s1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "temporal"
    [
      ( "trace-eval",
        [
          Alcotest.test_case "sometime" `Quick test_sometime;
          Alcotest.test_case "always" `Quick test_always;
          Alcotest.test_case "previous" `Quick test_previous;
          Alcotest.test_case "since" `Quick test_since;
          Alcotest.test_case "connectives" `Quick test_connectives;
          Alcotest.test_case "nesting" `Quick test_nested;
        ] );
      ( "formula",
        [
          Alcotest.test_case "size/atoms/is_temporal" `Quick test_size_atoms;
          Alcotest.test_case "map" `Quick test_map;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "basic operators" `Quick test_monitor_basic;
          Alcotest.test_case "stepwise + immutability" `Quick
            test_monitor_stepwise;
          Alcotest.test_case "step_false pointer reuse" `Quick
            test_step_false_pointer_reuse;
        ] );
      ( "monitor-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_monitor_equals_trace_eval;
            prop_step_false_equals_step;
            prop_monitor_size_linear;
          ] );
      ( "parametric",
        [
          Alcotest.test_case "forall spawning" `Quick test_param_forall;
          Alcotest.test_case "exists spawning" `Quick test_param_exists;
          Alcotest.test_case "spawn deduplication" `Quick test_param_spawn_once;
        ] );
    ]
