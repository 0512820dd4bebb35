(** Engine semantics: life cycles, valuation simultaneity, permissions
    (state, temporal, parametric, quantified), event calling closure,
    transactions with rollback, phases, incorporation, active objects,
    and the naive-vs-monitored permission equivalence. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let value = Alcotest.testable Value.pp Value.equal

let load ?config src =
  match Compile.load ?config src with
  | Ok (c, _) -> c
  | Error e -> Alcotest.failf "load failed: %s" e

let ident cls s = Ident.make cls (Value.String s)

let fire c id name args = Engine.fire c (Event.make id name args)

let accepted = function
  | Ok (_ : Engine.outcome) -> true
  | Error _ -> false

let reason = function
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error r -> r

let attr c id name =
  Eval.read_attr c (Community.object_exn c id) name []

let counter_spec = {|
object class COUNTER
  identification id: string;
  template
    attributes n: integer;
    events
      birth init;
      death stop;
      incr;
      decr;
      add(integer);
    valuation
      variables k: integer;
      [init] n = 0;
      [incr] n = n + 1;
      [decr] n = n - 1;
      [add(k)] n = n + k;
    permissions
      { n > 0 } decr;
end object class COUNTER;
|}

(* ------------------------------------------------------------------ *)
(* Life cycle                                                          *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  check tbool "create" true
    (accepted (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ()));
  check value "initialised" (Value.Int 0) (attr c x "n");
  check value "id attribute" (Value.String "x") (attr c x "id");
  (match reason (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ()) with
  | Runtime_error.Already_alive _ -> ()
  | r -> Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r));
  check tbool "event works" true (accepted (fire c x "incr" []));
  check tbool "death" true (accepted (Engine.destroy c ~id:x ()));
  (match reason (fire c x "incr" []) with
  | Runtime_error.Not_alive _ -> ()
  | r -> Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r));
  (* no rebirth *)
  (match reason (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ()) with
  | Runtime_error.Already_alive _ -> ()
  | r -> Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r))

let test_unknown_things () =
  let c = load counter_spec in
  (match Engine.create c ~cls:"NOPE" ~key:(Value.String "x") () with
  | Error (Runtime_error.Unknown_class "NOPE") -> ()
  | _ -> Alcotest.fail "unknown class");
  let x = ident "COUNTER" "x" in
  (match fire c x "incr" [] with
  | Error (Runtime_error.Unknown_object _) -> ()
  | _ -> Alcotest.fail "event on unknown object");
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  match fire c x "frobnicate" [] with
  | Error (Runtime_error.Unknown_event _) -> ()
  | _ -> Alcotest.fail "unknown event"

let test_events_on_unborn () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  match fire c x "incr" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "event accepted on unborn object"

(* ------------------------------------------------------------------ *)
(* Valuation semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_valuation_effects () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  ignore (fire c x "incr" []);
  ignore (fire c x "incr" []);
  ignore (fire c x "add" [ Value.Int 5 ]);
  check value "accumulated" (Value.Int 7) (attr c x "n")

let swap_spec = {|
object class SWAP
  identification id: string;
  template
    attributes a: integer; b: integer;
    events
      birth init(integer, integer);
      swap;
    valuation
      variables x: integer; y: integer;
      [init(x, y)] a = x;
      [init(x, y)] b = y;
      [swap] a = b;
      [swap] b = a;
end object class SWAP;
|}

let test_simultaneous_valuation () =
  (* the classic test: both right-hand sides read the PRE-state *)
  let c = load swap_spec in
  let x = ident "SWAP" "x" in
  ignore
    (Engine.create c ~cls:"SWAP" ~key:(Value.String "x")
       ~args:[ Value.Int 1; Value.Int 2 ] ());
  ignore (fire c x "swap" []);
  check value "a got old b" (Value.Int 2) (attr c x "a");
  check value "b got old a" (Value.Int 1) (attr c x "b")

let test_valuation_conflict () =
  let spec = {|
object class CONFLICT
  identification id: string;
  template
    attributes n: integer;
    events birth init; bump; slam;
    valuation
      [init] n = 0;
      [bump] n = n + 1;
      [slam] n = 99;
    calling
      bump >> self.slam;
end object class CONFLICT;
|}
  in
  let c = load spec in
  let x = ident "CONFLICT" "x" in
  ignore (Engine.create c ~cls:"CONFLICT" ~key:(Value.String "x") ());
  (* bump calls slam into the same step; both write n differently *)
  (match reason (fire c x "bump" []) with
  | Runtime_error.Valuation_conflict _ -> ()
  | r -> Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r));
  check value "state unchanged after conflict" (Value.Int 0) (attr c x "n")

let test_guarded_valuation () =
  let spec = {|
object class GV
  identification id: string;
  template
    attributes n: integer; capped: bool;
    events birth init; step;
    valuation
      [init] n = 0;
      [init] capped = false;
      { n < 3 } [step] n = n + 1;
      { n >= 3 } [step] capped = true;
end object class GV;
|}
  in
  let c = load spec in
  let x = ident "GV" "x" in
  ignore (Engine.create c ~cls:"GV" ~key:(Value.String "x") ());
  for _ = 1 to 5 do
    ignore (fire c x "step" [])
  done;
  check value "guard stopped increments" (Value.Int 3) (attr c x "n");
  check value "other guard fired" (Value.Bool true) (attr c x "capped")

(* ------------------------------------------------------------------ *)
(* Permissions                                                         *)
(* ------------------------------------------------------------------ *)

let test_state_permission () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  (match reason (fire c x "decr" []) with
  | Runtime_error.Permission_denied _ -> ()
  | r -> Alcotest.failf "wrong reason: %s" (Runtime_error.reason_to_string r));
  ignore (fire c x "incr" []);
  check tbool "allowed when positive" true (accepted (fire c x "decr" []))

let dept_community () =
  let c = load Paper_specs.dept in
  let alice = ident "PERSON" "alice" in
  let bob = ident "PERSON" "bob" in
  let d = ident "DEPT" "d" in
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "bob") ());
  ignore
    (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
       ~args:[ Value.Date 0 ] ());
  (c, alice, bob, d)

let test_temporal_permission_indexed () =
  let c, alice, bob, d = dept_community () in
  (* fire(P) requires sometime(after(hire(P))) — per instantiation *)
  check tbool "alice not yet hired" false
    (accepted (fire c d "fire" [ Ident.to_value alice ]));
  ignore (fire c d "hire" [ Ident.to_value alice ]);
  check tbool "bob's monitor is separate" false
    (accepted (fire c d "fire" [ Ident.to_value bob ]));
  check tbool "alice can be fired" true
    (accepted (fire c d "fire" [ Ident.to_value alice ]));
  (* the permission is about history, not current membership: a second
     fire of alice still satisfies sometime(after(hire(alice))) but she
     is only removed once — still accepted by the guard *)
  check tbool "guard latches" true
    (accepted (fire c d "fire" [ Ident.to_value alice ]))

let test_quantified_permission () =
  let c, alice, bob, d = dept_community () in
  ignore (fire c d "hire" [ Ident.to_value alice ]);
  ignore (fire c d "hire" [ Ident.to_value bob ]);
  check tbool "closure blocked (two employed)" false
    (accepted (fire c d "closure" []));
  ignore (fire c d "fire" [ Ident.to_value alice ]);
  check tbool "closure blocked (one employed)" false
    (accepted (fire c d "closure" []));
  ignore (fire c d "fire" [ Ident.to_value bob ]);
  check tbool "closure allowed (all fired)" true
    (accepted (fire c d "closure" []))

let test_quantified_vacuous () =
  let c = load Paper_specs.dept in
  let d = ident "DEPT" "empty" in
  ignore
    (Engine.create c ~cls:"DEPT" ~key:(Value.String "empty")
       ~args:[ Value.Date 0 ] ());
  check tbool "closure of never-staffed department" true
    (accepted (fire c d "closure" []))

let test_permission_conjunction () =
  (* several permissions on one event must all hold *)
  let spec = {|
object class PC
  identification id: string;
  template
    attributes a: bool; b: bool;
    events birth init(bool, bool); go;
    valuation
      variables x: bool; y: bool;
      [init(x, y)] a = x;
      [init(x, y)] b = y;
    permissions
      { a } go;
      { b } go;
end object class PC;
|}
  in
  let c = load spec in
  let mk name va vb =
    ignore
      (Engine.create c ~cls:"PC" ~key:(Value.String name)
         ~args:[ Value.Bool va; Value.Bool vb ] ())
  in
  mk "tt" true true;
  mk "tf" true false;
  check tbool "both guards hold" true (accepted (fire c (ident "PC" "tt") "go" []));
  check tbool "one guard fails" false (accepted (fire c (ident "PC" "tf") "go" []))

(* ------------------------------------------------------------------ *)
(* Event calling                                                       *)
(* ------------------------------------------------------------------ *)

let test_global_calling () =
  let c, alice, _, d = dept_community () in
  match fire c d "new_manager" [ Ident.to_value alice ] with
  | Ok o ->
      let step = List.concat o.Engine.committed in
      check tint "two events in one step (plus phases)" 2
        (List.length
           (List.filter
              (fun (e : Event.t) ->
                List.mem e.Event.name [ "new_manager"; "become_manager" ])
              step))
  | Error r -> Alcotest.failf "rejected: %s" (Runtime_error.reason_to_string r)

let test_calling_cascade () =
  (* a >> b >> c across three objects in one synchronous set *)
  let spec = {|
object class NODE
  identification id: string;
  template
    attributes next: |NODE|; hits: integer;
    events birth init(|NODE|); pulse;
    valuation
      variables N: |NODE|;
      [init(N)] next = N;
      [init(N)] hits = 0;
      [pulse] hits = hits + 1;
    calling
      { defined(next) } pulse >> NODE(next).pulse;
end object class NODE;
|}
  in
  let c = load spec in
  let n1 = ident "NODE" "n1" and n2 = ident "NODE" "n2" and n3 = ident "NODE" "n3" in
  ignore (Engine.create c ~cls:"NODE" ~key:(Value.String "n3") ~args:[ Value.Undefined ] ());
  ignore (Engine.create c ~cls:"NODE" ~key:(Value.String "n2") ~args:[ Ident.to_value n3 ] ());
  ignore (Engine.create c ~cls:"NODE" ~key:(Value.String "n1") ~args:[ Ident.to_value n2 ] ());
  (match fire c n1 "pulse" [] with
  | Ok o ->
      check tint "three events in one sync set" 3
        (List.length (List.concat o.Engine.committed))
  | Error r -> Alcotest.failf "rejected: %s" (Runtime_error.reason_to_string r));
  List.iter
    (fun n -> check value "hit" (Value.Int 1) (attr c n "hits"))
    [ n1; n2; n3 ]

let test_calling_cycle_is_shared () =
  (* mutual calling converges: the closure is a set, not a loop *)
  let spec = {|
object class PING
  identification id: string;
  template
    attributes n: integer; peer: |PING|;
    events birth init(|PING|); ping;
    valuation
      variables P: |PING|;
      [init(P)] peer = P;
      [init(P)] n = 0;
      [ping] n = n + 1;
    calling
      { defined(peer) } ping >> PING(peer).ping;
end object class PING;
|}
  in
  let c = load spec in
  let a = ident "PING" "a" and b = ident "PING" "b" in
  ignore (Engine.create c ~cls:"PING" ~key:(Value.String "a") ~args:[ Ident.to_value b ] ());
  (* b's init can refer to a even though a's peer was bound first *)
  ignore (Engine.create c ~cls:"PING" ~key:(Value.String "b") ~args:[ Ident.to_value a ] ());
  check tbool "mutual calling accepted" true (accepted (fire c a "ping" []));
  check value "a stepped once" (Value.Int 1) (attr c a "n");
  check value "b stepped once" (Value.Int 1) (attr c b "n")

let test_transaction_calling_and_rollback () =
  let spec = {|
object class TX
  identification id: string;
  template
    attributes n: integer;
    events birth init; double_up; bump; explode;
    valuation
      [init] n = 0;
      [bump] n = n + 1;
    permissions
      { n >= 10 } explode;
    calling
      double_up >> (bump; bump);
end object class TX;
|}
  in
  let c = load spec in
  let x = ident "TX" "x" in
  ignore (Engine.create c ~cls:"TX" ~key:(Value.String "x") ());
  (match fire c x "double_up" [] with
  | Ok o -> check tint "three micro-steps" 3 (List.length o.Engine.committed)
  | Error r -> Alcotest.failf "rejected: %s" (Runtime_error.reason_to_string r));
  check value "sequence applied in order" (Value.Int 2) (attr c x "n");
  (* a failing element anywhere aborts the whole chain *)
  let r =
    Engine.fire_seq c
      [ Event.make x "bump" []; Event.make x "explode" [] ]
  in
  check tbool "transaction rejected" false (accepted r);
  check value "first element rolled back" (Value.Int 2) (attr c x "n")

let test_rollback_restores_monitors () =
  (* after a rejected transaction the permission monitors must be as
     before: hire(bob);closure would step hire's monitor — rollback *)
  let c, alice, bob, d = dept_community () in
  ignore (fire c d "hire" [ Ident.to_value alice ]);
  let r =
    Engine.fire_seq c
      [ Event.make d "hire" [ Ident.to_value bob ];
        Event.make d "closure" [] ]
  in
  check tbool "transaction rejected" false (accepted r);
  (* bob's hire was rolled back: firing him must still be impossible *)
  check tbool "bob's monitor rolled back" false
    (accepted (fire c d "fire" [ Ident.to_value bob ]));
  check value "extension intact" (Value.Bool true)
    (Value.Bool
       (Ident.Set.mem d (Community.extension c "DEPT")));
  (* alice unaffected *)
  check tbool "alice still fireable" true
    (accepted (fire c d "fire" [ Ident.to_value alice ]))

let test_rollback_removes_created () =
  let spec = {|
object class BAD
  identification id: string;
  template
    attributes n: integer;
    events birth init;
    valuation [init] n = 1;
    constraints static n > 5;
end object class BAD;
|}
  in
  let c = load spec in
  (match Engine.create c ~cls:"BAD" ~key:(Value.String "x") () with
  | Error (Runtime_error.Constraint_violated _) -> ()
  | _ -> Alcotest.fail "constraint should reject birth");
  check tbool "object not registered" true
    (Community.find_object c (ident "BAD" "x") = None);
  check tint "extension empty" 0
    (Ident.Set.cardinal (Community.extension c "BAD"))

(* ------------------------------------------------------------------ *)
(* Constraints                                                         *)
(* ------------------------------------------------------------------ *)

let test_static_constraint () =
  let spec = {|
object class LIMIT
  identification id: string;
  template
    attributes n: integer;
    events birth init; add(integer);
    valuation
      variables k: integer;
      [init] n = 0;
      [add(k)] n = n + k;
    constraints
      static n <= 10;
end object class LIMIT;
|}
  in
  let c = load spec in
  let x = ident "LIMIT" "x" in
  ignore (Engine.create c ~cls:"LIMIT" ~key:(Value.String "x") ());
  check tbool "within bound" true (accepted (fire c x "add" [ Value.Int 10 ]));
  check tbool "over bound rejected" false
    (accepted (fire c x "add" [ Value.Int 1 ]));
  check value "state preserved" (Value.Int 10) (attr c x "n")

let test_temporal_constraint () =
  (* once armed, always armed: a temporal (non-static) constraint *)
  let spec = {|
object class ARM
  identification id: string;
  template
    attributes armed: bool;
    events birth init; arm; disarm;
    valuation
      [init] armed = false;
      [arm] armed = true;
      [disarm] armed = false;
    constraints
      sometime(armed) => armed;
end object class ARM;
|}
  in
  let c = load spec in
  let x = ident "ARM" "x" in
  ignore (Engine.create c ~cls:"ARM" ~key:(Value.String "x") ());
  check tbool "arming ok" true (accepted (fire c x "arm" []));
  check tbool "disarming violates history constraint" false
    (accepted (fire c x "disarm" []));
  check value "still armed" (Value.Bool true) (attr c x "armed")

(* ------------------------------------------------------------------ *)
(* Phases, inheritance, components                                     *)
(* ------------------------------------------------------------------ *)

let company_community () =
  let c = load Paper_specs.company in
  let key name =
    Value.Tuple [ ("Name", Value.String name); ("Birthdate", Value.Date 0) ]
  in
  let mk name salary dept =
    ignore
      (Engine.create c ~cls:"PERSON" ~key:(key name)
         ~args:[ Value.Money (Money.of_units salary); Value.String dept ] ());
    Ident.make "PERSON" (key name)
  in
  (c, mk)

let test_phase_birth_and_delegation () =
  let c, mk = company_community () in
  let alice = mk "alice" 6000 "Research" in
  let d = ident "DEPT" "Research" in
  ignore (Engine.create c ~cls:"DEPT" ~key:(Value.String "Research") ());
  ignore (fire c d "new_manager" [ Ident.to_value alice ]);
  let alice_mgr = Ident.as_class "MANAGER" alice in
  check tbool "phase exists" true (Community.living c alice_mgr <> None);
  (* inherited attribute read through the phase *)
  check value "delegated Salary" (Value.Money (Money.of_units 6000))
    (attr c alice_mgr "Salary");
  (* events fired at the phase delegate upward *)
  check tbool "inherited event" true
    (accepted (fire c alice_mgr "ChangeSalary" [ Value.Money (Money.of_units 7000) ]));
  check value "base attribute updated" (Value.Money (Money.of_units 7000))
    (attr c alice "Salary")

let test_phase_constraint_blocks_promotion () =
  let c, mk = company_community () in
  let bob = mk "bob" 3000 "Sales" in
  let d = ident "DEPT" "Sales" in
  ignore (Engine.create c ~cls:"DEPT" ~key:(Value.String "Sales") ());
  check tbool "promotion rejected by phase constraint" false
    (accepted (fire c d "new_manager" [ Ident.to_value bob ]));
  (* atomicity: the base-level effect was rolled back too *)
  check value "manager not recorded" Value.Undefined (attr c d "manager");
  check tbool "phase not created" true
    (Community.find_object c (Ident.as_class "MANAGER" bob) = None)

let test_phase_direct_birth_requires_base () =
  let c, _ = company_community () in
  let ghost =
    Ident.make "MANAGER"
      (Value.Tuple [ ("Name", Value.String "ghost"); ("Birthdate", Value.Date 0) ])
  in
  match Engine.fire c (Event.make ghost "become_manager" []) with
  | Error (Runtime_error.Not_alive _) -> ()
  | Error r -> Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r)
  | Ok _ -> Alcotest.fail "phase born without base aspect"

let test_components_and_incorporation () =
  let c, _ = company_community () in
  let d = ident "DEPT" "Sales" in
  ignore (Engine.create c ~cls:"DEPT" ~key:(Value.String "Sales") ());
  let comp = Ident.singleton "TheCompany" in
  ignore
    (Engine.create c ~cls:"TheCompany" ~key:(Value.Tuple [])
       ~args:[ Value.Date 0 ] ());
  ignore (fire c comp "add_dept" [ Ident.to_value d ]);
  check value "component list" (Value.List [ Ident.to_value d ])
    (attr c comp "depts")

let test_specialization_creates_base_aspect () =
  let spec = {|
object class THING
  identification id: string;
  template
    attributes tag: string;
    events birth appear; death disappear; touch;
    valuation
      [appear] tag = "thing";
end object class THING;

object class GADGET
  specialization of THING;
  identification id: string;
  template
    attributes volts: integer;
    events birth appear_g; zap;
    valuation
      [appear_g] volts = 12;
end object class GADGET;
|}
  in
  let c = load spec in
  let g = ident "GADGET" "g1" in
  (* closure under inheritance: the base aspect must exist first *)
  (match Engine.create c ~cls:"GADGET" ~key:(Value.String "g1") () with
  | Error (Runtime_error.Not_alive _) -> ()
  | _ -> Alcotest.fail "specialization born without base aspect");
  ignore (Engine.create c ~cls:"THING" ~key:(Value.String "g1") ());
  ignore (Engine.create c ~cls:"GADGET" ~key:(Value.String "g1") ());
  check value "own attribute" (Value.Int 12) (attr c g "volts");
  check value "inherited attribute" (Value.String "thing") (attr c g "tag");
  check tbool "inherited event" true (accepted (fire c g "touch" []));
  (* aspects share the life cycle: base death ends the specialization *)
  ignore
    (Engine.fire c
       (Event.make (ident "THING" "g1") "disappear" []));
  check tbool "specialization died with base" true
    (Community.living c g = None)

let test_base_death_kills_phases () =
  let c, mk = company_community () in
  let alice = mk "alice" 6000 "Research" in
  let d = ident "DEPT" "R" in
  ignore (Engine.create c ~cls:"DEPT" ~key:(Value.String "R") ());
  ignore (fire c d "new_manager" [ Ident.to_value alice ]);
  let mgr = Ident.as_class "MANAGER" alice in
  check tbool "phase alive" true (Community.living c mgr <> None);
  (* the person dies: the MANAGER aspect must end with it *)
  (match Engine.destroy c ~id:alice ~event:"dies" () with
  | Ok o ->
      check tbool "both identities destroyed" true
        (List.length o.Engine.destroyed = 2)
  | Error r -> Alcotest.failf "%s" (Runtime_error.reason_to_string r));
  check tbool "phase dead" true (Community.living c mgr = None);
  check tint "manager extension empty" 0
    (Ident.Set.cardinal (Community.extension c "MANAGER"));
  (* and the dead phase rejects events *)
  match fire c mgr "assign_official_car" [ Ident.to_value alice ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "event accepted on dead phase"

let test_phase_death_spares_base () =
  (* a role can end without ending the person *)
  let spec = {|
object class P
  identification id: string;
  template
    events birth born; death dies; take_role;
end object class P;
object class R
  view of P;
  template
    events birth P.take_role; death drop_role;
end object class R;
|}
  in
  let c = load spec in
  let p = ident "P" "x" in
  ignore (Engine.create c ~cls:"P" ~key:(Value.String "x") ());
  ignore (fire c p "take_role" []);
  let r = ident "R" "x" in
  check tbool "role born" true (Community.living c r <> None);
  ignore (Engine.destroy c ~id:r ~event:"drop_role" ());
  check tbool "role dead" true (Community.living c r = None);
  check tbool "base still alive" true (Community.living c p <> None)

(* ------------------------------------------------------------------ *)
(* Active objects                                                      *)
(* ------------------------------------------------------------------ *)

let test_active_objects () =
  let c = load Paper_specs.library in
  ignore
    (Engine.create c ~cls:"LibraryClock" ~key:(Value.Tuple [])
       ~args:[ Value.Date 0 ] ());
  let fired = Engine.run_active c ~fuel:100 in
  check tint "permission bounds autonomy at 7 ticks" 7 (List.length fired);
  check value "clock advanced" (Value.Date 7)
    (attr c (Ident.singleton "LibraryClock") "Today");
  (* audit re-enables *)
  ignore (fire c (Ident.singleton "LibraryClock") "audit" []);
  check tint "re-enabled" 7 (List.length (Engine.run_active c ~fuel:100));
  (* fuel is respected *)
  ignore (fire c (Ident.singleton "LibraryClock") "audit" []);
  check tint "fuel cap" 3 (List.length (Engine.run_active c ~fuel:3))

(* ------------------------------------------------------------------ *)
(* Quantifier evaluation in state formulas                             *)
(* ------------------------------------------------------------------ *)

let quantifier_spec = {|
data type Color = (red, green, blue);

object class ITEM
  identification id: string;
  template
    attributes Hue: Color; Weight: integer;
    events birth make(Color, integer);
    valuation
      variables c: Color; w: integer;
      [make(c, w)] Hue = c;
      [make(c, w)] Weight = w;
end object class ITEM;

object Checker
  template
    attributes dummy: integer;
    events birth boot;
      check_all; check_some; check_witness;
    valuation [boot] dummy = 0;
    permissions
      { for all (X: ITEM : X.Weight > 0) } check_all;
      { exists (X: ITEM : X.Hue = red) } check_some;
      { exists (w: integer : in({3, 5, 8}, w) and w > 4) } check_witness;
end object Checker;
|}

let quantifier_community () =
  let c = load quantifier_spec in
  let mk name color w =
    ignore
      (Engine.create c ~cls:"ITEM" ~key:(Value.String name)
         ~args:[ Value.Enum ("Color", color); Value.Int w ] ())
  in
  (c, mk, Ident.singleton "Checker")

let test_forall_over_extension () =
  let c, mk, checker = quantifier_community () in
  check tbool "vacuously true on empty extension" true
    (accepted (fire c checker "check_all" []));
  mk "a" "red" 5;
  mk "b" "green" 7;
  check tbool "all positive" true (accepted (fire c checker "check_all" []));
  mk "c" "blue" 0;
  check tbool "one zero-weight item falsifies" false
    (accepted (fire c checker "check_all" []))

let test_exists_over_extension () =
  let c, mk, checker = quantifier_community () in
  check tbool "false on empty extension" false
    (accepted (fire c checker "check_some" []));
  mk "a" "green" 5;
  check tbool "still no red item" false
    (accepted (fire c checker "check_some" []));
  mk "b" "red" 5;
  check tbool "red item found" true
    (accepted (fire c checker "check_some" []))

let test_exists_witness_extraction () =
  (* exists over an infinite base type, solved by witness candidates
     from the membership constraint — the paper's [exists(s1: integer)
     in(Emps, tuple(…, s1))] pattern *)
  let c, _, checker = quantifier_community () in
  check tbool "witness 5 or 8 found" true
    (accepted (fire c checker "check_witness" []))

(* ------------------------------------------------------------------ *)
(* Event sharing (simultaneous events)                                 *)
(* ------------------------------------------------------------------ *)

let test_fire_sync_shared_step () =
  (* two events of one object in one synchronous set: valuations read
     the same pre-state and must agree *)
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  (* incr and add(1) both write n from the same pre-state: both compute
     n = 0 + 1 — consistent, so the step is accepted once *)
  (match
     Engine.fire_sync c
       [ Event.make x "incr" []; Event.make x "add" [ Value.Int 1 ] ]
   with
  | Ok o -> check tint "one synchronous step" 1 (List.length o.Engine.committed)
  | Error r -> Alcotest.failf "%s" (Runtime_error.reason_to_string r));
  check value "applied once, not twice" (Value.Int 1) (attr c x "n");
  (* conflicting writes in one shared step reject *)
  match
    Engine.fire_sync c
      [ Event.make x "incr" []; Event.make x "add" [ Value.Int 2 ] ]
  with
  | Error (Runtime_error.Valuation_conflict _) -> ()
  | _ -> Alcotest.fail "conflicting shared step accepted"

let test_fire_sync_two_objects () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" and y = ident "COUNTER" "y" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "y") ());
  (* atomicity across objects: y's decr is forbidden at 0, so x's incr
     must roll back too *)
  (match
     Engine.fire_sync c [ Event.make x "incr" []; Event.make y "decr" [] ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forbidden shared step accepted");
  check value "x untouched" (Value.Int 0) (attr c x "n")

let test_runtime_arg_validation () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  (match fire c x "add" [] with
  | Error (Runtime_error.Eval_error _) -> ()
  | _ -> Alcotest.fail "arity violation accepted");
  (match fire c x "add" [ Value.String "one" ] with
  | Error (Runtime_error.Eval_error _) -> ()
  | _ -> Alcotest.fail "type violation accepted");
  check tbool "well-typed accepted" true
    (accepted (fire c x "add" [ Value.Int 1 ]));
  (* enum arguments are compatible by enumeration name *)
  let lib = load Paper_specs.library in
  check tbool "enum argument accepted" true
    (accepted
       (Engine.create lib ~cls:"BOOK" ~key:(Value.String "b")
          ~args:[ Value.String "T"; Value.Enum ("Genre", "poetry") ] ()));
  match
    Engine.create lib ~cls:"BOOK" ~key:(Value.String "b2")
      ~args:[ Value.String "T"; Value.Enum ("Color", "red") ] ()
  with
  | Error (Runtime_error.Eval_error _) -> ()
  | _ -> Alcotest.fail "foreign enumeration accepted"

let test_runaway_closure_rejected () =
  (* an event calling itself with fresh arguments never converges; the
     configurable bound turns it into a clean rejection *)
  let spec = {|
object class LOOP
  identification id: string;
  template
    attributes n: integer;
    events birth init; spin(integer);
    valuation
      variables k: integer;
      [init] n = 0;
      [spin(k)] n = k;
    calling
      variables k: integer;
      spin(k) >> self.spin(k + 1);
end object class LOOP;
|}
  in
  let config = { Community.default_config with Community.max_sync_set = 64 } in
  let c = load ~config spec in
  let x = ident "LOOP" "x" in
  ignore (Engine.create c ~cls:"LOOP" ~key:(Value.String "x") ());
  (match fire c x "spin" [ Value.Int 0 ] with
  | Error (Runtime_error.Unsupported _) -> ()
  | Error r -> Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r)
  | Ok _ -> Alcotest.fail "runaway closure accepted");
  check value "rolled back" (Value.Int 0) (attr c x "n")

(* ------------------------------------------------------------------ *)
(* Enabledness queries                                                 *)
(* ------------------------------------------------------------------ *)

let test_enabled_events () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  check (Alcotest.list Alcotest.string) "unknown object" []
    (Engine.enabled_events c x);
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  (* decr is gated on n > 0 *)
  check (Alcotest.list Alcotest.string) "fresh counter"
    [ "stop"; "incr" ]
    (Engine.enabled_events c x);
  ignore (fire c x "incr" []);
  check (Alcotest.list Alcotest.string) "after incr"
    [ "stop"; "incr"; "decr" ]
    (Engine.enabled_events c x);
  (* the probe does not perturb state or monitors *)
  check value "state untouched by probes" (Value.Int 1) (attr c x "n");
  check tbool "candidate list includes parameterized events" true
    (List.mem_assoc "add" (Engine.candidate_events c x))

(* ------------------------------------------------------------------ *)
(* Naive (trace) permission checking ≡ monitors                        *)
(* ------------------------------------------------------------------ *)

let test_naive_equals_monitor () =
  let config = { Community.default_config with Community.record_history = true } in
  let c = load ~config Paper_specs.dept in
  let alice = ident "PERSON" "alice" in
  let d = ident "DEPT" "d" in
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
  ignore
    (Engine.create c ~cls:"DEPT" ~key:(Value.String "d") ~args:[ Value.Date 0 ] ());
  let o = Community.object_exn c d in
  let guard_body =
    match
      List.find_map
        (fun (p : Template.permission) ->
          match p.Template.pm_guard with
          | Template.PG_indexed { ix_body; _ } -> Some ix_body
          | _ -> None)
        (Community.template_exn c "DEPT").Template.t_perms
    with
    | Some body -> body
    | None -> Alcotest.fail "expected an indexed permission"
  in
  let naive binds = Engine.naive_guard_value c o guard_body ~binds in
  let binds = [ ("P", Ident.to_value alice) ] in
  check tbool "before hire: naive says no" false (naive binds);
  ignore (fire c d "hire" [ Ident.to_value alice ]);
  check tbool "after hire: naive says yes" true (naive binds);
  (* and it agrees with the engine's answer *)
  check tbool "engine agrees" true
    (accepted (fire c d "fire" [ Ident.to_value alice ]))

(* random walk: monitored decisions = naive decisions on every step *)
let prop_naive_equals_monitor_random =
  QCheck.Test.make ~name:"naive trace check ≡ incremental monitors"
    ~count:60
    (QCheck.make
       ~print:(fun l -> String.concat "" (List.map string_of_int l))
       QCheck.Gen.(list_size (int_range 1 25) (int_range 0 3)))
    (fun actions ->
      let config =
        { Community.default_config with Community.record_history = true }
      in
      let c = load ~config Paper_specs.dept in
      let alice = ident "PERSON" "alice" in
      let d = ident "DEPT" "d" in
      ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
      ignore
        (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
           ~args:[ Value.Date 0 ] ());
      let o = Community.object_exn c d in
      let guard_body =
        match
          List.find_map
            (fun (p : Template.permission) ->
              match p.Template.pm_guard with
              | Template.PG_indexed { ix_body; _ } -> Some ix_body
              | _ -> None)
            (Community.template_exn c "DEPT").Template.t_perms
        with
        | Some body -> body
        | None -> assert false
      in
      let ok = ref true in
      List.iter
        (fun action ->
          (* before acting, naive and monitored answers for fire(alice)
             must coincide *)
          let naive =
            Engine.naive_guard_value c o guard_body
              ~binds:[ ("P", Ident.to_value alice) ]
          in
          let monitored =
            match Engine.fire (Community.clone c) (Event.make d "fire" [ Ident.to_value alice ]) with
            | Ok _ -> true
            | Error (Runtime_error.Permission_denied _) -> false
            | Error _ -> naive (* other rejection reasons don't compare *)
          in
          if naive <> monitored then ok := false;
          let ev =
            match action with
            | 0 -> Event.make d "hire" [ Ident.to_value alice ]
            | 1 -> Event.make d "fire" [ Ident.to_value alice ]
            | 2 -> Event.make d "new_manager" [ Ident.to_value alice ]
            | _ -> Event.make d "hire" [ Ident.to_value alice ]
          in
          ignore (Engine.fire c ev))
        actions;
      !ok)

(* ------------------------------------------------------------------ *)
(* Parametric slicing: stepping only the instances an event touches     *)
(* ------------------------------------------------------------------ *)

(* Four parametric guards, one per shape the engine steps differently:
   [fire] is sliceable and settles after one all-false step; [recall]
   is sliceable but stays unsettled for two all-false steps after its
   event, so its instance must stay hot; [praise] has a state atom, so
   it is never sliced; [audit] is a sliceable class-quantified guard. *)
let slicing_spec = {|
object class PERSON
  identification pname: string;
  template
    events birth born;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes
      manager: |PERSON|;
      employees: set(|PERSON|);
    events
      birth establishment;
      hire(|PERSON|);
      fire(|PERSON|);
      new_manager(|PERSON|);
      recall(|PERSON|);
      praise(|PERSON|);
      audit;
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [new_manager(P)] manager = P;
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { previous(previous(after(hire(P)))) } recall(P);
      { sometime(after(fire(P)) or manager = P) } praise(P);
      { exists (Q: PERSON : previous(after(fire(Q)))) } audit;
end object class DEPT;
|}

type slice_op =
  | Step of string * int  (** a DEPT event on person [i] ([audit] ignores it) *)
  | Doomed of (string * int) list
      (** a sequence ending in a refused event: rolled back whole *)
  | Reload  (** Persist save, then load into a fresh community *)

let slicing_persons = 4
let slicing_dept = ident "DEPT" "d"
let slicing_person i = Ident.to_value (ident "PERSON" (Printf.sprintf "p%d" i))

(* never hired, so fire(ghost) is always refused *)
let slicing_ghost = Ident.to_value (ident "PERSON" "ghost")

let slicing_event (name, i) =
  Event.make slicing_dept name
    (if String.equal name "audit" then [] else [ slicing_person i ])

let slicing_load ~compiled =
  load
    ~config:
      { Community.default_config with Community.compiled_dispatch = compiled }
    slicing_spec

let slicing_community ~compiled =
  let c = slicing_load ~compiled in
  List.iter
    (fun key -> ignore (Engine.create c ~cls:"PERSON" ~key ()))
    (Value.String "ghost"
    :: List.init slicing_persons (fun i ->
           Value.String (Printf.sprintf "p%d" i)));
  ignore (Engine.create c ~cls:"DEPT" ~key:(Value.String "d") ());
  c

(* which guards the template index marks sliceable *)
let test_slicing_condition () =
  let c = slicing_community ~compiled:true in
  let tpl = Community.template_exn c "DEPT" in
  let ti = Dispatch.template_index c tpl in
  let sliced event =
    let idx =
      let rec find i = function
        | [] -> Alcotest.failf "no permission on %s" event
        | (pm : Template.permission) :: rest ->
            if String.equal pm.Template.pm_event event then i
            else find (i + 1) rest
      in
      find 0 tpl.Template.t_perms
    in
    match ti.Dispatch.ti_perm_mons.(idx) with
    | Some cm -> cm.Dispatch.cm_slice <> None
    | None -> false
  in
  check tbool "occurrence-only guard" true (sliced "fire");
  check tbool "slow-settling guard" true (sliced "recall");
  check tbool "guard with a state atom" false (sliced "praise");
  check tbool "quantified occurrence guard" true (sliced "audit")

let slicing_op_gen =
  let open QCheck.Gen in
  let name =
    frequencyl
      [ (4, "hire"); (2, "fire"); (2, "recall"); (1, "praise");
        (1, "new_manager"); (1, "audit") ]
  in
  let ev = pair name (int_bound (slicing_persons - 1)) in
  frequency
    [ (16, map (fun e -> Step (fst e, snd e)) ev);
      (2, map (fun evs -> Doomed evs) (list_size (int_range 1 2) ev));
      (1, return Reload) ]

let slicing_op_to_string = function
  | Step (n, i) -> Printf.sprintf "%s(p%d)" n i
  | Doomed evs ->
      Printf.sprintf "doomed[%s]"
        (String.concat ";"
           (List.map (fun (n, i) -> Printf.sprintf "%s(p%d)" n i) evs))
  | Reload -> "reload"

(* every verdict the guards decide, as the enabledness of each event on
   each person *)
let slicing_verdicts c =
  List.concat_map
    (fun name ->
      List.init slicing_persons (fun i ->
          Engine.enabled c (slicing_event (name, i))))
    [ "fire"; "recall"; "praise" ]
  @ [ Engine.enabled c (slicing_event ("audit", 0)) ]

(* The compiled engine slices sliceable guards and keeps hot sets; the
   interpreted one walks every instance with full atom evaluation.  Fed
   the same steps, both must give every step the same verdict, every
   instance the same enabledness after every step, and dump the same
   state. *)
let prop_sliced_equals_full_walk =
  QCheck.Test.make ~name:"sliced parametric stepping ≡ full walk" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map slicing_op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 30) slicing_op_gen))
    (fun ops ->
      let c = ref (slicing_community ~compiled:true) in
      let r = ref (slicing_community ~compiled:false) in
      let agree = ref (slicing_verdicts !c = slicing_verdicts !r) in
      let run step =
        Result.is_ok (Engine.step !c step) = Result.is_ok (Engine.step !r step)
      in
      List.iter
        (fun op ->
          let same =
            match op with
            | Step (n, i) -> run (Step.Fire (slicing_event (n, i)))
            | Doomed evs ->
                run
                  (Step.Seq
                     (List.map slicing_event evs
                     @ [ Event.make slicing_dept "fire" [ slicing_ghost ] ]))
            | Reload ->
                let reload ~compiled com =
                  let fresh = slicing_load ~compiled in
                  (match Persist.load fresh (Persist.save !com) with
                  | Ok () -> ()
                  | Error m -> Alcotest.failf "reload: %s" m);
                  com := fresh
                in
                let same = Persist.save !c = Persist.save !r in
                reload ~compiled:true c;
                reload ~compiled:false r;
                same
          in
          if not (same && slicing_verdicts !c = slicing_verdicts !r) then
            agree := false)
        ops;
      !agree && Persist.save !c = Persist.save !r)

(* ------------------------------------------------------------------ *)
(* The transaction layer (Txn): journal, savepoints, probes, stats      *)
(* ------------------------------------------------------------------ *)

let cascade_birth_spec = {|
object class CHILD
  identification id: string;
  template
    events birth make;
end object class CHILD;
object class PARENT
  identification id: string;
  template
    attributes n: integer;
    events birth init; go; crash;
    valuation
      [init] n = 0;
      [crash] n = n - 1;
    constraints
      static n >= 0;
    calling
      go >> (CHILD("c").make; crash);
end object class PARENT;
|}

let test_cascade_rollback_unwinds_births () =
  let c = load cascade_birth_spec in
  let p = ident "PARENT" "p" in
  let child = ident "CHILD" "c" in
  ignore (Engine.create c ~cls:"PARENT" ~key:(Value.String "p") ());
  (* go queues two follow-up micro-steps: CHILD("c").make, then crash;
     the constraint violation happens in the LAST micro-step, after the
     child was born in an earlier one — the whole chain must unwind,
     object table, extension and storage index included *)
  (match fire c p "go" [] with
  | Error (Runtime_error.Constraint_violated _) -> ()
  | Ok _ -> Alcotest.fail "crash should reject the whole chain"
  | Error r ->
      Alcotest.failf "wrong reason %s" (Runtime_error.reason_to_string r));
  check tbool "child object removed" true
    (Community.find_object c child = None);
  check tint "CHILD extension empty" 0
    (Ident.Set.cardinal (Community.extension c "CHILD"));
  check tbool "storage index restored" true
    (Btree.find c.Community.index (Ident.to_value child) = None);
  check tint "index holds only the parent" 1
    (Btree.cardinal c.Community.index);
  check value "parent state unchanged" (Value.Int 0) (attr c p "n")

let test_probe_bit_identical () =
  let config =
    { Community.default_config with Community.record_history = true }
  in
  let c = load ~config Paper_specs.dept in
  let alice = ident "PERSON" "alice" in
  let d = ident "DEPT" "d" in
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
  ignore
    (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
       ~args:[ Value.Date 0 ] ());
  ignore (fire c d "hire" [ Ident.to_value alice ]);
  let o = Community.object_exn c d in
  let before = Persist.save c in
  let hist_before = List.length o.Obj_state.history in
  let steps_before = o.Obj_state.steps in
  (* both an accepted and a rejected probe must leave no trace *)
  check tbool "accepted probe" true
    (Engine.enabled c (Event.make d "fire" [ Ident.to_value alice ]));
  check tbool "rejected probe" false
    (Engine.enabled c (Event.make d "hire" [ Ident.to_value alice ]));
  check Alcotest.string "dump bit-identical" before (Persist.save c);
  (* Persist does not serialise histories: check them separately *)
  check tint "history untouched" hist_before (List.length o.Obj_state.history);
  check tint "steps counter untouched" steps_before o.Obj_state.steps;
  check tbool "real step still works after probing" true
    (accepted (fire c d "fire" [ Ident.to_value alice ]))

let test_nested_savepoints_lifo () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  let o = Community.object_exn c x in
  let t = Txn.begin_ c in
  Txn.touch t o;
  Obj_state.set_attr o "n" (Value.Int 1);
  let sp1 = Txn.savepoint t in
  Txn.touch t o;
  Obj_state.set_attr o "n" (Value.Int 2);
  let sp2 = Txn.savepoint t in
  Txn.touch t o;
  Obj_state.set_attr o "n" (Value.Int 3);
  check value "innermost write applied" (Value.Int 3) (Obj_state.attr o "n");
  Txn.rollback_to t sp2;
  check value "inner savepoint unwound first" (Value.Int 2)
    (Obj_state.attr o "n");
  Txn.rollback_to t sp1;
  check value "outer savepoint unwound second" (Value.Int 1)
    (Obj_state.attr o "n");
  Txn.rollback t;
  check value "whole transaction unwound last" (Value.Int 0)
    (Obj_state.attr o "n")

exception Boom

(* The exception branch of Txn.probe: the raise must pass through with
   every speculative mutation undone, the community's journal slot
   released (a later transaction opens a fresh journal, not a leaked
   live one), and — when the probe runs nested inside an open
   transaction — the outer journal and its savepoint LIFO untouched. *)
let test_probe_exception_branch () =
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  ignore (fire c x "incr" []);
  let before = Persist.save c in
  (* top-level: mutate through the engine, then raise out of the probe *)
  (match
     Txn.probe c (fun () ->
         ignore (fire c x "incr" []);
         raise Boom)
   with
  | _ -> Alcotest.fail "expected Boom to escape the probe"
  | exception Boom -> ());
  check Alcotest.string "raising probe leaves no trace" before (Persist.save c);
  check tbool "journal slot released" true (c.Community.journal = None);
  (* nothing of the probe's journal lingers: a real step works *)
  check tbool "engine still works" true (accepted (fire c x "decr" []));
  ignore (fire c x "incr" []);
  (* nested: a raising probe between two savepoints, with a dangling
     inner scope the probe must unwind itself *)
  let o = Community.object_exn c x in
  let outer_before = Persist.save c in
  let t = Txn.begin_ c in
  Txn.touch t o;
  Obj_state.set_attr o "n" (Value.Int 1);
  let sp1 = Txn.savepoint t in
  Txn.touch t o;
  Obj_state.set_attr o "n" (Value.Int 2);
  (match
     Txn.probe c (fun () ->
         let inner = Txn.begin_ c in
         Txn.touch inner o;
         Obj_state.set_attr o "n" (Value.Int 99);
         (* neither commit nor rollback of [inner]: the probe's
            exception path owns the unwind *)
         raise Boom)
   with
  | _ -> Alcotest.fail "expected Boom to escape the nested probe"
  | exception Boom -> ());
  check value "probe mutations unwound under open txn" (Value.Int 2)
    (Obj_state.attr o "n");
  let sp2 = Txn.savepoint t in
  Txn.touch t o;
  Obj_state.set_attr o "n" (Value.Int 3);
  Txn.rollback_to t sp2;
  check value "savepoint after the probe unwinds first" (Value.Int 2)
    (Obj_state.attr o "n");
  Txn.rollback_to t sp1;
  check value "savepoint before the probe unwinds second" (Value.Int 1)
    (Obj_state.attr o "n");
  Txn.rollback t;
  check Alcotest.string "outer rollback restores the pre-txn image"
    outer_before (Persist.save c);
  check tbool "journal slot released after outer close" true
    (c.Community.journal = None)

let test_txn_stats_counters () =
  Txn.reset_stats ();
  let c = load counter_spec in
  let x = ident "COUNTER" "x" in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  ignore (fire c x "incr" []);
  check tbool "decr enabled after incr" true
    (Engine.enabled c (Event.make x "decr" []));
  ignore (fire c x "decr" []);
  (match fire c x "decr" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decr at zero should be rejected");
  let s = Trace.txn_stats () in
  check tint "one probe" 1 s.Txn.probes;
  check tbool "transactions begun" true (s.Txn.begun >= 4);
  check tbool "transactions committed" true (s.Txn.committed >= 3);
  check tbool "rollbacks (probe + rejection)" true (s.Txn.rolled_back >= 2);
  check tbool "journal entries recorded" true (s.Txn.journal_entries > 0);
  check tbool "snapshot bytes accounted" true (s.Txn.bytes_snapshotted > 0);
  check tint "stats rows" 8 (List.length (Trace.txn_stats_rows ()))

(* Journal entry counts, read off [Txn.stats] (accounted when the owning
   scope closes): snapshot dedup by the per-object stamp. *)
let journal_entries f =
  Txn.reset_stats ();
  f ();
  (Txn.stats ()).Txn.journal_entries

let counter_object () =
  let c = load counter_spec in
  ignore (Engine.create c ~cls:"COUNTER" ~key:(Value.String "x") ());
  (c, Community.object_exn c (ident "COUNTER" "x"))

let test_journal_touch_twice () =
  let c, o = counter_object () in
  check tint "one snapshot for two touches in one scope" 1
    (journal_entries (fun () ->
         Txn.probe c (fun () ->
             let t = Txn.begin_ c in
             Txn.touch t o;
             Obj_state.set_attr o "n" (Value.Int 5);
             Txn.touch t o;
             Txn.commit t)));
  check value "probe unwound" (Value.Int 0) (Obj_state.attr o "n")

let test_journal_resnapshot_after_savepoint_rollback () =
  let c, o = counter_object () in
  check tint "the touch after a savepoint rollback snapshots again" 2
    (journal_entries (fun () ->
         let t = Txn.begin_ c in
         let sp = Txn.savepoint t in
         Txn.touch t o;
         Obj_state.set_attr o "n" (Value.Int 1);
         Txn.rollback_to t sp;
         check value "savepoint unwound" (Value.Int 0) (Obj_state.attr o "n");
         Txn.touch t o;
         Obj_state.set_attr o "n" (Value.Int 2);
         Txn.rollback t));
  check value "the second snapshot restores the pre-state" (Value.Int 0)
    (Obj_state.attr o "n")

let test_journal_two_communities () =
  let c1, o1 = counter_object () in
  let c2, o2 = counter_object () in
  check tint "each community's journal dedupes its own objects" 2
    (journal_entries (fun () ->
         Txn.probe c1 (fun () ->
             let t1 = Txn.begin_ c1 in
             Txn.probe c2 (fun () ->
                 let t2 = Txn.begin_ c2 in
                 Txn.touch t1 o1;
                 Txn.touch t2 o2;
                 Obj_state.set_attr o1 "n" (Value.Int 1);
                 Obj_state.set_attr o2 "n" (Value.Int 2);
                 Txn.touch t1 o1;
                 Txn.touch t2 o2;
                 Txn.commit t2);
             Txn.touch t1 o1;
             Txn.commit t1)));
  check value "first community unwound" (Value.Int 0) (Obj_state.attr o1 "n");
  check value "second community unwound" (Value.Int 0) (Obj_state.attr o2 "n")

let test_journal_fresh_after_release () =
  let c, o = counter_object () in
  check tint "a new journal snapshots an object the last one stamped" 2
    (journal_entries (fun () ->
         let t = Txn.begin_ c in
         Txn.touch t o;
         Obj_state.set_attr o "n" (Value.Int 1);
         Txn.commit t;
         let t = Txn.begin_ c in
         Txn.touch t o;
         Obj_state.set_attr o "n" (Value.Int 2);
         Txn.rollback t));
  check value "rolled back to the committed state" (Value.Int 1)
    (Obj_state.attr o "n")

(* ------------------------------------------------------------------ *)
(* Identity hashing                                                    *)
(* ------------------------------------------------------------------ *)

(* Two lists of twelve ints that differ only in the last: [Hashtbl.hash]
   reads ten meaningful words, so their hashes are equal. *)
let twelve last =
  Value.List (List.init 12 (fun i -> Value.Int (if i = 11 then last else i)))

(* A structurally equal, physically distinct copy. *)
let copy v =
  match Value_codec.decode (Value_codec.encode v) with
  | Ok v' -> v'
  | Error m -> Alcotest.failf "codec: %s" m

let cells_spec = {|
object class CELL
  identification k: list(integer);
  template
    attributes v: integer;
    events
      birth make;
      put(integer);
    valuation
      variables x: integer;
      [make] v = 0;
      [put(x)] v = x;
end object class CELL;
|}

let test_ident_hash_collision () =
  let a = Ident.make "CELL" (twelve 0) and b = Ident.make "CELL" (twelve 1) in
  check tint "the two identities' hashes collide" (Ident.hash a)
    (Ident.hash b);
  check tbool "Ident.equal keeps them apart" false (Ident.equal a b);
  check tbool "Ident.compare keeps them apart" true (Ident.compare a b <> 0);
  let tbl = Ident.Tbl.create 4 in
  Ident.Tbl.replace tbl a "a";
  Ident.Tbl.replace tbl b "b";
  check tint "two table entries" 2 (Ident.Tbl.length tbl);
  let entry = Alcotest.(option string) in
  check entry "a's entry" (Some "a") (Ident.Tbl.find_opt tbl a);
  check entry "b's entry" (Some "b") (Ident.Tbl.find_opt tbl b);
  (* the community's object table *)
  let c = load cells_spec in
  ignore (Engine.create c ~cls:"CELL" ~key:(twelve 0) ());
  ignore (Engine.create c ~cls:"CELL" ~key:(twelve 1) ());
  ignore (fire c b "put" [ Value.Int 7 ]);
  check value "a untouched" (Value.Int 0) (attr c a "v");
  check value "b written" (Value.Int 7) (attr c b "v");
  check tint "two objects" 2 (List.length (Community.objects_sorted c));
  (* a parametric monitor table: one instance per key *)
  let ka = [ twelve 0 ] and kb = [ twelve 1 ] in
  check tint "the two bindings' hashes collide" (Hashtbl.hash ka)
    (Hashtbl.hash kb);
  let f = Monitor.compile (Formula.Sometime (Formula.Atom ())) in
  let tbl =
    Param_table.step_full f
      ~atom_eval:(fun k () -> k == ka)
      ~spawn:[ ka; kb ] ~stamp:0 Param_table.empty
  in
  let holds k =
    Option.map (Monitor.value f) (Param_table.find k tbl)
  in
  check tint "two instances" 2 (Param_table.cardinal tbl);
  check Alcotest.(option bool) "a's instance" (Some true) (holds ka);
  check Alcotest.(option bool) "b's instance" (Some false) (holds kb)

let test_ident_lookup_shares_nothing () =
  let key =
    Value.Tuple
      [ ("Name", Value.String "ada"); ("Birthdate", Value.Date 7749) ]
  in
  let c = load cells_spec in
  let k = twelve 3 in
  ignore (Engine.create c ~cls:"CELL" ~key:k ());
  let k' = copy k in
  check tbool "decoded key is a distinct copy" true
    (k' != k && Value.equal k k');
  check tbool "object found by a copied key" true
    (Community.find_object c (Ident.make "CELL" k') <> None);
  let id = Ident.make "PERSON" key and id' = Ident.make "PERSON" (copy key) in
  check tbool "equal identities, equal hashes" true
    (Ident.equal id id' && Ident.hash id = Ident.hash id');
  let tbl = Ident.Tbl.create 4 in
  Ident.Tbl.replace tbl id 1;
  check Alcotest.(option int) "table hit" (Some 1)
    (Ident.Tbl.find_opt tbl id');
  let f = Monitor.compile (Formula.Sometime (Formula.Atom ())) in
  let pk = [ Ident.to_value id ] in
  let tbl =
    Param_table.step_full f ~atom_eval:(fun _ () -> true) ~spawn:[ pk ]
      ~stamp:0 Param_table.empty
  in
  check tbool "monitor instance found by a copied key" true
    (Param_table.find (List.map copy pk) tbl <> None)

(* [Param_table] against an association-list model: random steps
   (full, sliced) and upserts over a key pool that holds colliding keys,
   tuple-keyed identities and plain ints, every key handed over as a
   fresh copy.  [find], [bindings] and [changes] must match the model,
   in [List.compare Value.compare] order. *)
let param_model_formula = Monitor.compile (Formula.Sometime (Formula.Atom ()))

let param_pool =
  Array.of_list
    (List.map (fun i -> [ twelve i ]) [ 0; 1; 2; 3 ]
    @ List.map
        (fun n ->
          [
            Value.Id
              ( "PERSON",
                Value.Tuple
                  [ ("Name", Value.String n); ("Birthdate", Value.Date 0) ] );
          ])
        [ "ada"; "bob"; "cy" ]
    @ List.map (fun i -> [ Value.Int i; Value.String "x" ]) [ 1; 2 ])

type param_op =
  | P_full of int list * int list  (** true keys, spawned keys *)
  | P_sliced of int list * int list  (** matched (= true) keys, spawned *)
  | P_upsert of (int * bool) list

let param_op_gen =
  let open QCheck.Gen in
  let key = int_range 0 (Array.length param_pool - 1) in
  let keys = list_size (int_range 0 4) key in
  frequency
    [
      (3, map2 (fun t s -> P_full (t, s)) keys keys);
      (4, map2 (fun t s -> P_sliced (t, s)) keys keys);
      ( 1,
        map
          (fun kvs -> P_upsert kvs)
          (list_size (int_range 1 3) (pair key bool)) );
    ]

let param_op_to_string = function
  | P_full (t, s) ->
      Printf.sprintf "full(true=%s spawn=%s)"
        (String.concat "," (List.map string_of_int t))
        (String.concat "," (List.map string_of_int s))
  | P_sliced (t, s) ->
      Printf.sprintf "sliced(matched=%s spawn=%s)"
        (String.concat "," (List.map string_of_int t))
        (String.concat "," (List.map string_of_int s))
  | P_upsert kvs ->
      Printf.sprintf "upsert(%s)"
        (String.concat ","
           (List.map (fun (k, b) -> Printf.sprintf "%d:%b" k b) kvs))

let key_order a b = List.compare Value.compare a b

let prop_param_table_model =
  let f = param_model_formula in
  let fresh k = List.map copy param_pool.(k) in
  let step_model truth model spawn =
    let mem k ks = List.exists (fun k' -> key_order k k' = 0) ks in
    let stepped =
      List.map
        (fun (k, s) ->
          (k, Monitor.step f ~atom_eval:(fun () -> mem k truth) (Some s)))
        model
    in
    let born =
      List.fold_left
        (fun acc k ->
          if mem k (List.map fst stepped) || mem k (List.map fst acc) then acc
          else
            (k, Monitor.step f ~atom_eval:(fun () -> mem k truth) None) :: acc)
        [] spawn
    in
    List.sort (fun (a, _) (b, _) -> key_order a b) (stepped @ born)
  in
  let bools s = Monitor.state_to_bools s in
  let same_rows a b =
    List.length a = List.length b
    && List.for_all2
         (fun (k, s) (k', s') -> key_order k k' = 0 && bools s = bools s')
         a b
  in
  QCheck.Test.make ~name:"param table: find/bindings/changes match a model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map param_op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 12) param_op_gen))
    (fun ops ->
      let tbl = ref Param_table.empty and model = ref [] and stamp = ref 0 in
      (* the table at the start of the current "transaction", whose
         changes [changes] must name *)
      let base = ref (!tbl, 0) in
      List.iter
        (fun op ->
          let prev = !tbl in
          (match op with
          | P_full (truth, spawn) ->
              let truth = List.map fresh truth
              and spawn = List.map fresh spawn in
              let atom_eval k () =
                List.exists (fun k' -> key_order k k' = 0) truth
              in
              tbl :=
                Param_table.step_full f ~atom_eval ~spawn ~stamp:!stamp !tbl;
              model := step_model truth !model spawn;
              incr stamp
          | P_sliced (matched, spawn) ->
              let matched = List.map fresh matched
              and spawn = List.map fresh spawn in
              let atom_eval k () =
                List.exists (fun k' -> key_order k k' = 0) matched
              in
              tbl :=
                Param_table.step_sliced f ~atom_eval ~matched ~spawn
                  ~stamp:!stamp !tbl;
              model := step_model matched !model spawn;
              incr stamp
          | P_upsert kvs ->
              let kvs =
                List.map
                  (fun (k, b) ->
                    ( fresh k,
                      Monitor.step f ~atom_eval:(fun () -> b) None ))
                  kvs
              in
              tbl := Param_table.upsert !tbl kvs;
              model :=
                List.sort (fun (a, _) (b, _) -> key_order a b)
                  (List.fold_left
                     (fun m (k, s) ->
                       (k, s)
                       :: List.filter (fun (k', _) -> key_order k k' <> 0) m)
                     !model kvs);
              base := (!tbl, !stamp));
          let bs = Param_table.bindings !tbl in
          if not (same_rows bs !model) then
            QCheck.Test.fail_reportf "bindings differ from the model after %s"
              (param_op_to_string op);
          Array.iteri
            (fun i _ ->
              let k = fresh i in
              let want =
                List.find_opt (fun (k', _) -> key_order k k' = 0) !model
              in
              match (Param_table.find k !tbl, want) with
              | None, None -> ()
              | Some s, Some (_, s') when bools s = bools s' -> ()
              | _ -> QCheck.Test.fail_reportf "find %d differs" i)
            param_pool;
          (* [changes] names exactly the instances that differ
             physically from [old]'s, in key order *)
          List.iter
            (fun (old, since) ->
              match Param_table.changes ~old ~stamp:since !tbl with
              | None -> ()
              | Some got ->
                  let old_rows = Param_table.bindings old in
                  let want =
                    List.filter
                      (fun (k, s) ->
                        not
                          (List.exists
                             (fun (k', s') -> key_order k k' = 0 && s == s')
                             old_rows))
                      bs
                  in
                  if
                    not
                      (List.length got = List.length want
                      && List.for_all2
                           (fun (k, s) (k', s') ->
                             key_order k k' = 0 && s == s')
                           got want)
                  then
                    QCheck.Test.fail_reportf "changes differ after %s"
                      (param_op_to_string op))
            [ !base; (prev, !stamp - 1) ])
        ops;
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kernel"
    [
      ( "life-cycle",
        [
          Alcotest.test_case "birth/death" `Quick test_lifecycle;
          Alcotest.test_case "unknown names" `Quick test_unknown_things;
          Alcotest.test_case "events on unborn" `Quick test_events_on_unborn;
        ] );
      ( "valuation",
        [
          Alcotest.test_case "effects accumulate" `Quick test_valuation_effects;
          Alcotest.test_case "simultaneous (swap)" `Quick
            test_simultaneous_valuation;
          Alcotest.test_case "write conflict rejects" `Quick
            test_valuation_conflict;
          Alcotest.test_case "guarded rules" `Quick test_guarded_valuation;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "state guard" `Quick test_state_permission;
          Alcotest.test_case "temporal, per instantiation" `Quick
            test_temporal_permission_indexed;
          Alcotest.test_case "quantified over class" `Quick
            test_quantified_permission;
          Alcotest.test_case "quantified, vacuous" `Quick
            test_quantified_vacuous;
          Alcotest.test_case "conjunction of guards" `Quick
            test_permission_conjunction;
        ] );
      ( "calling",
        [
          Alcotest.test_case "global interaction" `Quick test_global_calling;
          Alcotest.test_case "cascade" `Quick test_calling_cascade;
          Alcotest.test_case "mutual calling is sharing" `Quick
            test_calling_cycle_is_shared;
          Alcotest.test_case "transactions + rollback" `Quick
            test_transaction_calling_and_rollback;
          Alcotest.test_case "rollback restores monitors" `Quick
            test_rollback_restores_monitors;
          Alcotest.test_case "rollback removes created" `Quick
            test_rollback_removes_created;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "cascade rollback unwinds births" `Quick
            test_cascade_rollback_unwinds_births;
          Alcotest.test_case "probe leaves state bit-identical" `Quick
            test_probe_bit_identical;
          Alcotest.test_case "nested savepoints unwind LIFO" `Quick
            test_nested_savepoints_lifo;
          Alcotest.test_case "raising probe: no leak, LIFO intact" `Quick
            test_probe_exception_branch;
          Alcotest.test_case "stats counters" `Quick test_txn_stats_counters;
          Alcotest.test_case "journal: two touches, one snapshot" `Quick
            test_journal_touch_twice;
          Alcotest.test_case "journal: re-snapshot after savepoint rollback"
            `Quick test_journal_resnapshot_after_savepoint_rollback;
          Alcotest.test_case "journal: two communities, nested probes"
            `Quick test_journal_two_communities;
          Alcotest.test_case "journal: fresh after release" `Quick
            test_journal_fresh_after_release;
        ] );
      ( "identity-hashing",
        Alcotest.test_case "hash collisions kept apart" `Quick
          test_ident_hash_collision
        :: Alcotest.test_case "copied keys hit" `Quick
             test_ident_lookup_shares_nothing
        :: List.map QCheck_alcotest.to_alcotest [ prop_param_table_model ] );
      ( "constraints",
        [
          Alcotest.test_case "static" `Quick test_static_constraint;
          Alcotest.test_case "temporal" `Quick test_temporal_constraint;
        ] );
      ( "inheritance",
        [
          Alcotest.test_case "phase birth + delegation" `Quick
            test_phase_birth_and_delegation;
          Alcotest.test_case "phase constraint blocks step" `Quick
            test_phase_constraint_blocks_promotion;
          Alcotest.test_case "phase needs base" `Quick
            test_phase_direct_birth_requires_base;
          Alcotest.test_case "components" `Quick
            test_components_and_incorporation;
          Alcotest.test_case "specialization" `Quick
            test_specialization_creates_base_aspect;
          Alcotest.test_case "base death kills phases" `Quick
            test_base_death_kills_phases;
          Alcotest.test_case "phase death spares base" `Quick
            test_phase_death_spares_base;
        ] );
      ( "active",
        [ Alcotest.test_case "bounded autonomy" `Quick test_active_objects ] );
      ( "quantifiers",
        [
          Alcotest.test_case "forall over extension" `Quick
            test_forall_over_extension;
          Alcotest.test_case "exists over extension" `Quick
            test_exists_over_extension;
          Alcotest.test_case "exists by witness extraction" `Quick
            test_exists_witness_extraction;
        ] );
      ( "argument-validation",
        [
          Alcotest.test_case "arity and types at the API" `Quick
            test_runtime_arg_validation;
        ] );
      ( "closure-bound",
        [
          Alcotest.test_case "runaway calling rejected" `Quick
            test_runaway_closure_rejected;
        ] );
      ( "enabledness",
        [ Alcotest.test_case "enabled_events" `Quick test_enabled_events ] );
      ( "event-sharing",
        [
          Alcotest.test_case "shared step, one object" `Quick
            test_fire_sync_shared_step;
          Alcotest.test_case "atomicity across objects" `Quick
            test_fire_sync_two_objects;
        ] );
      ( "naive-vs-monitor",
        Alcotest.test_case "hand case" `Quick test_naive_equals_monitor
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_naive_equals_monitor_random ] );
      ( "parametric-slicing",
        Alcotest.test_case "slicing condition" `Quick test_slicing_condition
        :: List.map QCheck_alcotest.to_alcotest [ prop_sliced_equals_full_walk ]
      );
    ]
