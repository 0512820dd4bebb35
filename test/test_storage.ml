(** Access methods (the §5.2 "B-tree or hash table" remark), the value
    codec, and object-base persistence. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let value = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* B-tree                                                              *)
(* ------------------------------------------------------------------ *)

let vi i = Value.Int i

let test_btree_basics () =
  let t = Btree.of_list (List.init 100 (fun i -> (vi i, i * 10))) in
  check tint "cardinal" 100 (Btree.cardinal t);
  check (Alcotest.option tint) "find hit" (Some 420) (Btree.find t (vi 42));
  check (Alcotest.option tint) "find miss" None (Btree.find t (vi 1000));
  check tbool "mem" true (Btree.mem t (vi 0));
  let t = Btree.add t (vi 42) 0 in
  check (Alcotest.option tint) "replace" (Some 0) (Btree.find t (vi 42));
  check tint "replace keeps cardinal" 100 (Btree.cardinal t);
  let t = Btree.remove t (vi 42) in
  check (Alcotest.option tint) "removed" None (Btree.find t (vi 42));
  check tint "cardinal after removal" 99 (Btree.cardinal t)

let test_btree_ordered_traversal () =
  let t = Btree.of_list (List.rev_map (fun i -> (vi i, ())) (List.init 50 Fun.id)) in
  let keys = List.map fst (Btree.bindings t) in
  check (Alcotest.list value) "sorted" (List.init 50 vi) keys

let test_btree_range () =
  let t = Btree.of_list (List.init 100 (fun i -> (vi i, ()))) in
  let r = Btree.range t ~lo:(vi 10) ~hi:(vi 19) in
  check tint "range size" 10 (List.length r);
  check value "range start" (vi 10) (fst (List.hd r))

let test_btree_empty () =
  check tbool "empty" true (Btree.is_empty Btree.empty);
  check tint "empty cardinal" 0 (Btree.cardinal Btree.empty);
  check (Alcotest.option tint) "find in empty" None
    (Btree.find Btree.empty (vi 1));
  (* removing from empty is a no-op *)
  check tbool "remove noop" true (Btree.is_empty (Btree.remove Btree.empty (vi 1)))

let test_btree_invariants_large () =
  let t = ref Btree.empty in
  for i = 0 to 999 do
    t := Btree.add !t (vi ((i * 37) mod 1000)) i
  done;
  ignore (Btree.check_invariants !t);
  for i = 0 to 499 do
    t := Btree.remove !t (vi ((i * 53) mod 1000))
  done;
  ignore (Btree.check_invariants !t)

let test_btree_persistence () =
  (* functional updates share: the old tree is unaffected *)
  let t1 = Btree.of_list (List.init 10 (fun i -> (vi i, i))) in
  let t2 = Btree.add t1 (vi 100) 100 in
  check tbool "old tree unchanged" false (Btree.mem t1 (vi 100));
  check tbool "new tree has it" true (Btree.mem t2 (vi 100))

(* model-based property: a B-tree driven by random add/remove agrees
   with a Map, and its invariants hold *)
let prop_btree_model =
  QCheck.Test.make ~name:"btree ≡ Map under random add/remove" ~count:200
    (QCheck.make
       ~print:(fun ops -> string_of_int (List.length ops))
       QCheck.Gen.(
         list_size (int_range 0 400) (pair bool (int_range 0 60))))
    (fun ops ->
      let module M = Map.Make (struct
        type t = Value.t

        let compare = Value.compare
      end) in
      let bt = ref Btree.empty and m = ref M.empty in
      List.for_all
        (fun (is_add, k) ->
          let key = vi k in
          if is_add then begin
            bt := Btree.add !bt key k;
            m := M.add key k !m
          end
          else begin
            bt := Btree.remove !bt key;
            m := M.remove key !m
          end;
          ignore (Btree.check_invariants !bt);
          Btree.cardinal !bt = M.cardinal !m
          && M.for_all (fun k v -> Btree.find !bt k = Some v) !m)
        ops)

(* ------------------------------------------------------------------ *)
(* Hash index                                                          *)
(* ------------------------------------------------------------------ *)

let test_hash_index () =
  let h = Hash_index.of_list (List.init 50 (fun i -> (vi i, i))) in
  check tint "cardinal" 50 (Hash_index.cardinal h);
  check (Alcotest.option tint) "find" (Some 7) (Hash_index.find h (vi 7));
  Hash_index.remove h (vi 7);
  check (Alcotest.option tint) "removed" None (Hash_index.find h (vi 7));
  Hash_index.add h (vi 7) 70;
  check (Alcotest.option tint) "re-added" (Some 70) (Hash_index.find h (vi 7));
  let keys = List.map fst (Hash_index.bindings h) in
  check (Alcotest.list value) "bindings sorted" (List.init 50 vi) keys

(* hash index with structured keys: canonical values hash consistently *)
let test_hash_structured_keys () =
  let h = Hash_index.create () in
  let k1 = Value.set [ vi 1; vi 2 ] in
  let k2 = Value.set [ vi 2; vi 1; vi 1 ] in
  Hash_index.add h k1 "x";
  check (Alcotest.option Alcotest.string)
    "canonicalised keys are the same key" (Some "x") (Hash_index.find h k2)

(* ------------------------------------------------------------------ *)
(* Value codec                                                         *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip v =
  match Value_codec.decode (Value_codec.encode v) with
  | Ok v' -> Value.equal v v'
  | Error _ -> false

let test_codec_cases () =
  List.iter
    (fun v -> check tbool (Value.to_string v) true (codec_roundtrip v))
    [
      Value.Bool true;
      Value.Int (-42);
      Value.String "";
      Value.String "with|pipes\nand newlines:1:";
      Value.Date 7749;
      Value.Money (-307);
      Value.Enum ("Genre", "science");
      Value.Id ("PERSON", Value.Tuple [ ("Name", Value.String "a") ]);
      Value.set [ Value.Int 1; Value.Int 2 ];
      Value.List [ Value.Undefined; Value.Bool false ];
      Value.map [ (Value.Int 1, Value.String "x") ];
      Value.Tuple [ ("a", Value.Int 1); ("b", Value.Set []) ];
      Value.Undefined;
    ]

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      match Value_codec.decode s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "decoded garbage %S as %s" s (Value.to_string v))
    [ ""; "X"; "I12"; "S5:ab"; "*2[I1;]"; "B2"; "I1;I2;" ]

let arbitrary_value =
  let open QCheck.Gen in
  let base =
    oneof
      [ map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-10000) 10000);
        map (fun s -> Value.String s) (string_size ~gen:printable (int_range 0 12));
        map (fun d -> Value.Date d) (int_range (-10000) 40000);
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
           map2 (fun k v -> Value.map [ (k, v) ]) (gen (n - 1)) (gen (n - 1)));
          (1,
           map2
             (fun a b -> Value.Tuple [ ("x", a); ("y", b) ])
             (gen (n - 1)) (gen (n - 1)));
          (1, map (fun k -> Value.Id ("C", k)) (gen (n - 1))) ]
  in
  QCheck.make ~print:Value.to_string (gen 3)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: decode ∘ encode = id" ~count:500
    arbitrary_value codec_roundtrip

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let load_spec src =
  match Compile.load src with
  | Ok (c, _) -> c
  | Error e -> Alcotest.failf "load failed: %s" e

let test_persist_roundtrip () =
  (* build some state in the DEPT world *)
  let c = load_spec Paper_specs.dept in
  let alice = Ident.make "PERSON" (Value.String "alice") in
  let bob = Ident.make "PERSON" (Value.String "bob") in
  let d = Ident.make "DEPT" (Value.String "d") in
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "bob") ());
  ignore
    (Engine.create c ~cls:"DEPT" ~key:(Value.String "d") ~args:[ Value.Date 7749 ] ());
  ignore (Engine.fire c (Event.make d "hire" [ Ident.to_value alice ]));
  let dump = Persist.save c in
  (* restore into a fresh community from the same spec *)
  let c2 = load_spec Paper_specs.dept in
  (match Persist.load c2 dump with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" e);
  (* attributes restored *)
  let o = Community.object_exn c2 d in
  check value "est_date" (Value.Date 7749) (Eval.read_attr c2 o "est_date" []);
  check value "employees"
    (Value.set [ Ident.to_value alice ])
    (Eval.read_attr c2 o "employees" []);
  (* extensions restored *)
  check tint "person extension" 2
    (Ident.Set.cardinal (Community.extension c2 "PERSON"));
  (* and, crucially, monitor states: alice is fireable, bob is not *)
  check tbool "alice fireable after reload" true
    (match Engine.fire c2 (Event.make d "fire" [ Ident.to_value alice ]) with
    | Ok _ -> true
    | Error _ -> false);
  check tbool "bob still not fireable" true
    (match Engine.fire c2 (Event.make d "fire" [ Ident.to_value bob ]) with
    | Error (Runtime_error.Permission_denied _) -> true
    | _ -> false)

let test_persist_dead_objects () =
  let c = load_spec Paper_specs.dept in
  ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "p") ());
  let p = Ident.make "PERSON" (Value.String "p") in
  ignore (Engine.destroy c ~id:p ());
  let c2 = load_spec Paper_specs.dept in
  (match Persist.load c2 (Persist.save c) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" e);
  (* dead stays dead: no rebirth *)
  match Engine.create c2 ~cls:"PERSON" ~key:(Value.String "p") () with
  | Error (Runtime_error.Already_alive _) -> ()
  | _ -> Alcotest.fail "dead object forgot its death"

let test_persist_rejects_garbage () =
  let c = load_spec Paper_specs.dept in
  (match Persist.load c "not a dump" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted garbage");
  match Persist.load c "troll-state 1\nattr|x|I1;" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted attr outside object"

(* The dump bytes, pinned.  The round-trip tests compare two outputs of
   the same code, so a drift in the format would pass them; this one
   compares [save] with a text written down once.  LOCKER makes every
   record kind appear: [object], [attr], a closed permission monitor
   ([perm|0|closed]), an indexed one ([perm|1|indexed] with its [inst]
   lines, listed in encoded-key order rather than value order) and a
   temporal constraint ([constr]); the dead object keeps an empty
   instance table. *)
let locker_spec = {|object class LOCKER
  identification lid: string;
  template
    attributes
      n: integer;
      tags: set(string);
    events
      birth mk;
      death gone;
      bump;
      seal;
      tag(string);
      untag(string);
    valuation
      variables s: string;
      [mk] n = 0;
      [mk] tags = {};
      [bump] n = n + 1;
      [tag(s)] tags = insert(s, tags);
      [untag(s)] tags = remove(s, tags);
    permissions
      variables s: string;
      { sometime(after(bump)) } seal;
      { sometime(after(tag(s))) } untag(s);
    constraints
      sometime(n >= 1) or n = 0;
end object class LOCKER;
|}

let locker_dump = {|troll-state 1
object|LOCKER|S1:a|true|false|2
attr|lid|S1:a
attr|n|I0;
attr|tags|*1[S4:only]
perm|0|closed|00
perm|1|indexed|1
inst|L1[S4:only]|11
constr|0|0011
object|LOCKER|S1:b|true|false|6
attr|lid|S1:b
attr|n|I1;
attr|tags|*2[S5:alphaS3:mid]
perm|0|closed|01
perm|1|indexed|3
inst|L1[S3:mid]|01
inst|L1[S4:zeta]|01
inst|L1[S5:alpha]|01
constr|0|1101
object|LOCKER|S4:gone|false|true|2
attr|lid|S4:gone
attr|n|I0;
attr|tags|*0[]
perm|0|closed|00
perm|1|indexed|0
constr|0|0011
|}

let test_persist_golden_dump () =
  let c = load_spec locker_spec in
  let locker k = Ident.make "LOCKER" (Value.String k) in
  let step what r =
    match r with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "%s: %s" what (Runtime_error.reason_to_string e)
  in
  let fire k ev args =
    step ev (Engine.step c (Step.Fire (Event.make (locker k) ev args)))
  in
  let create k = step "mk" (Engine.create c ~cls:"LOCKER" ~key:(Value.String k) ()) in
  create "b";
  fire "b" "bump" [];
  List.iter (fun t -> fire "b" "tag" [ Value.String t ]) [ "zeta"; "alpha"; "mid" ];
  fire "b" "untag" [ Value.String "zeta" ];
  create "a";
  fire "a" "tag" [ Value.String "only" ];
  create "gone";
  step "gone" (Engine.destroy c ~id:(locker "gone") ());
  check Alcotest.string "dump bytes" locker_dump (Persist.save c);
  let c2 = load_spec locker_spec in
  (match Persist.load c2 locker_dump with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load: %s" e);
  check Alcotest.string "reloaded dump bytes" locker_dump (Persist.save c2)

(* behavioural equivalence after save/load under random walks *)
let prop_persist_preserves_decisions =
  QCheck.Test.make
    ~name:"persist: reloaded community makes identical decisions" ~count:40
    (QCheck.make
       ~print:(fun l -> String.concat "" (List.map string_of_int l))
       QCheck.Gen.(list_size (int_range 1 15) (int_range 0 2)))
    (fun actions ->
      let c = load_spec Paper_specs.dept in
      let alice = Ident.make "PERSON" (Value.String "alice") in
      let d = Ident.make "DEPT" (Value.String "d") in
      ignore (Engine.create c ~cls:"PERSON" ~key:(Value.String "alice") ());
      ignore
        (Engine.create c ~cls:"DEPT" ~key:(Value.String "d")
           ~args:[ Value.Date 0 ] ());
      (* random warm-up *)
      List.iter
        (fun a ->
          let ev =
            match a with
            | 0 -> Event.make d "hire" [ Ident.to_value alice ]
            | 1 -> Event.make d "fire" [ Ident.to_value alice ]
            | _ -> Event.make d "new_manager" [ Ident.to_value alice ]
          in
          match Engine.fire c ev with Ok _ | Error _ -> ())
        actions;
      (* snapshot, reload, compare decisions on all probe events *)
      let c2 = load_spec Paper_specs.dept in
      match Persist.load c2 (Persist.save c) with
      | Error _ -> false
      | Ok () ->
          let probes =
            [ Event.make d "hire" [ Ident.to_value alice ];
              Event.make d "fire" [ Ident.to_value alice ];
              Event.make d "closure" [] ]
          in
          List.for_all
            (fun ev ->
              let r1 =
                match Engine.fire (Community.clone c) ev with
                | Ok _ -> true
                | Error _ -> false
              in
              let r2 =
                match Engine.fire (Community.clone c2) ev with
                | Ok _ -> true
                | Error _ -> false
              in
              r1 = r2)
            probes)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "storage"
    [
      ( "btree",
        [
          Alcotest.test_case "basics" `Quick test_btree_basics;
          Alcotest.test_case "ordered traversal" `Quick
            test_btree_ordered_traversal;
          Alcotest.test_case "range query" `Quick test_btree_range;
          Alcotest.test_case "empty tree" `Quick test_btree_empty;
          Alcotest.test_case "invariants at scale" `Quick
            test_btree_invariants_large;
          Alcotest.test_case "functional persistence" `Quick
            test_btree_persistence;
        ] );
      ("btree-properties", [ QCheck_alcotest.to_alcotest prop_btree_model ]);
      ( "hash-index",
        [
          Alcotest.test_case "basics" `Quick test_hash_index;
          Alcotest.test_case "structured keys" `Quick
            test_hash_structured_keys;
        ] );
      ( "codec",
        [
          Alcotest.test_case "cases" `Quick test_codec_cases;
          Alcotest.test_case "garbage rejected" `Quick
            test_codec_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ( "persist",
        [
          Alcotest.test_case "round-trip with monitors" `Quick
            test_persist_roundtrip;
          Alcotest.test_case "death survives reload" `Quick
            test_persist_dead_objects;
          Alcotest.test_case "garbage rejected" `Quick
            test_persist_rejects_garbage;
          Alcotest.test_case "dump bytes pinned" `Quick
            test_persist_golden_dump;
          QCheck_alcotest.to_alcotest prop_persist_preserves_decisions;
        ] );
    ]
