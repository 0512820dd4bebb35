(** Stepwise refinement (§5.2): obligation generation, candidate
    synthesis, and the bounded lock-step simulation on correct and
    deliberately broken implementations. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let load src =
  match Troll.Session.load src with
  | Ok s -> Troll.Session.community s
  | Error e -> Alcotest.failf "load failed: %s" (Troll.Error.to_string e)

let key name =
  Value.Tuple [ ("EmpName", Value.String name); ("EmpBirth", Value.Date 0) ]

let employee_pair () =
  let abs = load Paper_specs.employee_abstract in
  let conc = load Paper_specs.employee_implementation in
  (match Engine.create abs ~cls:"EMPLOYEE" ~key:(key "eve") () with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "abs create: %s" (Runtime_error.reason_to_string r));
  (match Engine.create conc ~cls:"EMPL_IMPL" ~key:(key "eve") () with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "conc create: %s" (Runtime_error.reason_to_string r));
  ( { Refinement.community = abs; id = Ident.make "EMPLOYEE" (key "eve") },
    { Refinement.community = conc; id = Ident.make "EMPL_IMPL" (key "eve") } )

let impl = Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPL_IMPL" ()

let alphabet =
  [
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 100 ] };
    { Refinement.ev_name = "FireEmployee"; ev_args = [] };
  ]

(* ------------------------------------------------------------------ *)
(* Implementation mapping                                              *)
(* ------------------------------------------------------------------ *)

let test_mapping_defaults () =
  check Alcotest.string "unmapped event keeps name" "IncreaseSalary"
    (Implementation.map_event impl "IncreaseSalary");
  let renamed =
    Implementation.make ~abs_class:"A" ~conc_class:"B"
      ~event_map:[ ("raise", "bump") ]
      ~attr_map:[ ("Salary", "Pay") ]
      ()
  in
  check Alcotest.string "mapped event" "bump"
    (Implementation.map_event renamed "raise");
  check Alcotest.string "mapped attr" "Pay"
    (Implementation.map_attr renamed "Salary")

let test_observed_attrs () =
  let abs = load Paper_specs.employee_abstract in
  let tpl = Community.template_exn abs "EMPLOYEE" in
  let obs = Implementation.observed_attrs impl tpl in
  check tbool "Salary observed" true (List.mem_assoc "Salary" obs);
  let hiding =
    Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPL_IMPL"
      ~hidden:[ "Salary" ] ()
  in
  check tbool "hidden attr dropped" false
    (List.mem_assoc "Salary" (Implementation.observed_attrs hiding tpl))

(* ------------------------------------------------------------------ *)
(* Obligations                                                         *)
(* ------------------------------------------------------------------ *)

let test_obligations_generated () =
  let abs = load Paper_specs.employee_abstract in
  let conc = load Paper_specs.employee_implementation in
  let obs =
    Obligation.generate impl
      ~abs_tpl:(Community.template_exn abs "EMPLOYEE")
      ~conc_tpl:(Community.template_exn conc "EMPL_IMPL")
  in
  (* 3 events × (enabled + effect) = 6, no permissions on the abstract
     side, no missing counterparts *)
  check tint "six obligations" 6 (List.length obs);
  check tbool "all unchecked initially" true
    (List.for_all (fun ob -> ob.Obligation.ob_status = Obligation.Unchecked) obs)

let test_obligations_missing_counterpart () =
  let abs = load Paper_specs.employee_abstract in
  let obs =
    Obligation.generate
      (Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPLOYEE"
         ~event_map:[ ("IncreaseSalary", "Nonexistent") ]
         ())
      ~abs_tpl:(Community.template_exn abs "EMPLOYEE")
      ~conc_tpl:(Community.template_exn abs "EMPLOYEE")
  in
  check tbool "missing counterpart reported" true
    (List.exists
       (fun ob -> ob.Obligation.ob_kind = Obligation.Birth_death)
       obs)

(* ------------------------------------------------------------------ *)
(* Candidate synthesis                                                 *)
(* ------------------------------------------------------------------ *)

let test_candidates () =
  let abs = load Paper_specs.employee_abstract in
  let tpl = Community.template_exn abs "EMPLOYEE" in
  let cands = Refinement.candidates tpl in
  (* no birth events among candidates *)
  check tbool "no birth" true
    (List.for_all
       (fun (c : Refinement.candidate) -> c.Refinement.ev_name <> "HireEmployee")
       cands);
  check tbool "death present" true
    (List.exists
       (fun (c : Refinement.candidate) -> c.Refinement.ev_name = "FireEmployee")
       cands);
  (* parameterized events got argument combinations *)
  check tbool "increase has args" true
    (List.exists
       (fun (c : Refinement.candidate) ->
         c.Refinement.ev_name = "IncreaseSalary" && c.Refinement.ev_args <> [])
       cands)

let test_default_pool () =
  check tint "bool pool" 2 (List.length (Refinement.default_pool Vtype.Bool));
  check tbool "enum pool covers constants" true
    (List.length (Refinement.default_pool (Vtype.Enum ("G", [ "a"; "b"; "c" ]))) = 3);
  check tbool "tuple pool nonempty" true
    (Refinement.default_pool
       (Vtype.Tuple [ ("a", Vtype.Int); ("b", Vtype.Bool) ])
    <> [])

(* ------------------------------------------------------------------ *)
(* The §5.2 refinement                                                 *)
(* ------------------------------------------------------------------ *)

let test_employee_refines () =
  let abs, conc = employee_pair () in
  let report = Refinement.check ~impl ~abs ~conc ~alphabet ~depth:3 () in
  (match report.Refinement.verdict with
  | Ok () -> ()
  | Error cx ->
      Alcotest.failf "refinement failed: %s"
        (Format.asprintf "%a" Refinement.pp_counterexample cx));
  check tbool "cases explored" true (report.Refinement.cases > 0);
  (* exercised obligations were marked *)
  check tbool "some obligations exercised" true
    (List.exists
       (fun ob ->
         match ob.Obligation.ob_status with
         | Obligation.Exercised _ -> true
         | _ -> false)
       report.Refinement.obligations)

let test_exploration_grows_with_depth () =
  let r1 =
    let abs, conc = employee_pair () in
    Refinement.check ~impl ~abs ~conc ~alphabet ~depth:2 ()
  in
  let r2 =
    let abs, conc = employee_pair () in
    Refinement.check ~impl ~abs ~conc ~alphabet ~depth:4 ()
  in
  check tbool "deeper explores more" true
    (r2.Refinement.cases > r1.Refinement.cases)

let broken_effect = {|
object class EMPLOYEE_BAD
  identification EmpName: string; EmpBirth: date;
  template
    attributes Salary: integer;
    events
      birth HireEmployee;
      death FireEmployee;
      IncreaseSalary(integer);
    valuation
      variables n: integer;
      [HireEmployee] Salary = 0;
      [IncreaseSalary(n)] Salary = Salary + n + n;
end object class EMPLOYEE_BAD;
|}

let test_broken_effect_detected () =
  let abs = load Paper_specs.employee_abstract in
  let conc = load broken_effect in
  ignore (Engine.create abs ~cls:"EMPLOYEE" ~key:(key "eve") ());
  ignore (Engine.create conc ~cls:"EMPLOYEE_BAD" ~key:(key "eve") ());
  let report =
    Refinement.check
      ~impl:(Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPLOYEE_BAD" ())
      ~abs:{ Refinement.community = abs; id = Ident.make "EMPLOYEE" (key "eve") }
      ~conc:{ Refinement.community = conc; id = Ident.make "EMPLOYEE_BAD" (key "eve") }
      ~alphabet ~depth:2 ()
  in
  match report.Refinement.verdict with
  | Error cx ->
      check tbool "observation mismatch named" true
        (String.length cx.Refinement.reason > 0);
      check tbool "violated obligation recorded" true
        (List.exists
           (fun ob ->
             match ob.Obligation.ob_status with
             | Obligation.Violated _ -> true
             | _ -> false)
           report.Refinement.obligations)
  | Ok () -> Alcotest.fail "broken effect not detected"

let too_strict = {|
object class EMPLOYEE_STRICT
  identification EmpName: string; EmpBirth: date;
  template
    attributes Salary: integer;
    events
      birth HireEmployee;
      death FireEmployee;
      IncreaseSalary(integer);
    valuation
      variables n: integer;
      [HireEmployee] Salary = 0;
      [IncreaseSalary(n)] Salary = Salary + n;
    permissions
      variables n: integer;
      { Salary > 0 } IncreaseSalary(n);
end object class EMPLOYEE_STRICT;
|}

let test_too_strict_detected () =
  (* implementation rejects an event the specification allows *)
  let abs = load Paper_specs.employee_abstract in
  let conc = load too_strict in
  ignore (Engine.create abs ~cls:"EMPLOYEE" ~key:(key "eve") ());
  ignore (Engine.create conc ~cls:"EMPLOYEE_STRICT" ~key:(key "eve") ());
  let report =
    Refinement.check
      ~impl:
        (Implementation.make ~abs_class:"EMPLOYEE"
           ~conc_class:"EMPLOYEE_STRICT" ())
      ~abs:{ Refinement.community = abs; id = Ident.make "EMPLOYEE" (key "eve") }
      ~conc:
        { Refinement.community = conc;
          id = Ident.make "EMPLOYEE_STRICT" (key "eve") }
      ~alphabet ~depth:2 ()
  in
  match report.Refinement.verdict with
  | Error cx ->
      check tbool "enabledness mismatch" true
        (String.length cx.Refinement.reason > 0)
  | Ok () -> Alcotest.fail "over-strict implementation not detected"

let too_permissive = {|
object class EMPLOYEE_LOOSE
  identification EmpName: string; EmpBirth: date;
  template
    attributes Salary: integer;
    events
      birth HireEmployee;
      death FireEmployee;
      IncreaseSalary(integer);
    valuation
      variables n: integer;
      [HireEmployee] Salary = 0;
      [IncreaseSalary(n)] Salary = Salary + n;
end object class EMPLOYEE_LOOSE;
|}

let abs_with_permission = {|
object class EMPLOYEE
  identification EmpName: string; EmpBirth: date;
  template
    attributes Salary: integer;
    events
      birth HireEmployee;
      death FireEmployee;
      IncreaseSalary(integer);
    valuation
      variables n: integer;
      [HireEmployee] Salary = 0;
      [IncreaseSalary(n)] Salary = Salary + n;
    permissions
      variables n: integer;
      { Salary < 200 } IncreaseSalary(n);
end object class EMPLOYEE;
|}

let test_too_permissive_detected () =
  (* the spec forbids raises beyond a bound; the implementation ignores
     the permission — the property-preservation direction catches it *)
  let abs = load abs_with_permission in
  let conc = load too_permissive in
  ignore (Engine.create abs ~cls:"EMPLOYEE" ~key:(key "eve") ());
  ignore (Engine.create conc ~cls:"EMPLOYEE_LOOSE" ~key:(key "eve") ());
  let report =
    Refinement.check
      ~impl:
        (Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPLOYEE_LOOSE"
           ())
      ~abs:{ Refinement.community = abs; id = Ident.make "EMPLOYEE" (key "eve") }
      ~conc:
        { Refinement.community = conc;
          id = Ident.make "EMPLOYEE_LOOSE" (key "eve") }
      ~alphabet ~depth:4 ()
  in
  match report.Refinement.verdict with
  | Error _ ->
      check tbool "permission-preservation obligation violated" true
        (List.exists
           (fun ob ->
             ob.Obligation.ob_kind = Obligation.Permission_preserved
             &&
             match ob.Obligation.ob_status with
             | Obligation.Violated _ -> true
             | _ -> false)
           report.Refinement.obligations)
  | Ok () -> Alcotest.fail "over-permissive implementation not detected"

let missing_death_effect = {|
object class EMPLOYEE_UNDEAD
  identification EmpName: string; EmpBirth: date;
  template
    attributes Salary: integer;
    events
      birth HireEmployee;
      FireEmployee;
      IncreaseSalary(integer);
    valuation
      variables n: integer;
      [HireEmployee] Salary = 0;
      [IncreaseSalary(n)] Salary = Salary + n;
end object class EMPLOYEE_UNDEAD;
|}

let test_lifecycle_divergence_detected () =
  (* concrete FireEmployee is not a death event: life cycles diverge *)
  let abs = load Paper_specs.employee_abstract in
  let conc = load missing_death_effect in
  ignore (Engine.create abs ~cls:"EMPLOYEE" ~key:(key "eve") ());
  ignore (Engine.create conc ~cls:"EMPLOYEE_UNDEAD" ~key:(key "eve") ());
  let report =
    Refinement.check
      ~impl:
        (Implementation.make ~abs_class:"EMPLOYEE"
           ~conc_class:"EMPLOYEE_UNDEAD" ())
      ~abs:{ Refinement.community = abs; id = Ident.make "EMPLOYEE" (key "eve") }
      ~conc:
        { Refinement.community = conc;
          id = Ident.make "EMPLOYEE_UNDEAD" (key "eve") }
      ~alphabet ~depth:2 ()
  in
  match report.Refinement.verdict with
  | Error cx ->
      check tbool "life-cycle divergence named" true
        (String.length cx.Refinement.reason > 0)
  | Ok () -> Alcotest.fail "life-cycle divergence not detected"

(* ------------------------------------------------------------------ *)
(* Certificates, memoization, and the independent validator            *)
(* ------------------------------------------------------------------ *)

(* every example spec pair in this file, correct and broken alike *)
let spec_pairs =
  [
    ( "employee",
      Paper_specs.employee_abstract, "EMPLOYEE",
      Paper_specs.employee_implementation, "EMPL_IMPL" );
    ("broken-effect", Paper_specs.employee_abstract, "EMPLOYEE",
     broken_effect, "EMPLOYEE_BAD");
    ("too-strict", Paper_specs.employee_abstract, "EMPLOYEE",
     too_strict, "EMPLOYEE_STRICT");
    ("too-permissive", abs_with_permission, "EMPLOYEE",
     too_permissive, "EMPLOYEE_LOOSE");
    ("undead", Paper_specs.employee_abstract, "EMPLOYEE",
     missing_death_effect, "EMPLOYEE_UNDEAD");
  ]

let run_pair ?record (_, abs_src, abs_cls, conc_src, conc_cls) ~depth =
  let abs = load abs_src and conc = load conc_src in
  ignore (Engine.create abs ~cls:abs_cls ~key:(key "eve") ());
  ignore (Engine.create conc ~cls:conc_cls ~key:(key "eve") ());
  Refinement.check ?record
    ~impl:(Implementation.make ~abs_class:abs_cls ~conc_class:conc_cls ())
    ~abs:{ Refinement.community = abs; id = Ident.make abs_cls (key "eve") }
    ~conc:{ Refinement.community = conc; id = Ident.make conc_cls (key "eve") }
    ~alphabet ~depth ()

let make_builder ~depth (_, abs_src, abs_cls, conc_src, conc_cls) =
  Certificate.builder ~abs_src ~conc_src
    ~impl:(Implementation.make ~abs_class:abs_cls ~conc_class:conc_cls ())
    ~abs_key:(key "eve") ~conc_key:(key "eve")
    ~alphabet:
      (List.map
         (fun (c : Refinement.candidate) ->
           (c.Refinement.ev_name, c.Refinement.ev_args))
         alphabet)
    ~depth ()

let employee = List.hd spec_pairs

let employee_cert ~depth =
  let b = make_builder ~depth employee in
  let report = run_pair ~record:b employee ~depth in
  (match report.Refinement.verdict with
  | Ok () -> ()
  | Error cx ->
      Alcotest.failf "employee refinement failed: %s"
        (Format.asprintf "%a" Refinement.pp_counterexample cx));
  Certificate.finish b

let test_cert_roundtrip () =
  let enc = Certificate.encode (employee_cert ~depth:3) in
  match Certificate.decode enc with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok cert' ->
      check tbool "emit . decode . emit is the identity" true
        (String.equal (Certificate.encode cert') enc)

let test_recorded_report_identical () =
  (* recording must not change the verdict: on every example pair the
     reports render bit-identically with and without a builder *)
  List.iter
    (fun pair ->
      let name, _, _, _, _ = pair in
      let plain = run_pair pair ~depth:3 in
      let recorded = run_pair ~record:(make_builder ~depth:3 pair) pair ~depth:3 in
      check Alcotest.string
        (Printf.sprintf "%s: recorded report equals plain" name)
        (Format.asprintf "%a" Refinement.pp_report plain)
        (Format.asprintf "%a" Refinement.pp_report recorded))
    spec_pairs

let with_memo_dir k =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "troll_memo_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> k dir)

let test_memo_warm_recheck () =
  with_memo_dir @@ fun dir ->
  let cold_b = make_builder ~depth:3 employee in
  let cold = run_pair ~record:cold_b employee ~depth:3 in
  (match Certificate.save_memo cold_b ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save_memo: %s" e);
  let warm_b = make_builder ~depth:3 employee in
  (match Certificate.load_memo warm_b ~dir with
  | Ok n -> check tbool "memo pairs loaded" true (n > 0)
  | Error e -> Alcotest.failf "load_memo: %s" e);
  let warm = run_pair ~record:warm_b employee ~depth:3 in
  check tbool "warm verdict holds" true (warm.Refinement.verdict = Ok ());
  check tbool "warm re-check examines fewer cases" true
    (warm.Refinement.cases < cold.Refinement.cases);
  check Alcotest.string "warm certificate bit-identical"
    (Certificate.encode (Certificate.finish cold_b))
    (Certificate.encode (Certificate.finish warm_b));
  (* a deeper warm re-check extends the table and still validates *)
  let deep_b = make_builder ~depth:5 employee in
  (match Certificate.load_memo deep_b ~dir with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load_memo (deep): %s" e);
  ignore (run_pair ~record:deep_b employee ~depth:5);
  match Validator.validate (Certificate.finish deep_b) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deep warm certificate rejected: %s" e

let test_validator_accepts () =
  match Validator.validate (employee_cert ~depth:3) with
  | Ok st ->
      check tbool "edges replayed" true (st.Validator.v_edges > 0);
      check tbool "nodes visited" true (st.Validator.v_nodes > 0)
  | Error e -> Alcotest.failf "genuine certificate rejected: %s" e

let test_validator_accepts_failing_cert () =
  (* an honest certificate of a *failed* check also validates *)
  let pair = List.nth spec_pairs 1 in
  let b = make_builder ~depth:2 pair in
  let report = run_pair ~record:b pair ~depth:2 in
  check tbool "broken pair fails" true (report.Refinement.verdict <> Ok ());
  match Validator.validate (Certificate.finish b) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest failing certificate rejected: %s" e

let expect_reject what cert =
  match Validator.validate cert with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "validator accepted a certificate with %s" what

let test_tamper_flipped_verdict () =
  let cert = employee_cert ~depth:3 in
  match cert.Certificate.edges with
  | [] -> Alcotest.fail "certificate has no edges"
  | e :: rest ->
      let verdict =
        match e.Certificate.e_verdict with
        | Certificate.E_ok _ -> Certificate.E_stuck
        | _ -> Certificate.E_ok e.Certificate.e_pre
      in
      let e' =
        {
          e with
          Certificate.e_verdict = verdict;
          e_oblig = Certificate.oblig_of_verdict e.Certificate.e_event verdict;
        }
      in
      expect_reject "a flipped verdict"
        { cert with Certificate.edges = e' :: rest }

let test_tamper_corrupted_digest () =
  (* rewrite one digest consistently everywhere, so only replay can
     tell: the structure is intact but the state is not the claimed one *)
  let cert = employee_cert ~depth:3 in
  let target = cert.Certificate.root.Certificate.p_abs in
  let fake =
    String.map
      (fun c -> if c = target.[0] then (if c = 'f' then '0' else 'f') else c)
      target
  in
  let swap d = if String.equal d target then fake else d in
  let swap_pair (p : Certificate.pair) =
    { Certificate.p_abs = swap p.Certificate.p_abs; p_conc = p.Certificate.p_conc }
  in
  expect_reject "a corrupted digest"
    {
      cert with
      Certificate.root = swap_pair cert.Certificate.root;
      nodes = List.map (fun (p, d) -> (swap_pair p, d)) cert.Certificate.nodes;
      edges =
        List.map
          (fun (e : Certificate.edge) ->
            {
              e with
              Certificate.e_pre = swap_pair e.Certificate.e_pre;
              e_verdict =
                (match e.Certificate.e_verdict with
                | Certificate.E_ok p -> Certificate.E_ok (swap_pair p)
                | v -> v);
            })
          cert.Certificate.edges;
    }

let test_tamper_dropped_edge () =
  let cert = employee_cert ~depth:3 in
  match cert.Certificate.edges with
  | [] -> Alcotest.fail "certificate has no edges"
  | _ :: rest -> expect_reject "a dropped edge" { cert with Certificate.edges = rest }

let test_framing_rejects_corruption () =
  let enc = Certificate.encode (employee_cert ~depth:2) in
  let corrupt = enc ^ "trailing garbage" in
  (match Certificate.decode corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted a lengthened body");
  let flipped = Bytes.of_string enc in
  let mid = String.length enc / 2 in
  Bytes.set flipped mid (if Bytes.get flipped mid = 'x' then 'y' else 'x');
  match Certificate.decode (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted a flipped byte"

(* [encode] sorts its own input: canonical bytes never rely on the order
   [finish] happens to hand over *)
let test_encode_order_independent () =
  let cert = employee_cert ~depth:3 in
  let enc = Certificate.encode cert in
  let shuffle l =
    let rng = Random.State.make [| 17 |] in
    List.map (fun x -> (Random.State.bits rng, x)) l
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  check tbool "certificate has several edges" true
    (List.length cert.Certificate.edges > 2);
  List.iter
    (fun (what, nodes, edges) ->
      check Alcotest.string what enc
        (Certificate.encode { cert with Certificate.nodes; edges }))
    [
      ("reversed", List.rev cert.Certificate.nodes, List.rev cert.Certificate.edges);
      ("shuffled", shuffle cert.Certificate.nodes, shuffle cert.Certificate.edges);
    ]

(* frame a certificate body the way [Certificate.encode] does, so a
   malformed body reaches the parser behind a valid length and CRC *)
let frame_cert body =
  Printf.sprintf "troll-cert 1|%d|%08x\n%s" (String.length body)
    (Wal.crc32 body land 0xffffffff)
    body

let test_negative_block_length () =
  let enc = Certificate.encode (employee_cert ~depth:1) in
  let nl = String.index enc '\n' in
  let body =
    String.sub enc (nl + 1) (String.length enc - nl - 1)
    |> String.split_on_char '\n'
    |> List.map (fun line ->
           if String.starts_with ~prefix:"abs-src|" line then "abs-src|-3"
           else line)
    |> String.concat "\n"
  in
  match Certificate.decode (frame_cert body) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted a negative source-block length"

let test_out_of_range_literal_rejected () =
  (* the embedded source fails to lex: the validator answers Error, it
     does not raise *)
  let cert = employee_cert ~depth:1 in
  let cert =
    {
      cert with
      Certificate.abs_src = cert.Certificate.abs_src ^ "\n99999999999999999999\n";
    }
  in
  match Validator.validate_string (Certificate.encode cert) with
  | Error m ->
      let has sub =
        let n = String.length m and k = String.length sub in
        let rec at i = i + k <= n && (String.sub m i k = sub || at (i + 1)) in
        at 0
      in
      check tbool "names the literal" true (has "out of range")
  | Ok _ -> Alcotest.fail "validator accepted an uncompilable source"

let () =
  Alcotest.run "refine"
    [
      ( "mapping",
        [
          Alcotest.test_case "defaults and renames" `Quick
            test_mapping_defaults;
          Alcotest.test_case "observed attributes" `Quick test_observed_attrs;
        ] );
      ( "obligations",
        [
          Alcotest.test_case "generation" `Quick test_obligations_generated;
          Alcotest.test_case "missing counterpart" `Quick
            test_obligations_missing_counterpart;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "synthesis" `Quick test_candidates;
          Alcotest.test_case "value pools" `Quick test_default_pool;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "EMPLOYEE over emp_rel holds" `Quick
            test_employee_refines;
          Alcotest.test_case "exploration grows with depth" `Quick
            test_exploration_grows_with_depth;
          Alcotest.test_case "wrong effect detected" `Quick
            test_broken_effect_detected;
          Alcotest.test_case "over-strict detected" `Quick
            test_too_strict_detected;
          Alcotest.test_case "over-permissive detected" `Quick
            test_too_permissive_detected;
          Alcotest.test_case "life-cycle divergence detected" `Quick
            test_lifecycle_divergence_detected;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "round-trip bit-identical" `Quick
            test_cert_roundtrip;
          Alcotest.test_case "recording leaves the report unchanged" `Quick
            test_recorded_report_identical;
          Alcotest.test_case "warm memo re-check" `Quick
            test_memo_warm_recheck;
          Alcotest.test_case "frame corruption rejected" `Quick
            test_framing_rejects_corruption;
          Alcotest.test_case "encode ignores input order" `Quick
            test_encode_order_independent;
          Alcotest.test_case "negative source-block length rejected" `Quick
            test_negative_block_length;
        ] );
      ( "validator",
        [
          Alcotest.test_case "accepts genuine certificate" `Quick
            test_validator_accepts;
          Alcotest.test_case "accepts honest failing certificate" `Quick
            test_validator_accepts_failing_cert;
          Alcotest.test_case "rejects flipped verdict" `Quick
            test_tamper_flipped_verdict;
          Alcotest.test_case "rejects corrupted digest" `Quick
            test_tamper_corrupted_digest;
          Alcotest.test_case "rejects dropped edge" `Quick
            test_tamper_dropped_edge;
          Alcotest.test_case "rejects an out-of-range literal" `Quick
            test_out_of_range_literal_rejected;
        ] );
    ]
