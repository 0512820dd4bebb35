(* The society server: JSON codec, wire protocol, structured errors,
   and the serve loop driven in-process over pipes. *)

let spec_src =
  {|
object class PERSON
  identification pname: string;
  template
    attributes Grade: integer;
    events
      birth born;
      death dies;
      promote(integer);
    valuation
      variables g: integer;
      [born] Grade = 1;
      [promote(g)] Grade = g;
end object class PERSON;

object class DEPT
  identification id: string;
  template
    attributes
      employees: set(|PERSON|);
    events
      birth establishment;
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      { not(P in employees) } hire(P);
      { sometime(after(hire(P))) } fire(P);
end object class DEPT;
|}

let load_session () =
  match Troll.Session.load spec_src with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec load failed: %s" (Troll.Error.to_string e)

let json : Json.t Alcotest.testable =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    Json.equal

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let ada = Ident.make "PERSON" (Value.String "ada")

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

let parse_ok s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse of %S failed: %s" s e

let test_json_round_trip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("str", Json.String "line\nbreak \"quoted\" \\ tab\t");
        ("unicode", Json.String "caf\xc3\xa9");
        ("nested", Json.Obj [ ("empty", Json.List []) ]);
      ]
  in
  Alcotest.check json "print/parse identity" doc
    (parse_ok (Json.to_string doc))

let test_json_escapes () =
  Alcotest.check json "\\u escape" (Json.String "A") (parse_ok {|"A"|});
  Alcotest.check json "surrogate pair"
    (Json.String "\xf0\x9d\x84\x9e")
    (parse_ok {|"𝄞"|});
  Alcotest.check json "control escapes"
    (Json.String "\n\t\r")
    (parse_ok {|"\n\t\r"|})

let test_json_rejects () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "nul";
  bad {|{"a": 1} trailing|};
  bad {|{"a" 1}|};
  bad "[1,]"

(* Integer literals fold into an [Int] up to 18 digits; longer ones
   and those past the int range take [int_of_string], then
   [float_of_string]. *)
let test_json_integer_literals () =
  List.iter
    (fun (text, expected) ->
      match (Json.of_string text, expected) with
      | Ok (Json.Int i), `Int j when i = j -> ()
      | Ok (Json.Float f), `Float g when f = g -> ()
      | r, _ ->
          Alcotest.failf "%s parsed to %s" text
            (match r with Ok j -> Json.to_string j | Error e -> e))
    [
      ("0", `Int 0);
      ("-0", `Int 0);
      ("007", `Int 7);
      ("123456789012345678", `Int 123456789012345678);
      ("-123456789012345678", `Int (-123456789012345678));
      ("1234567890123456789", `Int 1234567890123456789);
      (string_of_int max_int, `Int max_int);
      (string_of_int min_int, `Int min_int);
      ("4611686018427387904", `Float 4611686018427387904.);
      ("-4611686018427387905", `Float (-4611686018427387905.));
      ("99999999999999999999", `Float 1e20);
      ("2.5", `Float 2.5);
      ("-1e3", `Float (-1000.));
    ]

(* Every [Error] message of the parser, byte for byte as the previous
   character-by-character parser wrote them: clients see them in
   [bad_request] frames ("malformed frame: <message>"). *)
let malformed_json =
  [
    ("", "empty input");
    ("   ", "empty input");
    ("{", "expected '\"', found end of input");
    ("nul", "invalid literal (expected null)");
    ("tru", "invalid literal (expected true)");
    ("fals", "invalid literal (expected false)");
    ("{\"a\": 1} trailing", "trailing garbage after document");
    ("{\"a\" 1}", "expected ':', found '1'");
    ("[1,]", "unexpected character ']'");
    ("{\"a\":1,}", "expected '\"', found '}'");
    ("[1 2]", "expected ']', found '2'");
    ("\"abc", "unterminated string");
    ("\"abc\\", "unterminated escape");
    ("\"\\q\"", "invalid escape '\\q'");
    ("\"\\u12\"", "truncated \\u escape");
    ("\"\\uZZZZ\"", "malformed \\u escape");
    ("\"\\u_123\"", "malformed \\u escape");
    ("\"\\ud834x\"", "expected '\\', found 'x'");
    ("\"\\ud834\\n\"", "expected 'u', found 'n'");
    ("\"\\ud834\\u0041\"", "invalid surrogate pair");
    ("\"\\ud834\\u00\"", "truncated \\u escape");
    ("\"a\001b\"", "control byte in string");
    ("-", "malformed number \"-\"");
    ("1.2.3", "malformed number \"1.2.3\"");
    ("--1", "malformed number \"--1\"");
    ("1e", "malformed number \"1e\"");
    ("12-3", "malformed number \"12-3\"");
    ("@", "unexpected character '@'");
    ("[", "empty input");
    ("{\"a\":}", "unexpected character '}'");
    ("{1:2}", "expected '\"', found '1'");
    ("\195\169", "unexpected character '\195'");
    ("[1,2", "expected ']', found end of input");
    ("[1,2,", "empty input");
    ("{\"a\":1", "expected '}', found end of input");
    ("nullx", "trailing garbage after document");
    ("01x", "trailing garbage after document");
  ]

let test_json_error_messages () =
  List.iter
    (fun (text, message) ->
      match Json.of_string text with
      | Ok j -> Alcotest.failf "%S parsed to %s" text (Json.to_string j)
      | Error got -> Alcotest.(check string) (Printf.sprintf "%S" text) message got)
    malformed_json;
  (* decoded in place, inside a larger buffer, the verdicts are the same *)
  List.iter
    (fun (text, message) ->
      let padded = "{\"id\":1}\n" ^ text ^ "\n[2]" in
      match Json.of_substring padded ~pos:9 ~len:(String.length text) with
      | Ok _ -> Alcotest.failf "%S parsed in place" text
      | Error got ->
          Alcotest.(check string) (Printf.sprintf "%S in place" text) message got)
    malformed_json;
  Alcotest.(check bool) "over-long line" true
    (Frame.decode_line (String.make (Frame.max_frame_bytes + 1) 'x')
    = Some (Frame.Malformed "frame longer than 4194304 bytes"))

(* Documents for the codec property.  Strings are UTF-8 over code
   points from every width, '"', '\\', '/' and the control bytes
   included; numbers include both ends of the int range and integral
   floats past it. *)
let gen_code_point =
  QCheck.Gen.(
    frequency
      [
        (6, int_range 0x20 0x7e);
        (2, int_range 0 0x1f);
        (1, oneofl [ 0x22; 0x5c; 0x2f; 0x7f ]);
        (1, int_range 0x80 0x7ff);
        (1, int_range 0x800 0xd7ff);
        (1, int_range 0xe000 0xfffd);
        (2, int_range 0x10000 0x10ffff);
      ])

let gen_string =
  QCheck.Gen.(
    map
      (fun cps ->
        let buf = Buffer.create 16 in
        List.iter (fun u -> Buffer.add_utf_8_uchar buf (Uchar.of_int u)) cps;
        Buffer.contents buf)
      (list_size (int_bound 12) gen_code_point))

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 ( 3,
                   map
                     (fun i -> Json.Int i)
                     (oneof
                        [
                          small_signed_int;
                          int;
                          oneofl [ max_int; min_int; 0; -1; 1 lsl 60 ];
                        ]) );
                 ( 2,
                   map
                     (fun f -> Json.Float f)
                     (oneof
                        [
                          map (fun f -> if Float.is_finite f then f else 0.5) float;
                          oneofl
                            [ 0.1; -2.5; 1e15; -1e15; 4611686018427387904.; 1e19; -1e19; 1e300 ];
                        ]) );
                 (3, map (fun s -> Json.String s) gen_string);
               ]
           in
           if n <= 0 then scalar
           else
             frequency
               [
                 (3, scalar);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair gen_string (self (n / 2)))) );
               ]))

(* A second printer: every string byte beyond ASCII, and every control
   byte, spelled as a \\u escape (astral code points as surrogate
   pairs), every integral float as a plain integer literal (past the
   int range, it parses back as a float), with whitespace around every
   token. *)
let rec print_spelled buf (j : Json.t) =
  let sep c = Buffer.add_string buf (Printf.sprintf " \t%c\r\n" c) in
  match j with
  | Json.String s ->
      Buffer.add_char buf '"';
      let rec go i =
        if i < String.length s then begin
          let d = String.get_utf_8_uchar s i in
          let u = Uchar.to_int (Uchar.utf_decode_uchar d) in
          (if u >= 0x10000 then
             let v = u - 0x10000 in
             Buffer.add_string buf
               (Printf.sprintf "\\u%04x\\u%04X" (0xd800 + (v lsr 10))
                  (0xdc00 + (v land 0x3ff)))
           else if u >= 0x7f || u < 0x20 || u = 0x22 || u = 0x5c then
             Buffer.add_string buf (Printf.sprintf "\\u%04X" u)
           else Buffer.add_char buf (Char.chr u));
          go (i + Uchar.utf_decode_length d)
        end
      in
      go 0;
      Buffer.add_char buf '"'
  | Json.List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then sep ',';
          print_spelled buf v)
        l;
      sep ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then sep ',';
          print_spelled buf (Json.String k);
          sep ':';
          print_spelled buf v)
        fields;
      sep '}'
  | Json.Float f when Float.is_integer f ->
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | scalar -> Buffer.add_string buf (Json.to_string scalar)

let prop_json_round_trip =
  QCheck.Test.make ~name:"json: of_string (to_string j) = Ok j" ~count:1000
    (QCheck.make ~print:Json.to_string gen_json)
    (fun j ->
      let spelled = Buffer.create 64 in
      print_spelled spelled j;
      List.for_all
        (fun text ->
          match Json.of_string text with
          | Ok j' -> Json.equal j j'
          | Error e -> QCheck.Test.fail_reportf "%S: %s" text e)
        [ Json.to_string j; Buffer.contents spelled ])

(* ---------------------------------------------------------------- *)
(* Value codec                                                       *)
(* ---------------------------------------------------------------- *)

let value_round_trip v =
  match Protocol.value_of_json (Protocol.value_to_json v) with
  | Ok v' -> Alcotest.check value (Value.to_string v) v v'
  | Error e -> Alcotest.failf "decode of %s failed: %s" (Value.to_string v) e

let test_value_codec () =
  List.iter value_round_trip
    [
      Value.Undefined;
      Value.Bool true;
      Value.Int 7;
      Value.String "x";
      Value.Date 8114;
      Value.Money (Money.of_cents 1999);
      Value.Enum ("colour", "red");
      Value.Id ("PERSON", Value.String "ada");
      Value.set [ Value.Int 1; Value.Int 2 ];
      Value.List [ Value.Int 1; Value.String "mixed" ];
      Value.map [ (Value.String "k", Value.Int 1) ];
      Value.Tuple [ ("a", Value.Int 1); ("b", Value.Bool false) ];
      Value.set [ Value.Id ("D", Value.String "d1"); Value.Undefined ];
    ]

let test_value_rejects_float () =
  match Protocol.value_of_json (Json.Float 1.5) with
  | Ok _ -> Alcotest.fail "floats must not decode into the value universe"
  | Error _ -> ()

(* ---------------------------------------------------------------- *)
(* Structured errors through JSON frames                             *)
(* ---------------------------------------------------------------- *)

let wire_error : Protocol.Wire_error.t Alcotest.testable =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf
        (Json.to_string (Protocol.Wire_error.to_json e)))
    Protocol.Wire_error.equal

let error_round_trip e =
  match Protocol.Wire_error.of_json (Protocol.Wire_error.to_json e) with
  | Ok e' -> Alcotest.check wire_error e.Protocol.Wire_error.code e e'
  | Error m -> Alcotest.failf "error frame decode failed: %s" m

let test_wire_error_round_trip () =
  error_round_trip (Protocol.Wire_error.make ~code:"overloaded" "queue full");
  error_round_trip
    (Protocol.Wire_error.make ~loc:(3, 14) ~code:"parse_error" "bad token")

let test_troll_error_codes () =
  (* a parse error keeps its location through the frame codec *)
  (match Troll.parse_spec "object class" with
  | Ok _ -> Alcotest.fail "truncated spec should not parse"
  | Error e ->
      Alcotest.(check string) "parse code" "parse_error" (Troll.Error.code e);
      let w = Protocol.Wire_error.of_error e in
      error_round_trip w;
      Alcotest.(check bool) "loc preserved" true
        (w.Protocol.Wire_error.loc <> None));
  (* runtime reasons map to stable snake_case codes *)
  Alcotest.(check string) "runtime code" "permission_denied"
    (Troll.Error.code
       (Troll.Error.Runtime
          (Runtime_error.Permission_denied
             (Event.make ada "hire" [], "not(P in employees)"))));
  Alcotest.(check string) "io code" "io_error"
    (Troll.Error.code (Troll.Error.Io "missing"))

(* ---------------------------------------------------------------- *)
(* Request decoding                                                  *)
(* ---------------------------------------------------------------- *)

let decode_req s =
  let env = Protocol.decode (parse_ok s) in
  match env.Protocol.request with
  | Ok r -> (env, r)
  | Error e -> Alcotest.failf "decode of %s failed: %s" s e

let test_decode_requests () =
  let _, r = decode_req {|{"op":"ping"}|} in
  Alcotest.(check string) "ping" "ping" (Protocol.op_name r);
  let env, r =
    decode_req
      {|{"id":7,"deadline_ms":250,"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[{"$id":{"cls":"PERSON","key":"p"}}]}|}
  in
  Alcotest.check json "id" (Json.Int 7) env.Protocol.req_id;
  Alcotest.(check (option int)) "deadline" (Some 250) env.Protocol.deadline_ms;
  (match r with
  | Protocol.Step (Step.Fire ev) ->
      Alcotest.(check string) "event name" "hire" ev.Event.name
  | _ -> Alcotest.fail "expected a Fire step");
  let _, r =
    decode_req
      {|{"op":"batch","events":[{"cls":"PERSON","key":"p","event":"born"},{"cls":"PERSON","key":"p","event":"promote","args":[3]}]}|}
  in
  (match r with
  | Protocol.Step (Step.Seq [ _; _ ]) -> ()
  | _ -> Alcotest.fail "batch should decode to a two-event Seq");
  let _, r = decode_req {|{"op":"attr","cls":"DEPT","key":"d","attr":"employees"}|} in
  match r with
  | Protocol.Attr { attr = "employees"; _ } -> ()
  | _ -> Alcotest.fail "expected an Attr request"

let test_decode_rejects () =
  let bad s =
    let env = Protocol.decode (parse_ok s) in
    match env.Protocol.request with
    | Ok _ -> Alcotest.failf "%s should not decode" s
    | Error _ -> ()
  in
  bad {|{"id":1}|};
  bad {|{"op":"warp"}|};
  bad {|{"op":"fire","cls":"DEPT"}|};
  bad {|{"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[1.5]}|};
  bad {|{"op":"restore"}|}

(* ---------------------------------------------------------------- *)
(* Step equivalence: the facade's one entry point                    *)
(* ---------------------------------------------------------------- *)

let expect_step what session step =
  match Troll.step session step with
  | Ok outcome -> outcome
  | Error r ->
      Alcotest.failf "%s rejected: %s" what (Runtime_error.reason_to_string r)

let test_step_create_fire () =
  let s = load_session () in
  let outcome =
    expect_step "create" s
      (Step.Create
         { cls = "PERSON"; key = Value.String "ada"; event = None; args = [] })
  in
  Alcotest.(check int) "one object created" 1
    (List.length outcome.Engine.created);
  ignore
    (expect_step "promote" s
       (Step.Fire (Event.make ada "promote" [ Value.Int 5 ])));
  match Troll.Session.attr s ada "Grade" with
  | Ok v -> Alcotest.check value "promoted grade" (Value.Int 5) v
  | Error e -> Alcotest.failf "attr failed: %s" (Troll.Error.to_string e)

let test_step_equivalent_to_engine () =
  (* Step.t requests and the direct engine entry points must drive the
     community identically, state for state *)
  let via_step = load_session () in
  let via_engine = load_session () in
  ignore
    (expect_step "create" via_step
       (Step.Create
          { cls = "PERSON"; key = Value.String "ada"; event = None; args = [] }));
  ignore
    (expect_step "seq" via_step
       (Step.Seq
          [
            Event.make ada "promote" [ Value.Int 2 ];
            Event.make ada "promote" [ Value.Int 9 ];
          ]));
  let c = Troll.Session.community via_engine in
  ignore
    (Engine.create c ~cls:"PERSON" ~key:(Value.String "ada") () : _ result);
  ignore
    (Engine.fire_seq c
       [
         Event.make ada "promote" [ Value.Int 2 ];
         Event.make ada "promote" [ Value.Int 9 ];
       ]
      : _ result);
  Alcotest.(check string) "identical persisted state"
    (Persist.save (Troll.Session.community via_step))
    (Persist.save c)

let test_step_rejection_reason () =
  let s = load_session () in
  ignore
    (expect_step "create" s
       (Step.Create
          { cls = "PERSON"; key = Value.String "ada"; event = None; args = [] }));
  match
    Troll.step s (Step.Fire (Event.make ada "promote" [ Value.Int 1 ]))
  with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "unexpected rejection: %s" (Runtime_error.code r)

(* ---------------------------------------------------------------- *)
(* The serve loop, driven over pipes                                 *)
(* ---------------------------------------------------------------- *)

(* Write the request lines up front, run [serve_fds] to completion,
   read every response.  Requests and responses both fit comfortably
   inside a pipe buffer, so the server reads every frame in its first
   wakeup and executes them all in one turn. *)
let serve_lines ?(close_input = true) server lines =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let n = String.length payload in
  if n >= 65536 then Alcotest.fail "script too large for a pipe buffer";
  ignore (Unix.write_substring req_w payload 0 n);
  if close_input then Unix.close req_w;
  Server.serve_fds server req_r resp_w;
  Unix.close resp_w;
  if not close_input then Unix.close req_w;
  Unix.close req_r;
  let ic = Unix.in_channel_of_descr resp_r in
  let rec drain acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> drain (parse_ok line :: acc)
  in
  let responses = drain [] in
  close_in ic;
  responses

let serve_script ?config ?close_input lines =
  let session = load_session () in
  let server = Server.create ?config session in
  (session, server, serve_lines ?close_input server lines)

let by_id responses id =
  match
    List.find_opt (fun r -> Json.equal (Json.member "id" r) (Json.Int id))
      responses
  with
  | Some r -> r
  | None -> Alcotest.failf "no response with id %d" id

let check_ok what resp =
  Alcotest.(check bool) what true (Json.member "ok" resp = Json.Bool true)

let check_code what code resp =
  Alcotest.(check bool) (what ^ " is an error") true
    (Json.member "ok" resp = Json.Bool false);
  Alcotest.(check (option string)) (what ^ " code") (Some code)
    (Json.to_string_opt (Json.member "code" (Json.member "error" resp)))

let hire_frame ?deadline id p =
  Printf.sprintf
    {|{"id":%d%s,"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[{"$id":{"cls":"PERSON","key":"%s"}}]}|}
    id
    (match deadline with
    | None -> ""
    | Some ms -> Printf.sprintf {|,"deadline_ms":%d|} ms)
    p

let setup_frames =
  [
    {|{"id":1,"op":"create","cls":"DEPT","key":"d"}|};
    {|{"id":2,"op":"create","cls":"PERSON","key":"ada"}|};
  ]

let test_serve_happy_path () =
  let _, _, responses =
    serve_script
      (setup_frames
      @ [
          hire_frame 3 "ada";
          {|{"id":4,"op":"attr","cls":"DEPT","key":"d","attr":"employees"}|};
          {|{"id":5,"op":"stats"}|};
        ])
  in
  Alcotest.(check int) "five responses" 5 (List.length responses);
  List.iter (fun id -> check_ok (string_of_int id) (by_id responses id))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.check json "hired set"
    (parse_ok {|{"$set":[{"$id":{"cls":"PERSON","key":"ada"}}]}|})
    (Json.member "value" (Json.member "result" (by_id responses 4)));
  let received =
    Json.member "received"
      (Json.member "server" (Json.member "result" (by_id responses 5)))
  in
  Alcotest.check json "stats counted every request" (Json.Int 5) received

let test_serve_permission_rejected () =
  let session, _, responses =
    serve_script
      (setup_frames
      @ [
          hire_frame 3 "ada";
          {|{"id":10,"op":"save"}|};
          hire_frame 4 "ada";
          {|{"id":11,"op":"save"}|};
        ])
  in
  check_code "re-hire" "permission_denied" (by_id responses 4);
  let state id =
    Json.to_string_opt (Json.member "state" (Json.member "result" (by_id responses id)))
  in
  Alcotest.(check (option string))
    "rejected request leaves the state bit-identical" (state 10) (state 11);
  (* and the in-process community agrees with the wire snapshot *)
  Alcotest.(check (option string)) "snapshot is live state"
    (Some (Persist.save (Troll.Session.community session)))
    (state 11)

let test_serve_malformed_frame () =
  let _, _, responses =
    serve_script
      [ "this is not json"; {|{"op":"fire","cls":7}|}; {|{"id":2,"op":"ping"}|} ]
  in
  Alcotest.(check int) "three responses" 3 (List.length responses);
  let errors =
    List.filter (fun r -> Json.member "ok" r = Json.Bool false) responses
  in
  Alcotest.(check int) "two bad_request answers" 2 (List.length errors);
  List.iter (fun r -> check_code "malformed" "bad_request" r) errors;
  check_ok "stream resynchronised" (by_id responses 2)

let test_serve_deadline_expiry () =
  let session, _, responses =
    serve_script
      (setup_frames
      @ [
          {|{"id":20,"op":"save"}|};
          hire_frame ~deadline:0 21 "ada";
          {|{"id":22,"op":"save"}|};
        ])
  in
  check_code "deadline" "deadline_expired" (by_id responses 21);
  let state id =
    Json.to_string_opt (Json.member "state" (Json.member "result" (by_id responses id)))
  in
  Alcotest.(check (option string))
    "expired request never touched the engine" (state 20) (state 22);
  Alcotest.(check (option string)) "snapshot is live state"
    (Some (Persist.save (Troll.Session.community session)))
    (state 22)

let test_serve_overload () =
  let config = { Server.default_config with Server.queue_capacity = 1 } in
  let _, _, responses =
    serve_script ~config
      [
        {|{"id":1,"op":"ping"}|};
        {|{"id":2,"op":"ping"}|};
        {|{"id":3,"op":"ping"}|};
      ]
  in
  (* all three frames arrive in one read: one is admitted, the rest
     bounce off the full queue *)
  check_ok "admitted" (by_id responses 1);
  check_code "second" "overloaded" (by_id responses 2);
  check_code "third" "overloaded" (by_id responses 3)

let test_serve_shutdown_drain () =
  (* input deliberately left open: the serve call must return because
     the shutdown drained, not because it saw EOF *)
  let _, _, responses =
    serve_script ~close_input:false
      (setup_frames
      @ [
          {|{"id":3,"op":"shutdown"}|};
          hire_frame 4 "ada";
        ])
  in
  Alcotest.(check int) "four responses" 4 (List.length responses);
  check_ok "shutdown acknowledged" (by_id responses 3);
  Alcotest.check json "draining flagged" (Json.Bool true)
    (Json.member "draining" (Json.member "result" (by_id responses 3)));
  (* the hire was admitted before the shutdown executed, so it drains *)
  check_ok "admitted request drained" (by_id responses 4)

(* NDJSON reassembly across short reads.  A forked writer delivers the
   script in two chunks with a pause in between, so the server's first
   read ends mid-frame — and the split point sits between the two bytes
   of a UTF-8 "é" (0xC3 0xA9) inside a key string, pinning that the
   framing layer buffers raw bytes and never decodes a partial read.
   The fire against PERSON("adé") can only succeed if the split frame
   reassembled with the é intact. *)
let test_serve_split_frame () =
  let payload =
    String.concat ""
      (List.map
         (fun l -> l ^ "\n")
         [
           {|{"id":1,"op":"create","cls":"DEPT","key":"d"}|};
           {|{"id":2,"op":"create","cls":"PERSON","key":"adé"}|};
           {|{"id":3,"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[{"$id":{"cls":"PERSON","key":"adé"}}]}|};
         ])
  in
  (* split one byte after the first 0xC3: inside the é of frame 2 *)
  let split = String.index payload '\xc3' + 1 in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* writer child: two delayed chunks, then EOF *)
      Unix.close req_r;
      Unix.close resp_r;
      Unix.close resp_w;
      ignore (Unix.write_substring req_w payload 0 split);
      Unix.sleepf 0.05;
      ignore
        (Unix.write_substring req_w payload split
           (String.length payload - split));
      Unix.close req_w;
      Unix._exit 0
  | writer ->
      Unix.close req_w;
      let session = load_session () in
      let server = Server.create session in
      Server.serve_fds server req_r resp_w;
      Unix.close resp_w;
      Unix.close req_r;
      let ic = Unix.in_channel_of_descr resp_r in
      let rec drain acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> drain (parse_ok line :: acc)
      in
      let responses = drain [] in
      close_in ic;
      ignore (Unix.waitpid [] writer);
      Alcotest.(check int) "three responses" 3 (List.length responses);
      check_ok "frame before the split" (by_id responses 1);
      check_ok "frame split mid-é reassembled" (by_id responses 2);
      check_ok "fire resolves the reassembled key" (by_id responses 3)

let test_serve_hello () =
  let _, _, responses =
    serve_script
      [
        {|{"id":1,"op":"hello","version":1}|};
        {|{"id":2,"op":"hello","version":1,"caps":["wal","shards"]}|};
        {|{"id":3,"op":"hello","version":99}|};
        {|{"id":4,"op":"ping"}|};
      ]
  in
  let r1 = by_id responses 1 in
  check_ok "hello" r1;
  Alcotest.check json "version echoed" (Json.Int 1)
    (Json.member "version" (Json.member "result" r1));
  (* no WAL, one job: the plain test server advertises only the
     always-on capabilities — the parallel batch op and pipelining *)
  Alcotest.check json "caps"
    (Json.List [ Json.String "steps"; Json.String "pipeline" ])
    (Json.member "caps" (Json.member "result" r1));
  check_ok "unknown client caps are ignored" (by_id responses 2);
  check_code "future version" "version_mismatch" (by_id responses 3);
  (* a failed handshake must not wedge the connection *)
  check_ok "connection survives the mismatch" (by_id responses 4)

let prepare_hire_frame id p =
  Printf.sprintf
    {|{"id":%d,"op":"prepare","step":{"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[{"$id":{"cls":"PERSON","key":"%s"}}]}}|}
    id p

let test_serve_two_phase () =
  let _, _, responses =
    serve_script
      (setup_frames
      @ [
          {|{"id":3,"op":"save"}|};
          prepare_hire_frame 4 "ada";
          hire_frame 5 "ada";
          (* txn_pending: a transaction is open *)
          {|{"id":6,"op":"save"}|};
          (* txn_pending too *)
          {|{"id":7,"op":"abort"}|};
          {|{"id":8,"op":"save"}|};
          (* must match id 3 bit-identically *)
          prepare_hire_frame 9 "ada";
          {|{"id":10,"op":"commit"}|};
          {|{"id":11,"op":"commit"}|};
          (* no_txn: already resolved *)
          {|{"id":12,"op":"abort"}|};
          (* idempotent no-op *)
          {|{"id":13,"op":"attr","cls":"DEPT","key":"d","attr":"employees"}|};
          prepare_hire_frame 14 "ada";
          (* permission_denied: already hired — and no slot stays open *)
          {|{"id":15,"op":"ping"}|};
        ])
  in
  check_ok "prepare acks with the outcome" (by_id responses 4);
  Alcotest.(check bool) "prepared outcome lists the micro-step" true
    (Json.member "committed" (Json.member "result" (by_id responses 4))
    <> Json.Null);
  check_code "step while prepared" "txn_pending" (by_id responses 5);
  check_code "save while prepared" "txn_pending" (by_id responses 6);
  check_ok "abort" (by_id responses 7);
  Alcotest.check json "abort rolled something back" (Json.Bool true)
    (Json.member "aborted" (Json.member "result" (by_id responses 7)));
  let state id =
    Json.to_string_opt
      (Json.member "state" (Json.member "result" (by_id responses id)))
  in
  Alcotest.(check (option string))
    "aborted prepare leaves the state bit-identical" (state 3) (state 8);
  check_ok "second prepare" (by_id responses 9);
  Alcotest.check json "commit lands" (Json.Bool true)
    (Json.member "committed" (Json.member "result" (by_id responses 10)));
  check_code "commit without a transaction" "no_txn" (by_id responses 11);
  Alcotest.check json "abort without a transaction is a no-op"
    (Json.Bool false)
    (Json.member "aborted" (Json.member "result" (by_id responses 12)));
  Alcotest.check json "committed hire is observable"
    (parse_ok {|{"$set":[{"$id":{"cls":"PERSON","key":"ada"}}]}|})
    (Json.member "value" (Json.member "result" (by_id responses 13)));
  (* a rejected prepare leaves no open slot behind *)
  check_code "re-hire prepare" "permission_denied" (by_id responses 14);
  check_ok "connection still live" (by_id responses 15)

let test_serve_default_deadline () =
  let config =
    { Server.default_config with Server.default_deadline_ms = Some 0 }
  in
  let _, _, responses =
    serve_script ~config [ {|{"id":1,"op":"ping"}|} ]
  in
  check_code "config deadline applies" "deadline_expired" (by_id responses 1)

(* examples/specs/cells.trl: eight independent counter classes CELL0..7,
   each with a parameterless death event [drop] and a guarded
   [add(integer)] that refuses to take Total below zero *)
let cells_session () =
  let src =
    In_channel.with_open_bin "../examples/specs/cells.trl" In_channel.input_all
  in
  match Troll.Session.load src with
  | Ok s -> s
  | Error e -> Alcotest.failf "cells.trl failed to load: %s" (Troll.Error.to_string e)

let cell_frame id op cls key rest =
  Printf.sprintf {|{"id":%d,"op":"%s","cls":"%s","key":"%s"%s}|} id op cls key rest

let add_frame id cls key n =
  cell_frame id "fire" cls key (Printf.sprintf {|,"event":"add","args":[%d]|} n)

let result_of responses id = Json.member "result" (by_id responses id)

let state_of responses id =
  Json.to_string_opt (Json.member "state" (result_of responses id))

(* A [steps] request answers every member exactly as the same requests
   sent one frame at a time do, and leaves the same state behind: an
   accepted fire, a permission rejection, a create and a fire at an
   object that does not exist. *)
let test_serve_steps_batch () =
  let members =
    [
      {|{"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[{"$id":{"cls":"PERSON","key":"ada"}}]}|};
      {|{"op":"fire","cls":"DEPT","key":"d","event":"hire","args":[{"$id":{"cls":"PERSON","key":"ada"}}]}|};
      {|{"op":"create","cls":"PERSON","key":"bob"}|};
      {|{"op":"fire","cls":"DEPT","key":"nope","event":"hire","args":[{"$id":{"cls":"PERSON","key":"bob"}}]}|};
    ]
  in
  let n = List.length members in
  let save_id = 3 + n in
  let save = Printf.sprintf {|{"id":%d,"op":"save"}|} save_id in
  let _, _, batched =
    serve_script
      (setup_frames
      @ [
          Printf.sprintf {|{"id":3,"op":"steps","steps":[%s]}|}
            (String.concat "," members);
          save;
        ])
  in
  let _, _, single =
    serve_script
      (setup_frames
      @ List.mapi
          (fun i m ->
            (* a member plus an id is the standalone request *)
            Printf.sprintf {|{"id":%d,%s|} (3 + i)
              (String.sub m 1 (String.length m - 1)))
          members
      @ [ save ])
  in
  check_ok "steps request" (by_id batched 3);
  let entries =
    match Json.member "results" (result_of batched 3) with
    | Json.List l -> l
    | _ -> Alcotest.fail "steps result carries no results list"
  in
  Alcotest.(check int) "one result per member" n (List.length entries);
  List.iteri
    (fun i entry ->
      let frame = by_id single (3 + i) in
      List.iter
        (fun field ->
          Alcotest.check json
            (Printf.sprintf "member %d: %s" i field)
            (Json.member field frame) (Json.member field entry))
        [ "ok"; "result"; "error" ])
    entries;
  List.iter2
    (fun i code -> check_code (Printf.sprintf "member %d" i) code (List.nth entries i))
    [ 1; 3 ] [ "permission_denied"; "unknown_object" ];
  List.iter (fun i -> check_ok (Printf.sprintf "member %d" i) (List.nth entries i)) [ 0; 2 ];
  Alcotest.(check (option string)) "same dump as single frames"
    (state_of single save_id) (state_of batched save_id)

(* A daemon restores its own save when a key holds the dump's record
   separators ('|' and a newline): the dump reads values by their length
   prefixes. *)
let test_serve_restore_separators () =
  let _, _, saved =
    serve_script
      [
        {|{"id":1,"op":"create","cls":"PERSON","key":"a\nb|c"}|};
        {|{"id":2,"op":"save"}|};
      ]
  in
  check_ok "create" (by_id saved 1);
  let state = Json.member "state" (result_of saved 2) in
  let restore =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int 3); ("op", Json.String "restore"); ("state", state) ])
  in
  let _, _, restored = serve_script [ restore; {|{"id":4,"op":"save"}|} ] in
  check_ok "restore of its own save" (by_id restored 3);
  Alcotest.check json "the restored state saves to the same bytes" state
    (Json.member "state" (result_of restored 4))

(* Probes observe state, so while a two-phase prepare holds the journal
   open they must be refused like any other request — on the coalesced
   probe path as well as in [Server.execute] — and the daemon must keep
   serving. *)
let test_serve_probe_while_prepared () =
  let session = cells_session () in
  let server = Server.create session in
  let responses =
    serve_lines server
      [
        cell_frame 1 "create" "CELL0" "a" "";
        {|{"id":2,"op":"save"}|};
        {|{"id":3,"op":"prepare","step":{"op":"fire","cls":"CELL0","key":"a","event":"add","args":[1]}}|};
        cell_frame 4 "enabled" "CELL0" "a" "";
        cell_frame 5 "candidates" "CELL0" "a" "";
        {|{"id":6,"op":"abort"}|};
        cell_frame 7 "enabled" "CELL0" "a" "";
        {|{"id":8,"op":"save"}|};
      ]
  in
  Alcotest.(check int) "the server answered every frame" 8 (List.length responses);
  check_ok "prepare" (by_id responses 3);
  check_code "enabled while prepared" "txn_pending" (by_id responses 4);
  check_code "candidates while prepared" "txn_pending" (by_id responses 5);
  Alcotest.check json "abort rolled the prepare back" (Json.Bool true)
    (Json.member "aborted" (result_of responses 6));
  Alcotest.check json "enabled after the abort"
    (parse_ok {|{"events":["drop"]}|})
    (result_of responses 7);
  Alcotest.(check (option string))
    "state bit-identical to before the prepare" (state_of responses 2)
    (state_of responses 8);
  Alcotest.(check (option string)) "snapshot is live state"
    (Some (Persist.save (Troll.Session.community session)))
    (state_of responses 8)

(* At --jobs 1 no probe dispatch can fan out, so probes run in place on
   the live community under Txn.probe: no View is ever frozen, and a
   turn of nothing but probes leaves the state and its version as they
   were. *)
let test_serve_probes_in_place () =
  let config = { Server.default_config with Server.jobs = 1 } in
  let session = cells_session () in
  Trace.reset_probe_stats ();
  let probe_stat server name =
    match
      Json.to_int_opt
        (Json.member name (Json.member "probe" (Server.stats_json server)))
    with
    | Some n -> n
    | None -> Alcotest.failf "stats carry no probe.%s" name
  in
  let server = Server.create ~config session in
  let responses =
    serve_lines server
      [
        cell_frame 1 "create" "CELL0" "a" "";
        cell_frame 2 "create" "CELL1" "b" "";
        add_frame 3 "CELL0" "a" 1;
        cell_frame 4 "enabled" "CELL0" "a" "";
        cell_frame 5 "candidates" "CELL1" "b" "";
        add_frame 6 "CELL1" "b" 2;
        cell_frame 7 "enabled" "CELL1" "b" "";
        add_frame 8 "CELL0" "a" (-5);
        cell_frame 9 "candidates" "CELL0" "a" "";
        cell_frame 10 "enabled" "CELL0" "a" "";
        cell_frame 11 "enabled" "CELL2" "ghost" "";
        add_frame 12 "CELL1" "b" 1;
        cell_frame 13 "candidates" "CELL1" "b" "";
      ]
  in
  List.iter
    (fun id -> check_ok (string_of_int id) (by_id responses id))
    [ 1; 2; 3; 4; 5; 6; 7; 9; 10; 11; 12; 13 ];
  check_code "overdraw" "permission_denied" (by_id responses 8);
  Alcotest.check json "enabled on a living cell"
    (parse_ok {|{"events":["drop"]}|})
    (result_of responses 4);
  Alcotest.check json "enabled on a cell never created"
    (parse_ok {|{"events":[]}|})
    (result_of responses 11);
  Alcotest.check json "candidates decide the parameterless event only"
    (parse_ok
       {|{"candidates":[{"event":"drop","params":[],"enabled":true},{"event":"add","params":["integer"]}]}|})
    (result_of responses 9);
  (* four maximal probe runs: 4-5, 7, 9-11, 13 *)
  Alcotest.(check int) "probe requests" 7 (probe_stat server "requests");
  Alcotest.(check int) "probe batches" 4 (probe_stat server "batches");
  Alcotest.(check int) "views taken" 0 (probe_stat server "views taken");
  Alcotest.(check int) "parallel dispatches" 0
    (probe_stat server "parallel dispatches");
  (* a probe-only turn *)
  let c = Troll.Session.community session in
  let image = Persist.save c and version = c.Community.version in
  let server = Server.create ~config session in
  let responses =
    serve_lines server
      [
        cell_frame 20 "enabled" "CELL0" "a" "";
        cell_frame 21 "candidates" "CELL0" "a" "";
        cell_frame 22 "enabled" "CELL1" "b" "";
        cell_frame 23 "candidates" "CELL1" "b" "";
      ]
  in
  List.iter
    (fun id -> check_ok (string_of_int id) (by_id responses id))
    [ 20; 21; 22; 23 ];
  Alcotest.(check string) "probe-only turn leaves the state bit-identical"
    image (Persist.save c);
  Alcotest.(check int) "probe-only turn bumps no version" version
    c.Community.version;
  Alcotest.(check int) "one coalesced batch" 1 (probe_stat server "batches");
  Alcotest.(check int) "still no view taken" 0 (probe_stat server "views taken")

(* a pipelined connection's responses come back in request order *)
let test_serve_pipelined_fifo () =
  let _, _, responses =
    serve_script
      (setup_frames
      @ [
          hire_frame 3 "ada";
          {|{"id":4,"op":"save"}|};
          {|{"id":5,"op":"fire","cls":"DEPT","key":"d","event":"fire","args":[{"$id":{"cls":"PERSON","key":"ada"}}]}|};
          {|{"id":6,"op":"save"}|};
          {|{"id":7,"op":"ping"}|};
        ])
  in
  Alcotest.(check (list int))
    "responses in request order"
    [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map
       (fun r ->
         match Json.to_int_opt (Json.member "id" r) with
         | Some i -> i
         | None -> Alcotest.fail "response without integer id")
       responses)

(* ---------------------------------------------------------------- *)
(* Backpressure over a real socket                                   *)
(* ---------------------------------------------------------------- *)

(* A connector to a Unix socket that a forked child is still binding. *)
let connector path () =
  let rec attempt i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if i > 500 then Alcotest.failf "cannot connect to %s" path;
        Unix.sleepf 0.01;
        attempt (i + 1)
  in
  attempt 0

(* Fork a socket server; hand the test a connector, then tear the
   server down. *)
let with_socket_server ?config k =
  let path = Filename.temp_file "troll_serve" ".sock" in
  Unix.unlink path;
  let pid = Unix.fork () in
  if pid = 0 then begin
    let session = load_session () in
    let server = Server.create ?config session in
    (try Server.listen_unix server ~path with _ -> ());
    Unix._exit 0
  end;
  let connect = connector path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> k connect)

let fd_write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* a buffered line reader over a raw fd, with a liveness timeout: if
   the serve loop were blocked on someone else's backlog, this fails
   instead of hanging the suite *)
let read_frame ?(timeout = 10.) buf fd =
  let chunk = Bytes.create 65536 in
  let rec loop () =
    let data = Buffer.contents buf in
    match String.index data '\n' with
    | nl ->
        let line = String.sub data 0 nl in
        Buffer.clear buf;
        Buffer.add_substring buf data (nl + 1) (String.length data - nl - 1);
        parse_ok line
    | exception Not_found ->
        (match Unix.select [ fd ] [] [] timeout with
        | [], _, _ -> Alcotest.fail "no response within the timeout"
        | _ -> ());
        let n = Unix.read fd chunk 0 65536 in
        if n = 0 then Alcotest.fail "server closed the connection";
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ()

let rpc_fd buf fd line =
  fd_write_all fd (line ^ "\n");
  read_frame buf fd

(* ---------------------------------------------------------------- *)
(* Input framing over real connections: server and router            *)
(* ---------------------------------------------------------------- *)

(* Fork a one-shard society behind the router (the shard a plain
   socket server of its cell), and hand the test a connector to the
   router's socket and the router's process id. *)
let with_socket_router k =
  let path = Filename.temp_file "troll_router" ".sock" in
  Unix.unlink path;
  let shard_path = path ^ ".0" in
  let facade = load_session () in
  let community = Troll.Session.community facade in
  let map = Shard.auto community ~shards:1 in
  let spawn body =
    match Unix.fork () with
    | 0 ->
        (try body () with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let shard =
    spawn (fun () ->
        match
          Troll.Session.load_shard_cell ~map:(Shard.to_string map) ~shard:0
            spec_src
        with
        | Ok session -> Server.listen_unix (Server.create session) ~path:shard_path
        | Error _ -> ())
  in
  let router =
    spawn (fun () ->
        ignore
          (Router.listen_unix
             (Router.create ~community ~map ~paths:[| shard_path |] ())
             ~path))
  in
  let connect = connector path in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        [ router; shard ];
      List.iter
        (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
        [ path; shard_path ])
    (fun () -> k ~router connect)

(* The peer closes: end of input, or a reset when it closed with input
   unread. *)
let await_close buf fd =
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.select [ fd ] [] [] 10. with
    | [], _, _ -> Alcotest.fail "connection still open"
    | _ -> (
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
  in
  loop ();
  Alcotest.(check string) "nothing after the error frame" "" (Buffer.contents buf)

(* The cases every connection's input buffer must frame alike: several
   frames in one read, a frame split at every byte offset across two
   reads (a UTF-8 "é" in it), CRLF terminators and blank lines, and an
   unterminated frame past the limit, answered [bad_request] and
   closed.  A ping that shares the first read's write proves the split
   really straddled two reads: it is answered only once that read was
   framed. *)
let framing_cases connect =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = connect () in
  let buf = Buffer.create 256 in
  let expect_id what id =
    Alcotest.check json what id (Json.member "id" (read_frame buf fd))
  in
  let ping id = Printf.sprintf {|{"id":%s,"op":"ping"}|} id in
  fd_write_all fd
    (String.concat "" (List.map (fun i -> ping (string_of_int i) ^ "\n") [ 1; 2; 3 ]));
  List.iter (fun i -> expect_id "frames of one read, in order" (Json.Int i)) [ 1; 2; 3 ];
  let frame = "{\"id\":\"k-\xc3\xa9\",\"op\":\"ping\"}" in
  for k = 0 to String.length frame do
    fd_write_all fd (ping "0" ^ "\n" ^ String.sub frame 0 k);
    expect_id "the read before the split" (Json.Int 0);
    fd_write_all fd (String.sub frame k (String.length frame - k) ^ "\n");
    expect_id (Printf.sprintf "frame split at byte %d" k) (Json.String "k-\xc3\xa9")
  done;
  fd_write_all fd ("\n\r\n" ^ ping "4" ^ "\r\n\n\r\n" ^ ping "5" ^ "\n");
  expect_id "CRLF frame" (Json.Int 4);
  expect_id "frame after blank lines" (Json.Int 5);
  let doomed = connect () in
  let dbuf = Buffer.create 256 in
  fd_write_all doomed (String.make (Frame.max_frame_bytes + 1) 'x');
  let r = read_frame dbuf doomed in
  check_code "over-long frame" "bad_request" r;
  Alcotest.(check (option string)) "over-long message"
    (Some "frame longer than 4194304 bytes")
    (Json.to_string_opt (Json.member "message" (Json.member "error" r)));
  await_close dbuf doomed;
  Unix.close doomed;
  fd_write_all fd (ping "6" ^ "\n");
  expect_id "the other connection still served" (Json.Int 6);
  Unix.close fd

let test_framing_server () = with_socket_server framing_cases

(* In stdio mode an over-long frame ends the session: the server
   answers it, stops reading and returns while the peer still holds its
   end of the input open. *)
let test_framing_stdio_overlong () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      Server.serve_fds (Server.create (load_session ())) req_r resp_w;
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      fd_write_all req_w (String.make (Frame.max_frame_bytes + 1) 'x');
      check_code "over-long frame" "bad_request"
        (read_frame (Buffer.create 256) resp_r);
      let rec returned i =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when i < 500 ->
            Unix.sleepf 0.01;
            returned (i + 1)
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            false
        | _ -> true
      in
      let ok = returned 0 in
      Unix.close req_w;
      Unix.close resp_r;
      Alcotest.(check bool) "serve_fds returned" true ok

(* The router closes the descriptor of every client that went away
   (end of input, or closed after an over-long frame). *)
let test_framing_router () =
  with_socket_router (fun ~router connect ->
      let open_fds () =
        Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" router))
      in
      let ping fd =
        let buf = Buffer.create 64 in
        check_ok "ping" (rpc_fd buf fd {|{"id":1,"op":"ping"}|})
      in
      let first = connect () in
      ping first;
      let before = open_fds () in
      framing_cases connect;
      for _ = 1 to 16 do
        let fd = connect () in
        ping fd;
        Unix.close fd
      done;
      (* the router reaps a departed client on its next turn *)
      let rec settle i =
        let n = open_fds () in
        if n = before || i > 100 then n
        else begin
          Unix.sleepf 0.01;
          settle (i + 1)
        end
      in
      ping first;
      Alcotest.(check int) "client descriptors closed" before (settle 0);
      Unix.close first)

let pipeline_stat r name =
  match
    Json.to_int_opt (Json.member name (Json.member "pipeline" (Json.member "result" r)))
  with
  | Some n -> n
  | None -> Alcotest.failf "stats carry no pipeline.%s" name

(* Tiny water marks so a client that stops reading trips the pause;
   the eviction window stays wide so nothing is dropped mid-test. *)
let backpressure_config =
  {
    Server.default_config with
    Server.out_high_water = 4096;
    Server.out_low_water = 512;
    Server.evict_after = 30.;
  }

let test_serve_slow_reader () =
  with_socket_server ~config:backpressure_config @@ fun connect ->
  let slow = connect () and normal = connect () in
  let sbuf = Buffer.create 256 and nbuf = Buffer.create 256 in
  (* fatten the state so save responses dwarf the high-water mark *)
  for i = 1 to 100 do
    check_ok "create"
      (rpc_fd sbuf slow
         (Printf.sprintf {|{"id":%d,"op":"create","cls":"PERSON","key":"p%03d"}|} i i))
  done;
  (* pipeline 200 saves and stop reading: the backlog must cross the
     high-water mark and pause this connection without blocking anyone *)
  let first_save = 1000 and n_saves = 200 in
  let script =
    String.concat ""
      (List.init n_saves (fun i ->
           Printf.sprintf {|{"id":%d,"op":"save"}|} (first_save + i) ^ "\n"))
  in
  fd_write_all slow script;
  (* the loop keeps serving the other connection promptly *)
  check_ok "other connection live" (rpc_fd nbuf normal {|{"id":1,"op":"ping"}|});
  let rec await_pause i =
    let stats = rpc_fd nbuf normal {|{"id":2,"op":"stats"}|} in
    if pipeline_stat stats "pauses" >= 1 then stats
    else if i > 100 then Alcotest.fail "high-water pause never recorded"
    else begin
      Unix.sleepf 0.02;
      await_pause (i + 1)
    end
  in
  ignore (await_pause 0);
  (* drain the slow reader — first a stretch one byte at a time (the
     server must resume partial writes intact), then normally *)
  let one = Bytes.create 1 in
  for _ = 1 to 2048 do
    match Unix.select [ slow ] [] [] 10. with
    | [], _, _ -> Alcotest.fail "no slow-reader byte within the timeout"
    | _ ->
        if Unix.read slow one 0 1 = 1 then Buffer.add_bytes sbuf one
        else Alcotest.fail "server closed the slow reader"
  done;
  let expected_ids = List.init n_saves (fun i -> first_save + i) in
  let states =
    List.map
      (fun id ->
        let r = read_frame sbuf slow in
        Alcotest.check json "slow-reader responses stay FIFO" (Json.Int id)
          (Json.member "id" r);
        check_ok "slow-reader response intact" r;
        match
          Json.to_string_opt (Json.member "state" (Json.member "result" r))
        with
        | Some s -> s
        | None -> Alcotest.fail "save response carries no state")
      expected_ids
  in
  (match states with
  | first :: rest ->
      List.iter
        (fun s ->
          Alcotest.(check int) "every dump identical" (String.length first)
            (String.length s))
        rest
  | [] -> ());
  let rec await_resume i =
    let stats = rpc_fd nbuf normal {|{"id":3,"op":"stats"}|} in
    if pipeline_stat stats "resumes" >= 1 then ()
    else if i > 100 then Alcotest.fail "low-water resume never recorded"
    else begin
      Unix.sleepf 0.02;
      await_resume (i + 1)
    end
  in
  await_resume 0;
  (* the paused connection is fully functional again *)
  check_ok "slow reader resumes service"
    (rpc_fd sbuf slow {|{"id":4000,"op":"ping"}|});
  check_ok "shutdown" (rpc_fd nbuf normal {|{"id":4,"op":"shutdown"}|});
  Unix.close slow;
  Unix.close normal

let test_serve_killed_with_backlog () =
  with_socket_server ~config:backpressure_config @@ fun connect ->
  let doomed = connect () in
  let dbuf = Buffer.create 256 in
  for i = 1 to 100 do
    check_ok "create"
      (rpc_fd dbuf doomed
         (Printf.sprintf {|{"id":%d,"op":"create","cls":"PERSON","key":"q%03d"}|} i i))
  done;
  (* pipeline a pile of saves and vanish: the server is left with a
     non-empty output buffer and a dead peer *)
  let script =
    String.concat ""
      (List.init 200 (fun i ->
           Printf.sprintf {|{"id":%d,"op":"save"}|} (1000 + i) ^ "\n"))
  in
  fd_write_all doomed script;
  Unix.close doomed;
  (* the loop survives and the dead session is reaped *)
  let normal = connect () in
  let nbuf = Buffer.create 256 in
  check_ok "loop alive after the kill"
    (rpc_fd nbuf normal {|{"id":1,"op":"ping"}|});
  let rec await_reap i =
    let stats = rpc_fd nbuf normal {|{"id":2,"op":"stats"}|} in
    if pipeline_stat stats "sessions" = 1 then ()
    else if i > 100 then Alcotest.fail "dead session never reaped"
    else begin
      Unix.sleepf 0.02;
      await_reap (i + 1)
    end
  in
  await_reap 0;
  check_ok "shutdown" (rpc_fd nbuf normal {|{"id":3,"op":"shutdown"}|});
  Unix.close normal

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "integer literals" `Quick test_json_integer_literals;
          Alcotest.test_case "error messages" `Quick test_json_error_messages;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
        ] );
      ( "values",
        [
          Alcotest.test_case "codec round trip" `Quick test_value_codec;
          Alcotest.test_case "rejects floats" `Quick test_value_rejects_float;
        ] );
      ( "errors",
        [
          Alcotest.test_case "wire round trip" `Quick
            test_wire_error_round_trip;
          Alcotest.test_case "troll error codes" `Quick
            test_troll_error_codes;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decode requests" `Quick test_decode_requests;
          Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
        ] );
      ( "step",
        [
          Alcotest.test_case "create and fire" `Quick test_step_create_fire;
          Alcotest.test_case "engine entry points are equivalent" `Quick
            test_step_equivalent_to_engine;
          Alcotest.test_case "no spurious rejection" `Quick
            test_step_rejection_reason;
        ] );
      ( "serve",
        [
          Alcotest.test_case "happy path" `Quick test_serve_happy_path;
          Alcotest.test_case "permission rejected" `Quick
            test_serve_permission_rejected;
          Alcotest.test_case "malformed frame" `Quick
            test_serve_malformed_frame;
          Alcotest.test_case "deadline expiry" `Quick
            test_serve_deadline_expiry;
          Alcotest.test_case "overload" `Quick test_serve_overload;
          Alcotest.test_case "shutdown drain" `Quick
            test_serve_shutdown_drain;
          Alcotest.test_case "frame split across reads mid-UTF-8" `Quick
            test_serve_split_frame;
          Alcotest.test_case "default deadline" `Quick
            test_serve_default_deadline;
          Alcotest.test_case "hello handshake" `Quick test_serve_hello;
          Alcotest.test_case "prepare/commit/abort" `Quick
            test_serve_two_phase;
          Alcotest.test_case "pipelined responses stay FIFO" `Quick
            test_serve_pipelined_fifo;
          Alcotest.test_case "restore of a save with separators in a key"
            `Quick test_serve_restore_separators;
          Alcotest.test_case "probes answer txn_pending while prepared"
            `Quick test_serve_probe_while_prepared;
          Alcotest.test_case "steps batch answers like single frames" `Quick
            test_serve_steps_batch;
          Alcotest.test_case "probes run in place at jobs 1" `Quick
            test_serve_probes_in_place;
          Alcotest.test_case "slow reader pauses and resumes" `Quick
            test_serve_slow_reader;
          Alcotest.test_case "peer killed with backlogged output" `Quick
            test_serve_killed_with_backlog;
        ] );
      ( "framing",
        [
          Alcotest.test_case "server connection" `Quick test_framing_server;
          Alcotest.test_case "stdio session ends after an over-long frame"
            `Quick test_framing_stdio_overlong;
          Alcotest.test_case "router client" `Quick test_framing_router;
        ] );
    ]
