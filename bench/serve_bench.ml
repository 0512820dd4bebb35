(* E11: socket RTT throughput of `trollc serve`.
 *
 * Forks a server child on a Unix-domain socket, then drives a mixed
 * 1k-request workload synchronously (pipeline depth 1 — the
 * many-connection pipelined arms are E20) and
 * measures per-request round-trip times.  Along the way it checks the
 * zero-leak property: a rejected or deadline-expired request must
 * leave the community state bit-identical (compared via inline `save`
 * snapshots).  Results go to BENCH_E11.json with provenance fields.
 *
 * Usage: serve_bench [-n REQUESTS] [-o BENCH_E11.json] [SPEC.trl]
 *)

let default_spec = "examples/specs/dept.trl"
let default_out = "BENCH_E11.json"

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* ---------------------------------------------------------------- *)
(* Synchronous client                                                *)
(* ---------------------------------------------------------------- *)

type client = { ic : in_channel; oc : out_channel }

let rpc cl (obj : Json.t) : Json.t =
  output_string cl.oc (Frame.to_line obj);
  flush cl.oc;
  match input_line cl.ic with
  | exception End_of_file -> fail "server closed the connection"
  | line -> (
      match Json.of_string line with
      | Ok j -> j
      | Error e -> fail "unparseable response %S: %s" line e)

let is_ok resp = Json.member "ok" resp = Json.Bool true

let error_code resp =
  Json.to_string_opt (Json.member "code" (Json.member "error" resp))

let expect_ok what resp =
  if not (is_ok resp) then
    fail "%s failed: %s" what (Json.to_string resp);
  resp

let expect_error what code resp =
  if is_ok resp then fail "%s unexpectedly succeeded" what;
  match error_code resp with
  | Some c when c = code -> ()
  | c ->
      fail "%s: expected code %s, got %s" what code
        (Option.value c ~default:"<none>")

(* ---------------------------------------------------------------- *)
(* Request builders                                                  *)
(* ---------------------------------------------------------------- *)

let person i = Printf.sprintf "p%02d" i

let id_arg i =
  Json.Obj
    [
      ( "$id",
        Json.Obj
          [ ("cls", Json.String "PERSON"); ("key", Json.String (person i)) ]
      );
    ]

let req ?deadline_ms id fields =
  Json.Obj
    ((("id", Json.Int id) :: fields)
    @ match deadline_ms with
      | None -> []
      | Some ms -> [ ("deadline_ms", Json.Int ms) ])

let op name = ("op", Json.String name)

let create_person id i =
  req id [ op "create"; ("cls", Json.String "PERSON");
           ("key", Json.String (person i)) ]

let dept_event ?deadline_ms id name args =
  req ?deadline_ms id
    [ op "fire"; ("cls", Json.String "DEPT"); ("key", Json.String "sales");
      ("event", Json.String name); ("args", Json.List args) ]

(* ---------------------------------------------------------------- *)
(* The workload                                                      *)
(* ---------------------------------------------------------------- *)

let () =
  let requests = ref 1000 in
  let out_path = ref default_out in
  let spec = ref default_spec in
  let rec parse = function
    | [] -> ()
    | "-n" :: n :: rest -> requests := int_of_string n; parse rest
    | "-o" :: p :: rest -> out_path := p; parse rest
    | s :: rest -> spec := s; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));

  let session =
    match Troll.Session.load_file !spec with
    | Ok s -> s
    | Error e -> fail "cannot load %s: %s" !spec (Troll.Error.to_string e)
  in

  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "troll-serve-bench-%d.sock" (Unix.getpid ()))
  in
  (match Unix.fork () with
  | 0 ->
      (* server child: serve until the client sends `shutdown` *)
      let server = Server.create session in
      Server.listen_unix server ~path:socket_path;
      exit 0
  | _pid -> ());

  (* wait for the socket to appear *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
  do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Sys.file_exists socket_path) then fail "server never bound socket";

  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX socket_path);
  let cl =
    { ic = Unix.in_channel_of_descr sock; oc = Unix.out_channel_of_descr sock }
  in

  let rtts = ref [] in
  let sent = ref 0 in
  let ok = ref 0 in
  let rejected = ref 0 in
  let expired = ref 0 in
  let timed_rpc obj =
    incr sent;
    let t0 = Unix.gettimeofday () in
    let resp = rpc cl obj in
    rtts := (Unix.gettimeofday () -. t0) :: !rtts;
    (if is_ok resp then incr ok
     else
       match error_code resp with
       | Some "deadline_expired" -> incr expired
       | _ -> incr rejected);
    resp
  in
  let next_id = ref 0 in
  let fresh_id () = incr next_id; !next_id in

  let n_persons = 50 in
  let t_start = Unix.gettimeofday () in

  (* setup: one department, a population of persons *)
  ignore
    (expect_ok "establishment"
       (timed_rpc
          (req (fresh_id ())
             [ op "create"; ("cls", Json.String "DEPT");
               ("key", Json.String "sales");
               ("args",
                Json.List [ Json.Obj [ ("$date", Json.String "1991-03-21") ] ])
             ])));
  for i = 0 to n_persons - 1 do
    ignore (expect_ok "create person" (timed_rpc (create_person (fresh_id ()) i)))
  done;

  (* steady state: a deterministic mixed request stream.  Persons
     cycle through hire -> (rejected re-hire) -> fire, interleaved
     with reads. *)
  let hired = Array.make n_persons false in
  while !sent < !requests - 10 do
    let i = !sent mod 10 in
    let p = !sent / 10 mod n_persons in
    let r =
      match i with
      | 0 | 1 | 2 | 3 ->
          if hired.(p) then begin
            hired.(p) <- false;
            timed_rpc (dept_event (fresh_id ()) "fire" [ id_arg p ])
          end
          else begin
            hired.(p) <- true;
            timed_rpc (dept_event (fresh_id ()) "hire" [ id_arg p ])
          end
      | 4 ->
          timed_rpc
            (req (fresh_id ())
               [ op "attr"; ("cls", Json.String "DEPT");
                 ("key", Json.String "sales");
                 ("attr", Json.String "employees") ])
      | 5 ->
          timed_rpc
            (req (fresh_id ())
               [ op "eval";
                 ("expr", Json.String "DEPT(\"sales\").employees") ])
      | 6 -> timed_rpc (req (fresh_id ()) [ op "ping" ])
      | 7 ->
          (* a guaranteed rejection: re-hire if hired, else fire an
             unhired person who has been hired sometime before *)
          if hired.(p) then
            timed_rpc (dept_event (fresh_id ()) "hire" [ id_arg p ])
          else timed_rpc (req (fresh_id ()) [ op "extension";
                                             ("cls", Json.String "NOSUCH") ])
      | 8 -> timed_rpc (req (fresh_id ()) [ op "extension";
                                            ("cls", Json.String "PERSON") ])
      | _ ->
          timed_rpc
            (req (fresh_id ())
               [ op "view"; ("view", Json.String "PERSON") ])
    in
    ignore r
  done;

  (* zero-leak check: snapshots around a rejected and an expired
     request must be bit-identical *)
  let snapshot () =
    let resp =
      expect_ok "save" (timed_rpc (req (fresh_id ()) [ op "save" ]))
    in
    match Json.to_string_opt (Json.member "state" (Json.member "result" resp))
    with
    | Some s -> s
    | None -> fail "save returned no state"
  in
  let victim =
    (* someone currently employed, so re-hiring is denied *)
    let rec find i = if hired.(i) then i else find (i + 1) in
    (try find 0
     with _ ->
       hired.(0) <- true;
       ignore
         (expect_ok "hire victim"
            (timed_rpc (dept_event (fresh_id ()) "hire" [ id_arg 0 ])));
       0)
  in
  let s1 = snapshot () in
  expect_error "re-hire" "permission_denied"
    (timed_rpc (dept_event (fresh_id ()) "hire" [ id_arg victim ]));
  let s2 = snapshot () in
  expect_error "expired fire" "deadline_expired"
    (timed_rpc
       (dept_event ~deadline_ms:0 (fresh_id ()) "fire" [ id_arg victim ]));
  let s3 = snapshot () in
  let leak_free = String.equal s1 s2 && String.equal s2 s3 in
  if not leak_free then fail "state leak: snapshots differ around rejection";

  ignore (expect_ok "stats" (timed_rpc (req (fresh_id ()) [ op "stats" ])));
  ignore
    (expect_ok "shutdown" (timed_rpc (req (fresh_id ()) [ op "shutdown" ])));
  let wall_s = Unix.gettimeofday () -. t_start in
  close_out_noerr cl.oc;
  ignore (Unix.wait ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());

  (* report *)
  let rtts = Array.of_list !rtts in
  Array.sort compare rtts;
  let n = Array.length rtts in
  let us x = x *. 1e6 in
  let pct p = us rtts.(min (n - 1) (int_of_float (float_of_int n *. p))) in
  let mean = us (Array.fold_left ( +. ) 0. rtts /. float_of_int n) in
  let doc =
    Json.Obj
      ([
        ("experiment", Json.String "E11");
        ( "description",
          Json.String
            "socket RTT throughput: mixed workload against trollc serve \
             over a Unix-domain socket, driven synchronously (pipeline \
             depth 1; see E20 for the pipelined many-connection arms)" );
        ("pipeline_depth", Json.Int 1);
      ]
      @ Workload.provenance ()
      @ [
        ("spec", Json.String !spec);
        ("requests", Json.Int !sent);
        ("ok", Json.Int !ok);
        ("rejected", Json.Int !rejected);
        ("expired", Json.Int !expired);
        ("wall_s", Json.Float wall_s);
        ( "req_per_s",
          Json.Float (Float.round (float_of_int !sent /. wall_s)) );
        ( "rtt_us",
          Json.Obj
            [
              ("mean", Json.Float (Float.round mean));
              ("p50", Json.Float (Float.round (pct 0.50)));
              ("p99", Json.Float (Float.round (pct 0.99)));
              ("max", Json.Float (Float.round (us rtts.(n - 1))));
            ] );
        ("state_leak_check", Json.String "bit-identical");
      ])
  in
  let oc = open_out !out_path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "E11: %d requests in %.3f s (%.0f req/s); rtt mean %.0f us, p50 %.0f \
     us, p99 %.0f us; ok %d, rejected %d, expired %d; state leak check: \
     bit-identical\nwrote %s\n"
    !sent wall_s
    (float_of_int !sent /. wall_s)
    mean (pct 0.50) (pct 0.99) !ok !rejected !expired !out_path
