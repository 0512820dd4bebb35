(** Wire protocol codecs — see the interface and docs/PROTOCOL.md. *)

(* ------------------------------------------------------------------ *)
(* Value codec                                                         *)
(* ------------------------------------------------------------------ *)

let rec value_to_json (v : Value.t) : Json.t =
  match v with
  | Value.Undefined -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Int i
  | Value.String s -> Json.String s
  | Value.Date d -> Json.Obj [ ("$date", Json.String (Date_adt.to_string d)) ]
  | Value.Money m ->
      Json.Obj [ ("$money", Json.String (Money.to_string m)) ]
  | Value.Enum (enum, const) ->
      Json.Obj
        [ ("$enum", Json.List [ Json.String enum; Json.String const ]) ]
  | Value.Id (cls, key) ->
      Json.Obj
        [
          ( "$id",
            Json.Obj
              [ ("cls", Json.String cls); ("key", value_to_json key) ] );
        ]
  | Value.Set elems ->
      Json.Obj [ ("$set", Json.List (List.map value_to_json elems)) ]
  | Value.List elems -> Json.List (List.map value_to_json elems)
  | Value.Map bindings ->
      Json.Obj
        [
          ( "$map",
            Json.List
              (List.map
                 (fun (k, v) ->
                   Json.List [ value_to_json k; value_to_json v ])
                 bindings) );
        ]
  | Value.Tuple fields ->
      Json.Obj
        [
          ( "$tuple",
            Json.Obj
              (List.map (fun (n, v) -> (n, value_to_json v)) fields) );
        ]

let rec value_of_json (j : Json.t) : (Value.t, string) result =
  let ( let* ) = Result.bind in
  let rec values acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest ->
        let* v = value_of_json j in
        values (v :: acc) rest
  in
  match j with
  | Json.Null -> Ok Value.Undefined
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Int i -> Ok (Value.Int i)
  | Json.Float _ -> Error "the value universe has no float type"
  | Json.String s -> Ok (Value.String s)
  | Json.List elems ->
      let* vs = values [] elems in
      Ok (Value.List vs)
  | Json.Obj [ ("$date", Json.String s) ] -> (
      match Date_adt.of_string s with
      | Some d -> Ok (Value.Date d)
      | None -> Error (Printf.sprintf "malformed date %S" s))
  | Json.Obj [ ("$date", Json.Int days) ] -> Ok (Value.Date days)
  | Json.Obj [ ("$money", Json.String s) ] -> (
      match Money.of_string s with
      | Some m -> Ok (Value.Money m)
      | None -> Error (Printf.sprintf "malformed money amount %S" s))
  | Json.Obj [ ("$money", Json.Int cents) ] ->
      Ok (Value.Money (Money.of_cents cents))
  | Json.Obj [ ("$enum", Json.List [ Json.String enum; Json.String const ]) ]
    ->
      Ok (Value.Enum (enum, const))
  | Json.Obj [ ("$id", body) ] -> (
      match (Json.member "cls" body, Json.member "key" body) with
      | Json.String cls, key_json ->
          let* key = value_of_json key_json in
          Ok (Value.Id (cls, key))
      | _ -> Error "$id needs {\"cls\": string, \"key\": value}")
  | Json.Obj [ ("$set", Json.List elems) ] ->
      let* vs = values [] elems in
      Ok (Value.set vs)
  | Json.Obj [ ("$map", Json.List pairs) ] ->
      let rec bindings acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ kj; vj ] :: rest ->
            let* k = value_of_json kj in
            let* v = value_of_json vj in
            bindings ((k, v) :: acc) rest
        | _ -> Error "$map entries must be [key, value] pairs"
      in
      let* bs = bindings [] pairs in
      Ok (Value.map bs)
  | Json.Obj [ ("$tuple", Json.Obj fields) ] ->
      let rec tuple acc = function
        | [] -> Ok (List.rev acc)
        | (n, vj) :: rest ->
            let* v = value_of_json vj in
            tuple ((n, v) :: acc) rest
      in
      let* fs = tuple [] fields in
      Ok (Value.Tuple fs)
  | Json.Obj _ -> Error "objects must be a single $-tagged constructor"

let ident_to_json (id : Ident.t) : Json.t =
  Json.Obj
    [
      ("cls", Json.String id.Ident.cls);
      ("key", value_to_json id.Ident.key);
    ]

let ident_of_json j : (Ident.t, string) result =
  match Json.member "cls" j with
  | Json.String cls -> (
      match value_of_json (Json.member "key" j) with
      | Ok key -> Ok (Ident.make cls key)
      | Error e -> Error (Printf.sprintf "bad key: %s" e))
  | _ -> Error "missing \"cls\" field"

let event_to_json (ev : Event.t) : Json.t =
  Json.Obj
    [
      ("cls", Json.String ev.Event.target.Ident.cls);
      ("key", value_to_json ev.Event.target.Ident.key);
      ("event", Json.String ev.Event.name);
      ("args", Json.List (List.map value_to_json ev.Event.args));
    ]

let args_of_json j : (Value.t list, string) result =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | aj :: rest -> (
        match value_of_json aj with
        | Ok v -> loop (v :: acc) rest
        | Error e -> Error (Printf.sprintf "bad argument: %s" e))
  in
  loop [] (Json.to_list (Json.member "args" j))

let event_of_json j : (Event.t, string) result =
  match ident_of_json j with
  | Error e -> Error e
  | Ok target -> (
      match Json.member "event" j with
      | Json.String name -> (
          match args_of_json j with
          | Ok args -> Ok (Event.make target name args)
          | Error e -> Error e)
      | _ -> Error "missing \"event\" field")

let events_of_json j ~field : (Event.t list, string) result =
  match Json.member field j with
  | Json.List items ->
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | ej :: rest -> (
            match event_of_json ej with
            | Ok ev -> loop (ev :: acc) rest
            | Error e -> Error e)
      in
      loop [] items
  | _ -> Error (Printf.sprintf "missing %S list" field)

(* ------------------------------------------------------------------ *)
(* Structured error frames                                             *)
(* ------------------------------------------------------------------ *)

module Wire_error = struct
  type t = { code : string; message : string; loc : (int * int) option }

  let make ?loc ~code message = { code; message; loc }

  let of_error (e : Troll.Error.t) : t =
    {
      code = Troll.Error.code e;
      message = Troll.Error.message e;
      loc =
        Option.map
          (fun (l : Loc.t) ->
            (l.Loc.start_pos.Loc.line, l.Loc.start_pos.Loc.col))
          (Troll.Error.loc e);
    }

  let of_reason r = of_error (Troll.Error.Runtime r)

  let to_json { code; message; loc } : Json.t =
    Json.Obj
      (("code", Json.String code)
      :: ("message", Json.String message)
      ::
      (match loc with
      | None -> []
      | Some (line, col) ->
          [
            ( "loc",
              Json.Obj [ ("line", Json.Int line); ("col", Json.Int col) ]
            );
          ]))

  let of_json j : (t, string) result =
    match (Json.member "code" j, Json.member "message" j) with
    | Json.String code, Json.String message -> (
        match Json.member "loc" j with
        | Json.Null -> Ok { code; message; loc = None }
        | loc_json -> (
            match
              ( Json.to_int_opt (Json.member "line" loc_json),
                Json.to_int_opt (Json.member "col" loc_json) )
            with
            | Some line, Some col ->
                Ok { code; message; loc = Some (line, col) }
            | _ -> Error "malformed \"loc\" field"))
    | _ -> Error "error frame needs \"code\" and \"message\" strings"

  let equal a b =
    String.equal a.code b.code
    && String.equal a.message b.message
    && a.loc = b.loc
end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type view_query = Rows | Members

(* Protocol version spoken by this build.  Bumped on incompatible wire
   changes; [hello] lets a peer fail fast on a mismatch. *)
let version = 1

type request =
  | Ping
  | Hello of { version : int; caps : string list }
  | Step of Step.t
  | Steps of Step.t list
  | Prepare of Step.t
  | Commit
  | Abort
  | Catchup of { base : string option; records : string list }
  | Attr of { target : Ident.t; attr : string }
  | Eval of string
  | Extension of string
  | Enabled of Ident.t
  | Candidates of Ident.t
  | View of { view : string; what : view_query }
  | Save of string option
  | Restore of { path : string option; state : string option }
  | Snapshot
  | Stats
  | Shutdown

type envelope = {
  req_id : Json.t;
  deadline_ms : int option;
  request : (request, string) result;
}

let string_field j name : (string, string) result =
  match Json.member name j with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "missing %S string field" name)

let opt_string_field j name : string option =
  Json.to_string_opt (Json.member name j)

let rec decode_request (j : Json.t) : (request, string) result =
  let ( let* ) = Result.bind in
  match Json.member "op" j with
  | Json.String "ping" -> Ok Ping
  | Json.String "hello" -> (
      match Json.to_int_opt (Json.member "version" j) with
      | None -> Error "hello needs an integer \"version\""
      | Some version -> (
          match Json.member "caps" j with
          | Json.Null -> Ok (Hello { version; caps = [] })
          | Json.List items ->
              let rec caps acc = function
                | [] -> Ok (Hello { version; caps = List.rev acc })
                | Json.String c :: rest -> caps (c :: acc) rest
                | _ -> Error "\"caps\" must be a list of strings"
              in
              caps [] items
          | _ -> Error "\"caps\" must be a list of strings"))
  | Json.String "prepare" -> (
      match Json.member "step" j with
      | Json.Obj _ as step_j -> (
          let* sub = decode_request step_j in
          match sub with
          | Step s -> Ok (Prepare s)
          | _ -> Error "\"step\" must be a step-shaped request")
      | _ -> Error "prepare needs a \"step\" object")
  | Json.String "steps" -> (
      match Json.member "steps" j with
      | Json.List items ->
          let rec loop acc = function
            | [] -> Ok (Steps (List.rev acc))
            | (Json.Obj _ as step_j) :: rest -> (
                let* sub = decode_request step_j in
                match sub with
                | Step s -> loop (s :: acc) rest
                | _ -> Error "\"steps\" entries must be step-shaped requests")
            | _ -> Error "\"steps\" entries must be step-shaped requests"
          in
          loop [] items
      | _ -> Error "steps needs a \"steps\" list")
  | Json.String "commit" -> Ok Commit
  | Json.String "abort" -> Ok Abort
  | Json.String "catchup" -> (
      let base = opt_string_field j "base" in
      match Json.member "records" j with
      | Json.Null -> Ok (Catchup { base; records = [] })
      | Json.List items ->
          let rec records acc = function
            | [] -> Ok (Catchup { base; records = List.rev acc })
            | Json.String r :: rest -> records (r :: acc) rest
            | _ -> Error "\"records\" must be a list of strings"
          in
          records [] items
      | _ -> Error "\"records\" must be a list of strings")
  | Json.String "create" ->
      let* cls = string_field j "cls" in
      let* key =
        Result.map_error
          (fun e -> Printf.sprintf "bad key: %s" e)
          (value_of_json (Json.member "key" j))
      in
      let* args = args_of_json j in
      Ok
        (Step (Step.Create { cls; key; event = opt_string_field j "event"; args }))
  | Json.String "destroy" ->
      let* id = ident_of_json j in
      let* args = args_of_json j in
      Ok (Step (Step.Destroy { id; event = opt_string_field j "event"; args }))
  | Json.String "fire" ->
      let* ev = event_of_json j in
      Ok (Step (Step.Fire ev))
  | Json.String "batch" ->
      let* evs = events_of_json j ~field:"events" in
      Ok (Step (Step.Seq evs))
  | Json.String "sync" ->
      let* evs = events_of_json j ~field:"events" in
      Ok (Step (Step.Sync evs))
  | Json.String "txn" -> (
      match Json.member "steps" j with
      | Json.List micro ->
          let rec loop acc = function
            | [] -> Ok (Step (Step.Txn (List.rev acc)))
            | step_j :: rest -> (
                let rec events acc = function
                  | [] -> Ok (List.rev acc)
                  | ej :: more -> (
                      match event_of_json ej with
                      | Ok ev -> events (ev :: acc) more
                      | Error e -> Error e)
                in
                match events [] (Json.to_list step_j) with
                | Ok evs -> loop (evs :: acc) rest
                | Error e -> Error e)
          in
          loop [] micro
      | _ -> Error "missing \"steps\" list")
  | Json.String "attr" ->
      let* target = ident_of_json j in
      let* attr = string_field j "attr" in
      Ok (Attr { target; attr })
  | Json.String "eval" ->
      let* expr = string_field j "expr" in
      Ok (Eval expr)
  | Json.String "extension" ->
      let* cls = string_field j "cls" in
      Ok (Extension cls)
  | Json.String "enabled" ->
      let* id = ident_of_json j in
      Ok (Enabled id)
  | Json.String "candidates" ->
      let* id = ident_of_json j in
      Ok (Candidates id)
  | Json.String "view" -> (
      let* view = string_field j "view" in
      match opt_string_field j "what" with
      | None | Some "rows" -> Ok (View { view; what = Rows })
      | Some "members" -> Ok (View { view; what = Members })
      | Some other ->
          Error (Printf.sprintf "unknown view query %S" other))
  | Json.String "save" -> Ok (Save (opt_string_field j "path"))
  | Json.String "restore" -> (
      let path = opt_string_field j "path" in
      let state = opt_string_field j "state" in
      match (path, state) with
      | None, None -> Error "restore needs a \"path\" or a \"state\""
      | _ -> Ok (Restore { path; state }))
  | Json.String "snapshot" -> Ok Snapshot
  | Json.String "stats" -> Ok Stats
  | Json.String "shutdown" -> Ok Shutdown
  | Json.String op -> Error (Printf.sprintf "unknown op %S" op)
  | Json.Null -> Error "missing \"op\" field"
  | _ -> Error "\"op\" must be a string"

let decode (j : Json.t) : envelope =
  {
    req_id = Json.member "id" j;
    deadline_ms = Json.to_int_opt (Json.member "deadline_ms" j);
    request = decode_request j;
  }

let op_name = function
  | Ping -> "ping"
  | Hello _ -> "hello"
  | Prepare _ -> "prepare"
  | Commit -> "commit"
  | Abort -> "abort"
  | Catchup _ -> "catchup"
  | Step (Step.Create _) -> "create"
  | Step (Step.Destroy _) -> "destroy"
  | Step (Step.Fire _) -> "fire"
  | Step (Step.Seq _) -> "batch"
  | Step (Step.Sync _) -> "sync"
  | Step (Step.Txn _) -> "txn"
  | Steps _ -> "steps"
  | Attr _ -> "attr"
  | Eval _ -> "eval"
  | Extension _ -> "extension"
  | Enabled _ -> "enabled"
  | Candidates _ -> "candidates"
  | View _ -> "view"
  | Save _ -> "save"
  | Restore _ -> "restore"
  | Snapshot -> "snapshot"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let request_of_step ~id (s : Step.t) : Json.t =
  let sync_to_json evs = Json.List (List.map event_to_json evs) in
  let fields =
    match s with
    | Step.Fire ev -> (
        match event_to_json ev with
        | Json.Obj fs -> ("op", Json.String "fire") :: fs
        | _ -> assert false)
    | Step.Sync evs -> [ ("op", Json.String "sync"); ("events", sync_to_json evs) ]
    | Step.Seq evs -> [ ("op", Json.String "batch"); ("events", sync_to_json evs) ]
    | Step.Txn micro ->
        [
          ("op", Json.String "txn");
          ("steps", Json.List (List.map sync_to_json micro));
        ]
    | Step.Create { cls; key; event; args } ->
        ("op", Json.String "create")
        :: ("cls", Json.String cls)
        :: ("key", value_to_json key)
        :: ("args", Json.List (List.map value_to_json args))
        :: (match event with
           | None -> []
           | Some e -> [ ("event", Json.String e) ])
    | Step.Destroy { id; event; args } ->
        ("op", Json.String "destroy")
        :: ("cls", Json.String id.Ident.cls)
        :: ("key", value_to_json id.Ident.key)
        :: ("args", Json.List (List.map value_to_json args))
        :: (match event with
           | None -> []
           | Some e -> [ ("event", Json.String e) ])
  in
  Json.Obj (("id", id) :: fields)

let wal_frame records : Json.t =
  Json.Obj
    [
      ( "wal",
        Json.List
          (List.map
             (fun (seq, payload) ->
               Json.Obj
                 [ ("seq", Json.Int seq); ("payload", Json.String payload) ])
             records) );
    ]

let ok_frame ~id result : Json.t =
  Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error_frame ~id err : Json.t =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false); ("error", Wire_error.to_json err) ]

let outcome_to_json (o : Engine.outcome) : Json.t =
  Json.Obj
    [
      ( "committed",
        Json.List
          (List.map
             (fun sync -> Json.List (List.map event_to_json sync))
             o.Engine.committed) );
      ("created", Json.List (List.map ident_to_json o.Engine.created));
      ("destroyed", Json.List (List.map ident_to_json o.Engine.destroyed));
    ]

let enabled_to_json names : Json.t =
  Json.Obj [ ("events", Json.List (List.map (fun n -> Json.String n) names)) ]

let candidates_to_json cands : Json.t =
  Json.Obj
    [
      ( "candidates",
        Json.List
          (List.map
             (fun (name, params, en) ->
               Json.Obj
                 ([
                    ("event", Json.String name);
                    ( "params",
                      Json.List
                        (List.map
                           (fun ty -> Json.String (Vtype.to_string ty))
                           params) );
                  ]
                 @
                 match en with
                 | None -> []
                 | Some b -> [ ("enabled", Json.Bool b) ]))
             cands) );
    ]
