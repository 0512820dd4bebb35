(** TROLL — the umbrella API.

    A reproduction of the language and system of Saake, Jungclaus &
    Ehrich, "Object-Oriented Specification and Stepwise Refinement"
    (1991).  The pipeline is

    {v  source —parse→ Ast.spec —check→ diagnostics
               —compile→ Community (+ interface views) —animate→ Engine v}

    Quickstart (the session API):
    {[
      match Troll.Session.load source with
      | Error e -> prerr_endline (Troll.Error.to_string e)
      | Ok s ->
          let dept = Troll.ident "DEPT" (Value.String "sales") in
          (match
             Troll.step s
               (Step.Create
                  { cls = "DEPT"; key = Value.String "sales";
                    event = None; args = [ Value.Date 7779 ] })
           with
          | Ok _ -> ...
          | Error reason -> ...)
    ]}

    The lower layers remain fully accessible: [Parser], [Typecheck],
    [Compile], [Engine], [Community], [Interface], [Refinement],
    [Schema], [Society], … *)

type system = {
  spec : Ast.spec;
  community : Community.t;
  views : (string * Interface.t) list;  (** interface classes by name *)
  diagnostics : Check_error.t list;  (** warnings from checking *)
}

(* ------------------------------------------------------------------ *)
(* Structured errors                                                   *)
(* ------------------------------------------------------------------ *)

module Error = struct
  type t =
    | Parse of Parse_error.t
    | Check of Check_error.t
    | Link of string list
    | Runtime of Runtime_error.reason
    | Io of string

  let code = function
    | Parse _ -> "parse_error"
    | Check _ -> "check_error"
    | Link _ -> "link_error"
    | Runtime r -> Runtime_error.code r
    | Io _ -> "io_error"

  let message = function
    | Parse e -> e.Parse_error.message
    | Check e -> e.Check_error.message
    | Link diags -> String.concat "; " diags
    | Runtime r -> Runtime_error.reason_to_string r
    | Io m -> m

  let loc = function
    | Parse e -> Some e.Parse_error.loc
    | Check e -> Some e.Check_error.loc
    | Link _ | Runtime _ | Io _ -> None

  let pp ppf = function
    | Parse e -> Parse_error.pp ppf e
    | Check e -> Check_error.pp ppf e
    | Link diags ->
        Format.fprintf ppf "link error: %s" (String.concat "; " diags)
    | Runtime r -> Runtime_error.pp_reason ppf r
    | Io m -> Format.fprintf ppf "io error: %s" m

  let to_string e = Format.asprintf "%a" pp e
end

(* ------------------------------------------------------------------ *)
(* Front end                                                           *)
(* ------------------------------------------------------------------ *)

(** Parse a specification source text, keeping the error structure. *)
let parse_spec (source : string) : (Ast.spec, Error.t) result =
  match Parser.spec source with
  | Ok spec -> Ok spec
  | Error e -> Error (Error.Parse e)

(** Statically check a parsed specification. *)
let check = Typecheck.check

(** Pretty-print a specification back to concrete syntax. *)
let pretty = Pretty.spec_to_string

(** Parse, check and compile a specification; single objects are
    instantiated ([singles = false] defers that to {!Session.load_shard_cell}),
    interface classes become ready-to-use views.  Checking errors abort;
    warnings are carried in the result. *)
let load_system ?(config = Community.default_config) ?(singles = true)
    (source : string) : (system, Error.t) result =
  match parse_spec source with
  | Error e -> Error e
  | Ok spec -> (
      let diagnostics = check spec in
      match List.filter Check_error.is_error diagnostics with
      | e :: _ -> Error (Error.Check e)
      | [] -> (
          (* modules link through the society layer; plain declarations
             compile directly *)
          let society, rest = Society.of_spec spec in
          let linked =
            if society.Society.modules = [] then Ok rest
            else
              match Society.link society with
              | Ok module_decls -> Ok (module_decls @ rest)
              | Error diags -> Error (Error.Link diags)
          in
          match linked with
          | Error e -> Error e
          | Ok decls -> (
              match Compile.spec ~config decls with
              | Error e ->
                  (* a compile error is a late static diagnostic *)
                  Error
                    (Error.Check
                       (Check_error.error "%s" (Compile.error_to_string e)))
              | Ok (community, iface_decls) -> (
                  let instantiated =
                    if singles then Compile.instantiate_singles community
                    else Ok ()
                  in
                  match instantiated with
                  | Error r -> Error (Error.Runtime r)
                  | Ok () ->
                      let views =
                        List.map
                          (fun (d : Ast.iface_decl) ->
                            (d.Ast.if_name, Interface.make community d))
                          iface_decls
                      in
                      Ok { spec; community; views; diagnostics }))))

let read_file_res path : (string, Error.t) result =
  match Persist.read_file path with
  | source -> Ok source
  | exception Sys_error m -> Error (Error.Io m)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = system

  let of_system sys = sys
  let load ?config source = load_system ?config source

  let load_file ?config path =
    match read_file_res path with
    | Error e -> Error e
    | Ok source -> load ?config source

  let load_shard_cell ?config ~map:map_s ~shard source =
    match load_system ?config ~singles:false source with
    | Error e -> Error e
    | Ok sys -> (
        match Shard.of_string sys.community map_s with
        | Error m -> Error (Error.Link [ "partition: " ^ m ])
        | Ok map ->
            if shard < 0 || shard >= Shard.shards map then
              Error (Error.Runtime (Runtime_error.Unknown_shard shard))
            else
              (* instantiate exactly the single objects this shard owns *)
              match
                Compile.instantiate_singles sys.community ~only:(fun name ->
                    Shard.owner_ident map (Ident.singleton name) = Ok shard)
              with
              | Error r -> Error (Error.Runtime r)
              | Ok () -> Ok sys)

  let system s = s
  let community s = s.community
  let spec s = s.spec
  let diagnostics s = s.diagnostics
  let step s req = Engine.step s.community req

  let attr s target name : (Value.t, Error.t) result =
    match Community.find_object s.community target with
    | None -> Error (Error.Runtime (Runtime_error.Unknown_object target))
    | Some o -> (
        match Eval.read_attr s.community o name [] with
        | v -> Ok v
        | exception Runtime_error.Error r -> Error (Error.Runtime r))

  let eval s (source : string) : (Value.t, Error.t) result =
    match Parser.expr_of_string source with
    | Error e -> Error (Error.Parse e)
    | Ok e -> (
        match Eval.expr s.community ~env:Env.empty ~self:None e with
        | v -> Ok v
        | exception Runtime_error.Error r -> Error (Error.Runtime r))

  let extension s cls = Ident.Set.elements (Community.extension s.community cls)
  let run_active ?(fuel = 1000) s = Engine.run_active s.community ~fuel
  let save s = Persist.save s.community
  let view s name = List.assoc_opt name s.views
  let views s = s.views
end

let step = Session.step

(* ------------------------------------------------------------------ *)
(* Identities                                                          *)
(* ------------------------------------------------------------------ *)

let ident cls key = Ident.make cls key
