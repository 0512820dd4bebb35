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
    instantiated ([singles = false] defers that to the shard loaders),
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
  (** A sharded session keeps one full engine cell per shard plus the
      facade system ([sys]): the facade's community holds no live
      instance state of its own — it is the schema the partition map is
      validated against and the scratch space {!save} merges the
      per-shard dumps into. *)
  type backend =
    | Single
    | Sharded of {
        map : Shard.map;
        cells : system array;
        parts : Shard.participant array;
      }

  type t = { sys : system; backend : backend }

  let of_system sys = { sys; backend = Single }

  let load ?config source =
    Result.map of_system (load_system ?config source)

  let load_file ?config path =
    match read_file_res path with
    | Error e -> Error e
    | Ok source -> load ?config source

  let partition_error m = Error.Link [ "partition: " ^ m ]

  (** Instantiate exactly the single objects shard [k] owns. *)
  let instantiate_owned map k community =
    Compile.instantiate_singles community ~only:(fun name ->
        Shard.owner_ident map (Ident.singleton name) = Ok k)

  let load_sharded ?config ~shards ?map source =
    match load_system ?config source with
    | Error e -> Error e
    | Ok facade -> (
        let map_r =
          match map with
          | None -> Ok (Shard.auto facade.community ~shards)
          | Some s -> Shard.of_string facade.community s
        in
        match map_r with
        | Error m -> Error (partition_error m)
        | Ok map -> (
            let n = Shard.shards map in
            let rec build k acc =
              if k = n then Ok (List.rev acc)
              else
                match load_system ?config ~singles:false source with
                | Error e -> Error e
                | Ok cell -> (
                    match instantiate_owned map k cell.community with
                    | Error r -> Error (Error.Runtime r)
                    | Ok () -> build (k + 1) (cell :: acc))
            in
            match build 0 [] with
            | Error e -> Error e
            | Ok cells ->
                let cells = Array.of_list cells in
                let parts =
                  Array.map
                    (fun cell -> Shard.local_participant cell.community)
                    cells
                in
                Ok { sys = facade; backend = Sharded { map; cells; parts } }))

  let load_shard_cell ?config ~map:map_s ~shard source =
    match load_system ?config ~singles:false source with
    | Error e -> Error e
    | Ok sys -> (
        match Shard.of_string sys.community map_s with
        | Error m -> Error (partition_error m)
        | Ok map ->
            if shard < 0 || shard >= Shard.shards map then
              Error (Error.Runtime (Runtime_error.Unknown_shard shard))
            else (
              match instantiate_owned map shard sys.community with
              | Error r -> Error (Error.Runtime r)
              | Ok () -> Ok { sys; backend = Single }))

  let system s = s.sys
  let community s = s.sys.community
  let spec s = s.sys.spec
  let diagnostics s = s.sys.diagnostics

  let shard_map s =
    match s.backend with Single -> None | Sharded { map; _ } -> Some map

  let shard_count s =
    match s.backend with
    | Single -> 1
    | Sharded { map; _ } -> Shard.shards map

  let step s req =
    match s.backend with
    | Single -> Engine.step s.sys.community req
    | Sharded { map; parts; _ } -> Shard.coordinate map parts req

  let attr_in community target name : (Value.t, Error.t) result =
    match Community.find_object community target with
    | None -> Error (Error.Runtime (Runtime_error.Unknown_object target))
    | Some o -> (
        match Eval.read_attr community o name [] with
        | v -> Ok v
        | exception Runtime_error.Error r -> Error (Error.Runtime r))

  let attr s target name : (Value.t, Error.t) result =
    match s.backend with
    | Single -> attr_in s.sys.community target name
    | Sharded { map; cells; _ } -> (
        match Shard.owner_ident map target with
        | Error r -> Error (Error.Runtime r)
        | Ok k when k < 0 || k >= Array.length cells ->
            Error (Error.Runtime (Runtime_error.Unknown_shard k))
        | Ok k -> attr_in cells.(k).community target name)

  let eval s (source : string) : (Value.t, Error.t) result =
    match s.backend with
    | Sharded _ ->
        Error
          (Error.Runtime
             (Runtime_error.Unsupported
                "global evaluation is not available on a sharded session"))
    | Single -> (
        match Parser.expr_of_string source with
        | Error e -> Error (Error.Parse e)
        | Ok e -> (
            match Eval.expr s.sys.community ~env:Env.empty ~self:None e with
            | v -> Ok v
            | exception Runtime_error.Error r -> Error (Error.Runtime r)))

  let extension s cls =
    match s.backend with
    | Single -> Ident.Set.elements (Community.extension s.sys.community cls)
    | Sharded { cells; _ } ->
        Ident.Set.elements
          (Array.fold_left
             (fun acc cell ->
               Ident.Set.union acc (Community.extension cell.community cls))
             Ident.Set.empty cells)

  let run_active ?(fuel = 1000) s =
    match s.backend with
    | Single -> Engine.run_active s.sys.community ~fuel
    | Sharded { cells; _ } ->
        Array.to_list cells
        |> List.concat_map (fun cell ->
               Engine.run_active cell.community ~fuel)

  let save s =
    match s.backend with
    | Single -> Persist.save s.sys.community
    | Sharded { cells; _ } -> (
        (* per-shard extensions are disjoint, and {!Persist.save} orders
           objects by identity, so the merged dump is independent of the
           partition *)
        let facade = s.sys.community in
        match
          Persist.merge facade
            (Array.to_list
               (Array.map (fun cell -> Persist.save cell.community) cells))
        with
        | Ok () -> Persist.save facade
        | Error m -> invalid_arg ("Session.save: shard merge: " ^ m))

  let view s name = List.assoc_opt name s.sys.views
  let views s = s.sys.views
end

let step = Session.step

(* ------------------------------------------------------------------ *)
(* Identities                                                          *)
(* ------------------------------------------------------------------ *)

let ident cls key = Ident.make cls key
