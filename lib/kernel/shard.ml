(** Sharded object societies — partition maps and the two-phase
    decision.  See the interface and [docs/SHARDING.md]. *)

open Runtime_error

(* ------------------------------------------------------------------ *)
(* Cross-class references                                              *)
(* ------------------------------------------------------------------ *)

(** Walk every expression, guard and event term of a template, emitting
    each object reference and each class quantified over.  [groups]
    turns the emissions into graph edges; [by_hash] re-walks them with a
    stricter verdict. *)

type visitor = {
  on_ref : Ast.obj_ref -> unit;
  on_class : string -> unit;  (** quantified class (PG_quant) *)
}

let rec expr_refs v (e : Ast.expr) =
  match e.Ast.e with
  | Ast.E_lit _ | Ast.E_var _ | Ast.E_self -> ()
  | Ast.E_attr (r, _, args) ->
      obj_ref_refs v r;
      List.iter (expr_refs v) args
  | Ast.E_field (e, _) -> expr_refs v e
  | Ast.E_apply (_, args) | Ast.E_setlit args | Ast.E_listlit args ->
      List.iter (expr_refs v) args
  | Ast.E_binop (_, a, b) ->
      expr_refs v a;
      expr_refs v b
  | Ast.E_unop (_, a) -> expr_refs v a
  | Ast.E_tuple fields -> List.iter (fun (_, e) -> expr_refs v e) fields
  | Ast.E_if (a, b, c) ->
      expr_refs v a;
      expr_refs v b;
      expr_refs v c
  | Ast.E_query q -> query_refs v q

and query_refs v = function
  | Ast.Q_expr e -> expr_refs v e
  | Ast.Q_select (e, q) ->
      expr_refs v e;
      query_refs v q
  | Ast.Q_project (_, q)
  | Ast.Q_the q
  | Ast.Q_count q
  | Ast.Q_sum (_, q)
  | Ast.Q_min (_, q)
  | Ast.Q_max (_, q) ->
      query_refs v q

and obj_ref_refs v r =
  v.on_ref r;
  match r with
  | Ast.OR_self | Ast.OR_name _ -> ()
  | Ast.OR_instance (_, e) -> expr_refs v e

let event_term_refs v (t : Ast.event_term) =
  Option.iter (obj_ref_refs v) t.Ast.target;
  List.iter (expr_refs v) t.Ast.ev_args

let rec formula_refs v (f : Ast.formula) =
  match f.Ast.f with
  | Ast.F_expr e -> expr_refs v e
  | Ast.F_not g | Ast.F_sometime g | Ast.F_always g | Ast.F_previous g ->
      formula_refs v g
  | Ast.F_and (a, b)
  | Ast.F_or (a, b)
  | Ast.F_implies (a, b)
  | Ast.F_since (a, b) ->
      formula_refs v a;
      formula_refs v b
  | Ast.F_after t -> event_term_refs v t
  | Ast.F_forall (_, g) | Ast.F_exists (_, g) -> formula_refs v g

let atom_refs v (a : Template.atom) =
  match a.Template.pred with
  | Template.P_state f -> formula_refs v f
  | Template.P_occurs t -> event_term_refs v t

let tformula_refs v f = List.iter (atom_refs v) (Formula.atoms [] f)

let calling_rule_refs v (r : Ast.calling_rule) =
  Option.iter (formula_refs v) r.Ast.i_guard;
  event_term_refs v r.Ast.i_caller;
  List.iter (event_term_refs v) r.Ast.i_called

(** Every reference site of one template (rules only — the inheritance
    links [t_view_of]/[t_spec_of] are the caller's concern). *)
let template_refs v (tpl : Template.t) =
  List.iter
    (fun (a : Template.attr_def) ->
      match a.Template.at_derived with
      | None -> ()
      | Some d -> expr_refs v d.Ast.d_rhs)
    tpl.Template.t_attrs;
  List.iter
    (fun (ed : Template.event_def) ->
      Option.iter (event_term_refs v) ed.Template.ed_born_by)
    tpl.Template.t_events;
  List.iter
    (fun (r : Ast.valuation_rule) ->
      Option.iter (formula_refs v) r.Ast.v_guard;
      event_term_refs v r.Ast.v_event;
      List.iter (expr_refs v) r.Ast.v_attr_args;
      expr_refs v r.Ast.v_rhs)
    tpl.Template.t_valuations;
  List.iter (calling_rule_refs v) tpl.Template.t_callings;
  List.iter
    (fun (p : Template.permission) ->
      List.iter (expr_refs v) p.Template.pm_args;
      match p.Template.pm_guard with
      | Template.PG_state f -> formula_refs v f
      | Template.PG_closed (f, _) -> tformula_refs v f
      | Template.PG_indexed { ix_body; _ } -> tformula_refs v ix_body
      | Template.PG_quant { q_class; q_body; _ } ->
          v.on_class q_class;
          tformula_refs v q_body)
    tpl.Template.t_perms;
  List.iter
    (function
      | Template.K_static f -> formula_refs v f
      | Template.K_temporal (f, _, _) -> tformula_refs v f)
    tpl.Template.t_constraints

(** The class an object reference points at, if it names one.
    [OR_name] is only a class edge when a template of that name exists
    (single objects); component and variable names pass through. *)
let ref_class (c : Community.t) = function
  | Ast.OR_self -> None
  | Ast.OR_name n -> if Community.is_class c n then Some n else None
  | Ast.OR_instance (cls, _) -> Some cls

(* ------------------------------------------------------------------ *)
(* Class groups (union-find)                                           *)
(* ------------------------------------------------------------------ *)

let class_names (c : Community.t) =
  List.sort compare
    (Hashtbl.fold (fun n _ acc -> n :: acc) c.Community.templates [])

(** Union-find over class names; [link] ignores unknown names. *)
let components (c : Community.t) ~edges_of =
  let parent = Hashtbl.create 16 in
  let names = class_names c in
  List.iter (fun n -> Hashtbl.replace parent n n) names;
  let rec find n =
    let p = Hashtbl.find parent n in
    if String.equal p n then n
    else begin
      let root = find p in
      Hashtbl.replace parent n root;
      root
    end
  in
  let link a b =
    if Hashtbl.mem parent a && Hashtbl.mem parent b then begin
      let ra = find a and rb = find b in
      if not (String.equal ra rb) then
        if ra < rb then Hashtbl.replace parent rb ra
        else Hashtbl.replace parent ra rb
    end
  in
  List.iter (fun n -> edges_of n (fun other -> link n other)) names;
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let root = find n in
      Hashtbl.replace buckets root
        (n :: Option.value ~default:[] (Hashtbl.find_opt buckets root)))
    (List.rev names);
  Hashtbl.fold (fun _ members acc -> members :: acc) buckets []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

(** Inheritance and phase-birth edges only — the "one identity, many
    aspects" closure used by {!by_hash}. *)
let aspect_edges (c : Community.t) name emit =
  match Community.find_template c name with
  | None -> ()
  | Some tpl ->
      Option.iter emit tpl.Template.t_view_of;
      Option.iter emit tpl.Template.t_spec_of;
      List.iter
        (fun (ed : Template.event_def) ->
          match ed.Template.ed_born_by with
          | Some { Ast.target = Some r; _ } ->
              Option.iter emit (ref_class c r)
          | _ -> ())
        tpl.Template.t_events

let interaction_edges (c : Community.t) name emit =
  aspect_edges c name emit;
  match Community.find_template c name with
  | None -> ()
  | Some tpl ->
      let v =
        {
          on_ref = (fun r -> Option.iter emit (ref_class c r));
          on_class = emit;
        }
      in
      template_refs v tpl

let groups (c : Community.t) =
  (* global interaction rules connect every class they mention *)
  let global_classes =
    List.concat_map
      (fun (g : Community.global_rule) ->
        let acc = ref [] in
        let v =
          {
            on_ref =
              (fun r -> Option.iter (fun n -> acc := n :: !acc) (ref_class c r));
            on_class = (fun n -> acc := n :: !acc);
          }
        in
        calling_rule_refs v g.Community.gr_rule;
        !acc)
      c.Community.globals
    |> List.sort_uniq compare
  in
  components c ~edges_of:(fun name emit ->
      interaction_edges c name emit;
      (* classes tied together by a global rule: link each to the
         first *)
      match global_classes with
      | first :: _ when List.mem name global_classes -> emit first
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Partition maps                                                      *)
(* ------------------------------------------------------------------ *)

type map = { n : int; mode : [ `Classes of (string, int) Hashtbl.t | `Hash ] }

let shards m = m.n

let of_classes (c : Community.t) ~shards assign :
    (map, string) result =
  if shards <= 0 then Error "shard count must be positive"
  else begin
    let tbl = Hashtbl.create 16 in
    let err = ref None in
    let set e = if !err = None then err := Some e in
    List.iter
      (fun (cls, k) ->
        if not (Community.is_class c cls) then
          set (Printf.sprintf "unknown class %s" cls)
        else if k < 0 || k >= shards then
          set (Printf.sprintf "class %s assigned to shard %d of %d" cls k shards)
        else if Hashtbl.mem tbl cls then
          set (Printf.sprintf "class %s assigned twice" cls)
        else Hashtbl.replace tbl cls k)
      assign;
    List.iter
      (fun cls ->
        if not (Hashtbl.mem tbl cls) then
          set (Printf.sprintf "class %s is not assigned to any shard" cls))
      (class_names c);
    List.iter
      (fun group ->
        match group with
        | [] | [ _ ] -> ()
        | first :: rest ->
            let k0 = Hashtbl.find_opt tbl first in
            List.iter
              (fun cls ->
                if Hashtbl.find_opt tbl cls <> k0 then
                  set
                    (Printf.sprintf
                       "classes %s and %s interact and must share a shard"
                       first cls))
              rest)
      (groups c);
    match !err with
    | Some e -> Error e
    | None -> Ok { n = shards; mode = `Classes tbl }
  end

let auto (c : Community.t) ~shards =
  let shards = max 1 shards in
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i group ->
      List.iter (fun cls -> Hashtbl.replace tbl cls (i mod shards)) group)
    (groups c);
  { n = shards; mode = `Classes tbl }

let by_hash (c : Community.t) ~shards : (map, string) result =
  if shards <= 0 then Error "shard count must be positive"
  else if c.Community.globals <> [] then
    Error "identity-hash partitioning: global interaction rules cross identities"
  else begin
    (* aspects of one identity share the key, so they hash to one
       shard; any other reference may cross identities and is unsafe *)
    let families = components c ~edges_of:(aspect_edges c) in
    let family_of = Hashtbl.create 16 in
    List.iteri
      (fun i group -> List.iter (fun cls -> Hashtbl.replace family_of cls i) group)
      families;
    let err = ref None in
    let check_tpl (tpl : Template.t) =
      let family = Hashtbl.find_opt family_of tpl.Template.t_name in
      let safe = function
        | Ast.OR_self -> true
        | Ast.OR_name n ->
            (not (Community.is_class c n))
            || Hashtbl.find_opt family_of n = family
        | Ast.OR_instance (cls, { Ast.e = Ast.E_self; _ }) ->
            (* the own identity's aspect: same key, same shard *)
            Hashtbl.find_opt family_of cls = family
        | Ast.OR_instance (cls, _) ->
            ignore cls;
            false
      in
      let v =
        {
          on_ref =
            (fun r ->
              if (not (safe r)) && !err = None then
                err :=
                  Some
                    (Printf.sprintf
                       "identity-hash partitioning: class %s references \
                        other identities"
                       tpl.Template.t_name));
          on_class =
            (fun _ ->
              if !err = None then
                err :=
                  Some
                    (Printf.sprintf
                       "identity-hash partitioning: class %s quantifies \
                        over a class" tpl.Template.t_name));
        }
      in
      template_refs v tpl
    in
    List.iter
      (fun n -> Option.iter check_tpl (Community.find_template c n))
      (class_names c);
    match !err with
    | Some e -> Error e
    | None -> Ok { n = shards; mode = `Hash }
  end

(* --- owners --------------------------------------------------------- *)

let key_hash key =
  (* stable across processes of one build: OCaml's polymorphic hash of
     the canonical key text *)
  Hashtbl.hash (Value_codec.encode key)

let owner_class m cls =
  match m.mode with
  | `Classes tbl -> (
      match Hashtbl.find_opt tbl cls with
      | Some k -> Ok k
      | None -> Error (Unknown_class cls))
  | `Hash ->
      Error
        (Unsupported
           "identity-hash partitioning decides shards per object, not per \
            class")

let owner_ident m (id : Ident.t) =
  match m.mode with
  | `Classes _ -> owner_class m id.Ident.cls
  | `Hash -> Ok (key_hash id.Ident.key mod m.n)

(* --- wire form ------------------------------------------------------ *)

let to_string m =
  match m.mode with
  | `Hash -> Printf.sprintf "hash:%d" m.n
  | `Classes tbl ->
      let entries =
        Hashtbl.fold (fun cls k acc -> (cls, k) :: acc) tbl []
        |> List.sort compare
        |> List.map (fun (cls, k) -> Printf.sprintf "%s=%d" cls k)
      in
      Printf.sprintf "classes:%d:%s" m.n (String.concat "," entries)

let of_string (c : Community.t) s : (map, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "malformed partition map %S" s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "hash" -> (
          match int_of_string_opt rest with
          | Some n -> by_hash c ~shards:n
          | None -> Error (Printf.sprintf "malformed shard count %S" rest))
      | "classes" -> (
          match String.index_opt rest ':' with
          | None -> Error (Printf.sprintf "malformed partition map %S" s)
          | Some j -> (
              let n = String.sub rest 0 j in
              let body =
                String.sub rest (j + 1) (String.length rest - j - 1)
              in
              match int_of_string_opt n with
              | None -> Error (Printf.sprintf "malformed shard count %S" n)
              | Some n -> (
                  let entries =
                    if body = "" then []
                    else String.split_on_char ',' body
                  in
                  let rec parse acc = function
                    | [] -> Ok (List.rev acc)
                    | e :: rest -> (
                        match String.index_opt e '=' with
                        | None ->
                            Error (Printf.sprintf "malformed assignment %S" e)
                        | Some k -> (
                            let cls = String.sub e 0 k in
                            let id =
                              String.sub e (k + 1) (String.length e - k - 1)
                            in
                            match int_of_string_opt id with
                            | None ->
                                Error
                                  (Printf.sprintf "malformed shard id %S" id)
                            | Some id -> parse ((cls, id) :: acc) rest))
                  in
                  match parse [] entries with
                  | Error e -> Error e
                  | Ok assign -> of_classes c ~shards:n assign)))
      | other -> Error (Printf.sprintf "unknown partition kind %S" other))

(* ------------------------------------------------------------------ *)
(* Step decomposition                                                  *)
(* ------------------------------------------------------------------ *)

(** Bucket events by owning shard, shards in first-occurrence order,
    per-shard event order preserved. *)
let partition_events m evs =
  let rec go acc = function
    | [] ->
        Ok (List.rev_map (fun (k, revd) -> (k, List.rev revd)) acc |> List.rev)
    | (ev : Event.t) :: rest -> (
        match owner_ident m ev.Event.target with
        | Error _ as e -> e
        | Ok k ->
            let rec put = function
              | [] -> [ (k, [ ev ]) ]
              | (k', l) :: more when k' = k -> (k', ev :: l) :: more
              | b :: more -> b :: put more
            in
            go (put acc) rest)
  in
  (* [put] appends new buckets at the tail, so [acc] is already in
     first-occurrence order; [go] only restores each bucket's event
     order *)
  go [] evs

let split m (s : Step.t) :
    ((int * Step.t) list, Runtime_error.reason) result =
  let one owner = Result.map (fun k -> [ (k, s) ]) owner in
  match s with
  | Step.Fire ev -> one (owner_ident m ev.Event.target)
  | Step.Create { cls; key; _ } -> one (owner_ident m (Ident.make cls key))
  | Step.Destroy { id; _ } -> one (owner_ident m id)
  | Step.Sync evs -> (
      match partition_events m evs with
      | Error _ as e -> e
      | Ok [] -> Ok [ (0, s) ]
      | Ok [ (k, _) ] -> Ok [ (k, s) ]
      | Ok buckets ->
          Ok (List.map (fun (k, evs) -> (k, Step.Sync evs)) buckets))
  | Step.Seq evs -> (
      match partition_events m evs with
      | Error _ as e -> e
      | Ok [] -> Ok [ (0, s) ]
      | Ok [ (k, _) ] -> Ok [ (k, s) ]
      | Ok buckets -> Ok (List.map (fun (k, evs) -> (k, Step.Seq evs)) buckets))
  | Step.Txn micro -> (
      (* owners in first occurrence order across the whole queue *)
      let rec owners acc = function
        | [] -> Ok (List.rev acc)
        | (ev : Event.t) :: rest -> (
            match owner_ident m ev.Event.target with
            | Error _ as e -> e
            | Ok k -> owners (if List.mem k acc then acc else k :: acc) rest)
      in
      match owners [] (List.concat micro) with
      | Error _ as e -> e
      | Ok [] -> Ok [ (0, s) ]
      | Ok [ k ] -> Ok [ (k, s) ]
      | Ok ks ->
          let for_shard k =
            List.filter_map
              (fun sync ->
                match
                  List.filter
                    (fun (ev : Event.t) ->
                      owner_ident m ev.Event.target = Ok k)
                    sync
                with
                | [] -> None
                | mine -> Some mine)
              micro
          in
          Ok (List.map (fun k -> (k, Step.Txn (for_shard k))) ks))

(* ------------------------------------------------------------------ *)
(* The two-phase decision                                              *)
(* ------------------------------------------------------------------ *)

type 'e participant = {
  prepare : Step.t -> unit -> (Engine.outcome, 'e) result;
  commit : unit -> unit -> (unit, 'e) result;
  abort : unit -> unit -> unit;
}

let two_phase ~rank (parts : 'e participant array) subs :
    (Engine.outcome, 'e) result =
  (* abort is idempotent, so every owner is sent one, whether it
     prepared, refused, fell silent or was never reached *)
  let abort_all () =
    let waits = List.map (fun (k, _) -> parts.(k).abort ()) subs in
    List.iter (fun wait -> wait ()) waits
  in
  (* every prepare is started before the first is waited on, so remote
     participants work concurrently *)
  match
    List.map (fun (k, sub) -> parts.(k).prepare sub) subs
    |> List.map (fun wait -> wait ())
  with
  | exception e ->
      abort_all ();
      raise e
  | votes -> (
      (* the earliest-phase refusal surfaces, ties in sub-step order:
         the single engine validates the life cycles of a whole
         synchronous set before it checks any permission, so when
         several sub-steps refuse independently only the lowest rank
         matches its answer *)
      let refusal =
        List.fold_left
          (fun acc (vote : (_, _) result) ->
            match (acc, vote) with
            | None, Error e -> Some e
            | Some best, Error e when rank e < rank best -> Some e
            | _ -> acc)
          None votes
      in
      match refusal with
      | Some e ->
          abort_all ();
          Error e
      | None -> (
          let commits = List.map (fun (k, _) -> parts.(k).commit ()) subs in
          match
            List.find_map
              (fun (r : (_, _) result) ->
                match r with Ok () -> None | Error e -> Some e)
              (List.map (fun wait -> wait ()) commits)
          with
          | Some e -> Error e
          | None ->
              let outs = List.map Result.get_ok votes in
              let all f = List.concat_map f outs in
              Ok
                {
                  Engine.committed = all (fun o -> o.Engine.committed);
                  created = all (fun o -> o.Engine.created);
                  destroyed = all (fun o -> o.Engine.destroyed);
                }))

(** An in-process participant: {!Engine.prepare} opens the transaction
    at once, so every waiter is already resolved. *)
let local (c : Community.t) : Runtime_error.reason participant =
  let pending = ref None in
  let finish f =
    let p = !pending in
    pending := None;
    Option.iter f p
  in
  {
    prepare =
      (fun s ->
        let r = Engine.prepare c s in
        pending := Result.to_option r;
        fun () -> Result.map Engine.outcome_of_prepared r);
    commit =
      (fun () ->
        finish Engine.commit_prepared;
        fun () -> Ok ());
    abort = (fun () -> finish Engine.rollback_prepared; ignore);
  }

let coordinate m (cells : Community.t array) (s : Step.t) :
    Engine.step_result =
  match split m s with
  | Error r -> Error r
  | Ok subs -> (
      match
        List.find_opt (fun (k, _) -> k < 0 || k >= Array.length cells) subs
      with
      | Some (k, _) -> Error (Unknown_shard k)
      | None -> (
          match subs with
          | [ (k, sub) ] -> Engine.step cells.(k) sub
          | subs ->
              two_phase ~rank:Runtime_error.phase_rank
                (Array.map local cells) subs))
