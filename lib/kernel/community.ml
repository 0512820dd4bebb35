(** The object community: all living objects, class extensions, global
    interaction rules and enumeration definitions of one specification.

    A community is what the paper calls an object society — "a (possibly
    large) collection of objects that interact".  Classes are themselves
    treated as (implicit) objects with standard items: the extension of
    each class is maintained here, with insertion/deletion performed by
    birth/death events (the paper's "standard class items … provided
    implicitly"). *)

module Smap = Map.Make (String)

type config = {
  record_history : bool;
      (** store per-object traces (needed by the naive permission checker
          and the E4 ablation benchmark) *)
  max_sync_set : int;
      (** safety bound on the event-calling closure, to detect cycles *)
  compiled_dispatch : bool;
      (** use the staged per-event rule indexes and compiled evaluators
          ({!Dispatch}); off = the fully interpreted reference path *)
}

let default_config =
  { record_history = false; max_sync_set = 4096; compiled_dispatch = true }

(** Staged dispatch state attached to a community by higher layers
    (extended and consumed by {!Dispatch}; kept abstract here to avoid a
    dependency cycle). *)
type staged = ..

(** Bumped whenever any community's schema-level data (templates, enums,
    globals) changes.  Staged caches stamp themselves with the
    generation they were built at and rebuild on mismatch; a global
    counter is sound (cross-community invalidation only costs a rebuild)
    and survives {!clone}, which shares the template table. *)
let schema_generation = ref 0

type global_rule = {
  gr_vars : (string * Vtype.t) list;
  gr_rule : Ast.calling_rule;
}

(** One undoable mutation of runtime state.  Entries are recorded newest
    first while a journal is open (see {!Txn}); undoing them in LIFO
    order restores the community exactly.  Attribute maps, monitor
    states, extensions and the object index are immutable values held in
    mutable slots, so every entry is an O(1) pointer (or shallow-copy)
    save. *)
type journal_entry =
  | J_obj of Obj_state.t * Obj_state.snapshot
      (** object about to be mutated: restore its fields *)
  | J_register of Ident.t  (** object was registered: remove it again *)
  | J_remove of Obj_state.t  (** object was removed: put it back *)
  | J_extensions of Ident.Set.t Smap.t  (** previous extensions map *)

(** The open journal of a community.  [entries]/[count] are the live
    undo log; [total]/[bytes] count everything ever recorded (for the
    statistics); [gen]/[epoch] implement per-scope snapshot
    deduplication through the stamp each snapshotted object carries
    ([Obj_state.snap_gen], [snap_epoch]) — an object is re-snapshotted
    only when a new scope (transaction or probe) has opened
    since its last snapshot.  A journal holds no table, so opening one
    is a small allocation. *)
type journal = {
  mutable entries : journal_entry list;  (** newest first *)
  mutable count : int;  (** = length of [entries] *)
  mutable total : int;  (** entries ever recorded *)
  mutable bytes : int;  (** approx. bytes snapshotted *)
  gen : int;
      (** process-unique journal generation, stamped on every object
          the journal snapshots *)
  mutable epoch : int;  (** bumped when a scope opens or unwinds *)
}

type t = {
  templates : (string, Template.t) Hashtbl.t;
  enum_of_const : (string, string) Hashtbl.t;  (** constant → enum name *)
  enum_defs : (string, string list) Hashtbl.t;  (** enum name → constants *)
  objects : Obj_state.t Ident.Tbl.t;
      (** keyed by identity, on its cached hash *)
  mutable index : Obj_state.t Btree.t;
      (** ordered object index (storage layer), keyed by identity value;
          kept in sync with [objects] and rolled back through the same
          journal *)
  mutable extensions : Ident.Set.t Smap.t;  (** class → living members *)
  mutable globals : global_rule list;
  mutable journal : journal option;
      (** open transaction journal; managed by {!Txn}, fed by the
          mutators below *)
  config : config;
  mutable staged : staged option;
      (** community-level dispatch index, built lazily by {!Dispatch} *)
  mutable version : int;
      (** instance-state version: bumped on every committed transaction
          and on every direct (journal-less) mutation, so a frozen
          {!View} can tell cheaply whether this community still looks
          the way it did at freeze time.  Rollbacks restore state
          exactly and do not bump. *)
  mutable commit_hook : (journal -> unit) option;
      (** called by {!Txn.commit} of the owning scope, after the state
          is final but before the journal is released, whenever any
          entries survived — the redo-log side of the journal ({!Wal}
          derives the committed effect delta from it).  Never called on
          rollbacks or probes. *)
}

let create ?(config = default_config) () =
  {
    templates = Hashtbl.create 16;
    enum_of_const = Hashtbl.create 16;
    enum_defs = Hashtbl.create 16;
    objects = Ident.Tbl.create 64;
    index = Btree.empty;
    extensions = Smap.empty;
    globals = [];
    journal = None;
    config;
    staged = None;
    version = 0;
    commit_hook = None;
  }

let bump_version t = t.version <- t.version + 1

(* ------------------------------------------------------------------ *)
(* Journal plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let journal_record t e =
  match t.journal with
  | None -> ()
  | Some j ->
      j.entries <- e :: j.entries;
      j.count <- j.count + 1;
      j.total <- j.total + 1

(** Undo one entry.  Mutates the raw fields directly: undoing must never
    journal. *)
let undo_entry t = function
  | J_obj (o, s) -> Obj_state.restore o s
  | J_register id ->
      Ident.Tbl.remove t.objects id;
      t.index <- Btree.remove t.index (Ident.to_value id)
  | J_remove o ->
      Ident.Tbl.replace t.objects o.Obj_state.id o;
      t.index <- Btree.add t.index (Ident.to_value o.Obj_state.id) o
  | J_extensions ext -> t.extensions <- ext

let add_template t (tpl : Template.t) =
  Hashtbl.replace t.templates tpl.Template.t_name tpl;
  incr schema_generation;
  t.staged <- None;
  bump_version t

let find_template t name = Hashtbl.find_opt t.templates name

let template_exn t name =
  match find_template t name with
  | Some tpl -> tpl
  | None -> Runtime_error.fail (Runtime_error.Unknown_class name)

let is_class t name = Hashtbl.mem t.templates name

let add_enum t name consts =
  Hashtbl.replace t.enum_defs name consts;
  List.iter (fun c -> Hashtbl.replace t.enum_of_const c name) consts;
  incr schema_generation;
  t.staged <- None;
  bump_version t

let enum_of_const t c = Hashtbl.find_opt t.enum_of_const c
let enum_consts t name = Hashtbl.find_opt t.enum_defs name

let add_global t ~vars rule =
  t.globals <- t.globals @ [ { gr_vars = vars; gr_rule = rule } ];
  incr schema_generation;
  t.staged <- None;
  bump_version t

let find_object t id = Ident.Tbl.find_opt t.objects id

let object_exn t id =
  match find_object t id with
  | Some o -> o
  | None -> Runtime_error.fail (Runtime_error.Unknown_object id)

(** Living instance, following no inheritance: exact aspect lookup. *)
let living t id =
  match find_object t id with
  | Some o when o.Obj_state.alive -> Some o
  | _ -> None

let register_object t (o : Obj_state.t) =
  journal_record t (J_register o.Obj_state.id);
  if t.journal = None then bump_version t;
  Ident.Tbl.replace t.objects o.Obj_state.id o;
  t.index <- Btree.add t.index (Ident.to_value o.Obj_state.id) o

let remove_object t id =
  (match Ident.Tbl.find_opt t.objects id with
  | Some o -> journal_record t (J_remove o)
  | None -> ());
  if t.journal = None then bump_version t;
  Ident.Tbl.remove t.objects id;
  t.index <- Btree.remove t.index (Ident.to_value id)

(** Current extension (living members) of a class. *)
let extension t cls =
  match Smap.find_opt cls t.extensions with
  | Some s -> s
  | None -> Ident.Set.empty

let extension_add t id =
  journal_record t (J_extensions t.extensions);
  if t.journal = None then bump_version t;
  t.extensions <-
    Smap.update id.Ident.cls
      (fun s ->
        Some (Ident.Set.add id (Option.value ~default:Ident.Set.empty s)))
      t.extensions

let extension_remove t id =
  journal_record t (J_extensions t.extensions);
  if t.journal = None then bump_version t;
  t.extensions <-
    Smap.update id.Ident.cls
      (function None -> None | Some s -> Some (Ident.Set.remove id s))
      t.extensions

(** The chain of base templates of a class: the class itself first, then
    its [view of] / [specialization of] ancestors upward. *)
let base_chain t cls =
  let rec go acc name =
    match find_template t name with
    | None -> List.rev acc
    | Some tpl -> (
        let acc = tpl :: acc in
        match (tpl.Template.t_view_of, tpl.Template.t_spec_of) with
        | Some base, _ | None, Some base ->
            if List.exists (fun x -> String.equal x.Template.t_name base) acc
            then List.rev acc (* defensive: cyclic hierarchy *)
            else go acc base
        | None, None -> List.rev acc)
  in
  go [] cls

(** Classes having [cls] as direct base by static specialization — their
    instances must be created together with the base aspect. *)
let specializations_of t cls =
  Hashtbl.fold
    (fun _ tpl acc ->
      match tpl.Template.t_spec_of with
      | Some base when String.equal base cls -> tpl :: acc
      | _ -> acc)
    t.templates []

(** Phase classes whose birth is called by an event of [cls]. *)
let phases_born_by t cls ev_name =
  Hashtbl.fold
    (fun _ tpl acc ->
      let matching =
        List.filter_map
          (fun (ed : Template.event_def) ->
            match ed.ed_born_by with
            | Some { Ast.target = Some (Ast.OR_name base); ev_name = base_ev; _ }
              when String.equal base cls && String.equal base_ev ev_name ->
                Some ed
            | _ -> None)
          tpl.Template.t_events
      in
      List.map (fun ed -> (tpl, ed)) matching @ acc)
    t.templates []

(** Deep copy for genuine branching exploration — keeping several
    divergent futures alive at once.  Object states are duplicated,
    templates and rules are shared (immutable); the copy starts with no
    open journal.  For speculative "try and roll back" questions use
    {!Txn.probe} instead: it is O(touched state), not O(society).
    [~objects:false] copies no object: a scratch community sharing the
    schema, which {!adopt} can install. *)
let clone ?(objects = true) t =
  let table =
    Ident.Tbl.create (if objects then Ident.Tbl.length t.objects else 64)
  in
  let index = ref Btree.empty in
  if objects then
    Ident.Tbl.iter
      (fun id (o : Obj_state.t) ->
        let o' = Obj_state.create id o.Obj_state.template in
        Obj_state.restore o' (Obj_state.snapshot o);
        Ident.Tbl.replace table id o';
        index := Btree.add !index (Ident.to_value id) o')
      t.objects;
  {
    templates = t.templates;
    enum_of_const = t.enum_of_const;
    enum_defs = t.enum_defs;
    objects = table;
    index = !index;
    extensions = (if objects then t.extensions else Smap.empty);
    globals = t.globals;
    journal = None;
    config = t.config;
    staged = t.staged;
    version = 0;
    commit_hook = None;
  }

(** Replace every object, index entry and extension of [t] by those of
    [src], a {!clone} of [t]; [t] stays the same record (commit hooks
    and views hold it).  The table is refilled in identity order, as a
    load in dump order always filled it.  The version counts [src]'s
    mutations and the replacement itself. *)
let adopt t src =
  Ident.Tbl.reset t.objects;
  Btree.fold
    (fun _ (o : Obj_state.t) () -> Ident.Tbl.replace t.objects o.Obj_state.id o)
    src.index ();
  t.index <- src.index;
  t.extensions <- src.extensions;
  t.version <- t.version + src.version + 1

let iter_objects t f = Ident.Tbl.iter (fun _ o -> f o) t.objects

(** All objects in identity order, straight off the ordered index. *)
let objects_sorted t = List.map snd (Btree.bindings t.index)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  (* the index orders by identity value = (class, key), i.e. exactly
     [Ident.compare] *)
  List.iter (fun o -> Format.fprintf ppf "%a@," Obj_state.pp o) (objects_sorted t);
  Format.fprintf ppf "@]"
