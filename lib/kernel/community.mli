(** The object community: all objects, class extensions, global
    interaction rules and enumerations of one specification — the
    paper's "object society". *)

module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type config = {
  record_history : bool;
      (** store per-object traces (needed by the naive permission
          checker, liveness auditing, and the E4 benchmark) *)
  max_sync_set : int;
      (** safety bound on the event-calling closure (cycle detection) *)
  compiled_dispatch : bool;
      (** use the staged per-event rule indexes and compiled evaluators
          ({!Dispatch}); off = the fully interpreted reference path *)
}

val default_config : config
(** No history recording, closure bound 4096, compiled dispatch on. *)

(** Staged dispatch state attached to a community by higher layers
    (extended and consumed by {!Dispatch}). *)
type staged = ..

val schema_generation : int ref
(** Bumped on every schema mutation ({!add_template}, {!add_enum},
    {!add_global}); staged caches stamp themselves with it and rebuild
    on mismatch. *)

type global_rule = {
  gr_vars : (string * Vtype.t) list;
  gr_rule : Ast.calling_rule;
}

(** One undoable runtime mutation; recorded newest first while a journal
    is open, undone in LIFO order by {!Txn}. *)
type journal_entry =
  | J_obj of Obj_state.t * Obj_state.snapshot
      (** object about to be mutated: restore its fields *)
  | J_register of Ident.t  (** object was registered: remove it again *)
  | J_remove of Obj_state.t  (** object was removed: put it back *)
  | J_extensions of Ident.Set.t Smap.t  (** previous extensions map *)

(** The open journal of a community — the live undo log, lifetime
    counters, and the generation and epoch that snapshot deduplication
    compares with the stamp on each object.  Owned by {!Txn}; the
    mutators below feed it. *)
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
  enum_of_const : (string, string) Hashtbl.t;
  enum_defs : (string, string list) Hashtbl.t;
  objects : Obj_state.t Ident.Tbl.t;
      (** keyed by identity, on its cached hash *)
  mutable index : Obj_state.t Btree.t;
      (** ordered object index (storage layer), kept in sync with
          [objects] and rolled back through the same journal *)
  mutable extensions : Ident.Set.t Smap.t;
  mutable globals : global_rule list;
  mutable journal : journal option;  (** managed by {!Txn} *)
  config : config;
  mutable staged : staged option;
      (** community-level dispatch index, built lazily by {!Dispatch} *)
  mutable version : int;
      (** instance-state version: bumped on every committed transaction
          ({!Txn.commit} of the owning scope) and on every direct
          journal-less mutation; rollbacks restore state exactly and do
          not bump.  {!View}s stamp themselves with it to detect
          staleness in O(1). *)
  mutable commit_hook : (journal -> unit) option;
      (** called by {!Txn.commit} of the owning scope, after the state
          is final but before the journal is released, whenever any
          entries survived — the redo-log side of the journal ({!Wal}
          derives the committed effect delta from it).  Never called on
          rollbacks or probes. *)
}

val create : ?config:config -> unit -> t

val bump_version : t -> unit
(** Advance {!field-version}; called by the mutators here and by
    {!Txn.commit}. *)

(** {1 Journal} *)

val journal_record : t -> journal_entry -> unit
(** Append to the open journal, if any (no-op otherwise). *)

val undo_entry : t -> journal_entry -> unit
(** Undo one entry, mutating raw fields without journaling. *)

(** {1 Schema} *)

val add_template : t -> Template.t -> unit
val find_template : t -> string -> Template.t option

val template_exn : t -> string -> Template.t
(** Raises {!Runtime_error.Error} ([Unknown_class]). *)

val is_class : t -> string -> bool
val add_enum : t -> string -> string list -> unit
val enum_of_const : t -> string -> string option
val enum_consts : t -> string -> string list option
val add_global : t -> vars:(string * Vtype.t) list -> Ast.calling_rule -> unit

(** {1 Objects and extensions} *)

val find_object : t -> Ident.t -> Obj_state.t option

val object_exn : t -> Ident.t -> Obj_state.t
(** Raises {!Runtime_error.Error} ([Unknown_object]). *)

val living : t -> Ident.t -> Obj_state.t option
(** The exact aspect, if alive. *)

val register_object : t -> Obj_state.t -> unit
(** Add to the object table and ordered index; journaled. *)

val remove_object : t -> Ident.t -> unit
(** Drop from the object table and ordered index; journaled. *)

val extension : t -> string -> Ident.Set.t
(** Living members of a class. *)

val extension_add : t -> Ident.t -> unit
val extension_remove : t -> Ident.t -> unit

(** {1 Inheritance} *)

val base_chain : t -> string -> Template.t list
(** The class itself, then its [view of]/[specialization of] ancestors
    upward. *)

val specializations_of : t -> string -> Template.t list
val phases_born_by : t -> string -> string -> (Template.t * Template.event_def) list

(** {1 Traversal} *)

val clone : ?objects:bool -> t -> t
(** Deep copy for genuine branching exploration — keeping several
    divergent futures alive at once (object states duplicated, templates
    shared, journal not carried over).  For speculative "try and roll
    back" questions use {!Txn.probe}: O(touched state), not
    O(society).  [~objects:false] copies no object: an empty scratch
    community with the same schema. *)

val adopt : t -> t -> unit
(** [adopt t src] replaces all objects, index entries and extensions of
    [t] by those of [src], a {!clone} of [t] that is not used again.
    [t] stays the same record, so commit hooks and views holding it
    see the new state.  Its version advances by [src]'s mutations and
    one for the replacement (a load's count as it always was: one
    reset, then the loaded objects' registrations).  Installs persisted state
    ({!Persist.restore}); must not be called with an open journal. *)

val iter_objects : t -> (Obj_state.t -> unit) -> unit

val objects_sorted : t -> Obj_state.t list
(** All objects in identity order, read off the ordered index. *)

val pp : Format.formatter -> t -> unit
