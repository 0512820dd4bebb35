(** Runtime state of a single object (aspect).

    Attributes are stored in a flat array indexed by the template's
    interned slots ({!Template.slots}); name-based access goes through
    the slot table, slot-based access is a single array read/write.
    Monitor states are immutable values held in mutable fields, so
    transaction rollback restores old pointers; the attribute array is
    copied on {!snapshot} because it is mutated in place. *)

module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

(** Monitor state attached to one permission of the template. *)
type pstate =
  | PS_none  (** non-temporal guard: nothing to track *)
  | PS_closed of Monitor.state option  (** [None] before the first step *)
  | PS_indexed of Param_table.t
      (** one instance per observed instantiation of the guard's
          parameters (or per class member, for quantified guards) *)

type history_entry = {
  h_events : Event.t list;  (** events of the step involving this object *)
  h_attrs : Value.t array;  (** attribute state after the step (a copy) *)
}

type t = {
  id : Ident.t;
  template : Template.t;
  mutable alive : bool;
  mutable dead : bool;  (** death has occurred; no rebirth *)
  mutable attrs : Value.t array;  (** parallel to [Template.slots] *)
  mutable perm_states : pstate array;  (** parallel to [template.t_perms] *)
  mutable constr_states : Monitor.state option array;
      (** parallel to the template's temporal constraints *)
  mutable history : history_entry list;
      (** newest first; recorded only when the community's
          [record_history] is set *)
  mutable steps : int;  (** life-cycle steps so far *)
  mutable snap_gen : int;
      (** generation of the journal that last snapshotted this object
          ([-1]: none); with [snap_epoch], the stamp {!Txn.touch}
          dedupes snapshots by.  Not part of the state: snapshots,
          dumps and logs leave it out. *)
  mutable snap_epoch : int;  (** that journal's epoch at the time *)
}

val create : Ident.t -> Template.t -> t
(** A fresh, unborn state (monitors unstarted, attributes all
    [Undefined]). *)

val initial_pstate : Template.permission -> pstate

val attr : t -> string -> Value.t
(** Raw stored attribute ([Undefined] when unset or unknown to the
    template); derived attributes are computed by {!Eval.read_attr},
    not here. *)

val set_attr : t -> string -> Value.t -> unit
(** Raises {!Runtime_error.Error} with [Unknown_attribute] when the
    template has no slot of that name. *)

val attr_slot : t -> int -> Value.t
val set_attr_slot : t -> int -> Value.t -> unit

val attrs_bindings : Template.t -> Value.t array -> (string * Value.t) list
(** Named bindings of an attribute array relative to a template, sorted
    by name, unset ([Undefined]) slots omitted. *)

val bindings : t -> (string * Value.t) list

(** Copies of all mutable fields, for rollback.  The fields are public
    so that {!Effect_log} can diff a journal snapshot (the state at
    transaction entry) against the committed state to derive the redo
    effect record. *)
type snapshot = {
  s_alive : bool;
  s_dead : bool;
  s_attrs : Value.t array;
  s_perm_states : pstate array;
  s_constr_states : Monitor.state option array;
  s_history : history_entry list;
  s_steps : int;
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val copy_snapshot : snapshot -> snapshot
(** A snapshot safe to {!restore} into a different object without
    aliasing the original: the mutated-in-place arrays are duplicated,
    immutable values stay shared.  ({!View} materializes per-domain
    objects from one frozen snapshot this way.) *)

val snapshot_cost : snapshot -> int
(** Bytes allocated by taking the snapshot (shallow: the record plus the
    copied attribute and monitor-state arrays; values and states are
    shared pointers). *)

val pp : Format.formatter -> t -> unit
