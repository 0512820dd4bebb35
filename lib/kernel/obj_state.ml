(** Runtime state of a single object (aspect).

    Attributes live in a flat [Value.t array] indexed by the template's
    interned slots ({!Template.slots}), so a read or write is one array
    access instead of a string-map lookup.  Monitor states remain
    immutable values in mutable fields; a transaction rollback restores
    the old pointers, with the attribute array copied on {!snapshot}
    (it is mutated in place between snapshots). *)

module Smap = Map.Make (String)

(** Monitor state attached to one permission of the template. *)
type pstate =
  | PS_none  (** non-temporal guard: nothing to track *)
  | PS_closed of Monitor.state option  (** [None] before the first step *)
  | PS_indexed of Param_table.t
      (** one instance per observed instantiation of the guard's
          parameters (or per class member for quantified guards) *)

type history_entry = {
  h_events : Event.t list;  (** events of the step involving this object *)
  h_attrs : Value.t array;  (** attribute state after the step (a copy) *)
}

type t = {
  id : Ident.t;
  template : Template.t;
  mutable alive : bool;
  mutable dead : bool;  (** death event has occurred; cannot be reborn *)
  mutable attrs : Value.t array;  (** parallel to [Template.slots] *)
  mutable perm_states : pstate array;  (** parallel to [template.t_perms] *)
  mutable constr_states : Monitor.state option array;
      (** parallel to temporal constraints *)
  mutable history : history_entry list;  (** newest first; only if enabled *)
  mutable steps : int;  (** number of life-cycle steps so far *)
  mutable snap_gen : int;
      (** generation of the journal that last snapshotted this object *)
  mutable snap_epoch : int;  (** that journal's epoch at the time *)
}

let initial_pstate (p : Template.permission) =
  match p.pm_guard with
  | Template.PG_state _ -> PS_none
  | Template.PG_closed _ -> PS_closed None
  | Template.PG_indexed _ | Template.PG_quant _ -> PS_indexed Param_table.empty

let create id (template : Template.t) =
  {
    id;
    template;
    alive = false;
    dead = false;
    attrs = Array.make (Template.n_slots template) Value.Undefined;
    perm_states =
      Array.of_list (List.map initial_pstate template.t_perms);
    constr_states =
      Array.of_list
        (List.filter_map
           (function
             | Template.K_static _ -> None
             | Template.K_temporal _ -> Some None)
           template.t_constraints);
    history = [];
    steps = 0;
    snap_gen = -1;
    snap_epoch = 0;
  }

let attr t name =
  match Template.slot_of t.template name with
  | Some i -> t.attrs.(i)
  | None -> Value.Undefined

let set_attr t name v =
  match Template.slot_of t.template name with
  | Some i -> t.attrs.(i) <- v
  | None ->
      Runtime_error.fail
        (Runtime_error.Unknown_attribute (t.template.Template.t_name, name))

let attr_slot t i = t.attrs.(i)
let set_attr_slot t i v = t.attrs.(i) <- v

(** Named bindings of an attribute array (relative to a template), in
    slot-name order, unset ([Undefined]) slots omitted. *)
let attrs_bindings (template : Template.t) (attrs : Value.t array) :
    (string * Value.t) list =
  let rows = ref [] in
  for i = Array.length attrs - 1 downto 0 do
    if not (Value.is_undefined attrs.(i)) then
      rows := (Template.slot_name template i, attrs.(i)) :: !rows
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let bindings t = attrs_bindings t.template t.attrs

(** Copy of all mutable fields, for rollback. *)
type snapshot = {
  s_alive : bool;
  s_dead : bool;
  s_attrs : Value.t array;
  s_perm_states : pstate array;
  s_constr_states : Monitor.state option array;
  s_history : history_entry list;
  s_steps : int;
}

let snapshot t =
  {
    s_alive = t.alive;
    s_dead = t.dead;
    s_attrs = Array.copy t.attrs;
    s_perm_states = Array.copy t.perm_states;
    s_constr_states = Array.copy t.constr_states;
    s_history = t.history;
    s_steps = t.steps;
  }

(* A snapshot whose arrays can be installed as live state without
   aliasing the original.  Monitor states, values and history entries
   are immutable and stay shared; only the three mutated-in-place
   arrays are duplicated.  Used by View.thaw, where one frozen snapshot
   seeds a private mutable object per domain. *)
let copy_snapshot s =
  {
    s with
    s_attrs = Array.copy s.s_attrs;
    s_perm_states = Array.copy s.s_perm_states;
    s_constr_states = Array.copy s.s_constr_states;
  }

(* Restoring by pointer is sound because journal entries are single-use
   (popped in LIFO order and discarded); the snapshot array becomes the
   live one. *)
let restore t s =
  t.alive <- s.s_alive;
  t.dead <- s.s_dead;
  t.attrs <- s.s_attrs;
  t.perm_states <- s.s_perm_states;
  t.constr_states <- s.s_constr_states;
  t.history <- s.s_history;
  t.steps <- s.s_steps

(** Shallow cost of a snapshot in bytes: the record and its three copied
    arrays.  Monitor states and attribute values are shared pointers, so
    this is what taking the snapshot actually allocated. *)
let snapshot_cost s =
  (9
  + Array.length s.s_attrs
  + Array.length s.s_perm_states
  + Array.length s.s_constr_states)
  * (Sys.word_size / 8)

let pp ppf t =
  Format.fprintf ppf "@[<v 2>%a%s@," Ident.pp t.id
    (if t.dead then " (dead)" else if t.alive then "" else " (unborn)");
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%s = %a@," name Value.pp v)
    (bindings t);
  Format.fprintf ppf "@]"
