(** Compiled templates: the anonymous structure-and-behaviour patterns
    of §3, with permissions and temporal constraints translated into
    monitored {!Formula} terms.

    The record types are transparent: the formal layer
    ([troll_morphism]) and tests build templates directly, and
    {!Compile} produces them from checked AST declarations. *)

(** {1 Atoms of monitored formulas} *)

type apred =
  | P_state of Ast.formula
      (** a non-temporal state predicate, evaluated on the object's
          current attribute state (may contain bounded quantifiers) *)
  | P_occurs of Ast.event_term
      (** the event occurred in the step leading to the current state *)

type atom = {
  binds : (string * Value.t) list;
      (** instantiation of parameter/quantifier variables, added when a
          parametric monitor instance is spawned *)
  pred : apred;
}

val pp_apred : Format.formatter -> apred -> unit
val pp_atom : Format.formatter -> atom -> unit

val is_temporal_ast : Ast.formula -> bool
(** Does the AST formula contain a temporal operator? *)

val to_temporal : Ast.formula -> atom Formula.t
(** Translate an AST formula into a monitored temporal formula; maximal
    non-temporal subformulas become single state atoms.  Raises
    {!Runtime_error.Error} on quantifiers strictly inside temporal
    operators (only the outermost position is executable). *)

val instantiate : (string * Value.t) list -> atom Formula.t -> atom Formula.t
(** Attach quantifier bindings to every atom. *)

(** {1 Template components} *)

type attr_def = {
  at_name : string;
  at_type : Vtype.t;
  at_params : Vtype.t list;  (** non-empty only for derived attributes *)
  at_derived : Ast.derivation_rule option;
  at_constant : bool;
}

type event_def = {
  ed_name : string;
  ed_params : Vtype.t list;
  ed_kind : Ast.event_kind;
  ed_active : bool;
  ed_born_by : Ast.event_term option;
      (** phase birth triggered by a base-object event *)
}

(** How a permission guard is checked (see docs/SEMANTICS.md §3). *)
type pguard =
  | PG_state of Ast.formula
      (** non-temporal: evaluated directly on the pre-state *)
  | PG_closed of atom Formula.t * atom Monitor.compiled
      (** temporal, no free variables: one monitor per object *)
  | PG_indexed of {
      ix_vars : string list;
      ix_body : atom Formula.t;
      ix_compiled : atom Monitor.compiled;
    }
      (** temporal with free pattern variables: one monitor instance per
          observed instantiation *)
  | PG_quant of {
      q_quant : [ `Forall | `Exists ];
      q_var : string;
      q_class : string;
      q_body : atom Formula.t;
      q_compiled : atom Monitor.compiled;
    }  (** outermost class quantifier around a temporal body *)

type permission = {
  pm_event : string;
  pm_args : Ast.expr list;  (** binding pattern *)
  pm_guard : pguard;
  pm_text : string;  (** for diagnostics *)
}

type constraint_def =
  | K_static of Ast.formula  (** must hold in every state *)
  | K_temporal of atom Formula.t * atom Monitor.compiled * string
      (** monitored; must hold at every instant *)

(** Interned attribute slots: one fixed integer index per declared
    attribute, backing the [Value.t array] storage of {!Obj_state}. *)
type slots = {
  slot_names : string array;  (** declaration order *)
  slot_index : (string, int) Hashtbl.t;
}

(** Staging hook for the dispatch layer: {!Dispatch} extends this type
    with its per-event rule indexes and compiled evaluators, cached on
    the template without a dependency of this layer on the evaluator. *)
type staged = ..

type t = {
  t_name : string;
  t_kind : [ `Class | `Single ];
  t_id_fields : (string * Vtype.t) list;
  t_view_of : string option;
  t_spec_of : string option;
  t_attrs : attr_def list;
  t_events : event_def list;
  t_valuations : Ast.valuation_rule list;
  t_callings : Ast.calling_rule list;
  t_perms : permission list;
  t_constraints : constraint_def list;
  t_vars : (string * Vtype.t) list;
      (** declared rule variables (binders in event patterns) *)
  mutable t_slots : slots option;  (** lazily built slot table *)
  mutable t_staged : staged option;  (** owned by the dispatch layer *)
}

val slots : t -> slots
(** The slot table, built from [t_attrs] on first use and cached. *)

val n_slots : t -> int
val slot_of : t -> string -> int option
val slot_name : t -> int -> string

val key_fits : t -> Value.t -> bool
(** Whether an identity key fits the class's identification fields by
    {!Value.fits}: the key itself against a single field; against
    several, a tuple whose fields are checked by name (a field the
    tuple lacks is not checked).  A class that declares no
    identification fields takes any key. *)

val find_attr : t -> string -> attr_def option
val find_event : t -> string -> event_def option
val birth_events : t -> event_def list
val death_events : t -> event_def list
val is_var : t -> string -> bool
val perms_for : t -> string -> permission list
