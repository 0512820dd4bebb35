(** Compiled templates.

    A template is the anonymous structure-and-behaviour pattern of §3:
    typed attributes, events with birth/death/active markers, valuation
    rules, calling rules, permissions and constraints.  Compilation
    (see {!Compile}) resolves types and translates permission guards and
    temporal constraints into {!Formula} terms over two kinds of atoms:
    state predicates and event-occurrence tests, which the engine
    monitors incrementally per object. *)

(* ------------------------------------------------------------------ *)
(* Atoms of monitored formulas                                         *)
(* ------------------------------------------------------------------ *)

(** Atomic propositions of monitored temporal formulas. *)
type apred =
  | P_state of Ast.formula
      (** a non-temporal state predicate, evaluated on the object's
          current attribute state (may contain bounded quantifiers) *)
  | P_occurs of Ast.event_term
      (** the event occurred in the step leading to the current state *)

type atom = {
  binds : (string * Value.t) list;
      (** instantiation of parameter / quantifier variables; added when a
          parametric monitor instance is spawned *)
  pred : apred;
}

let pp_apred ppf = function
  | P_state f -> Pretty.pp_formula ppf f
  | P_occurs e -> Format.fprintf ppf "after(%a)" Pretty.pp_event e

let pp_atom ppf { binds; pred } =
  if binds = [] then pp_apred ppf pred
  else
    Format.fprintf ppf "%a[%a]" pp_apred pred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf (v, x) -> Format.fprintf ppf "%s=%a" v Value.pp x))
      binds

(** Does an AST formula contain a temporal operator? *)
let rec is_temporal_ast (f : Ast.formula) =
  match f.f with
  | Ast.F_expr _ -> false
  | Ast.F_not g -> is_temporal_ast g
  | Ast.F_and (a, b) | Ast.F_or (a, b) | Ast.F_implies (a, b) ->
      is_temporal_ast a || is_temporal_ast b
  | Ast.F_sometime _ | Ast.F_always _ | Ast.F_since _ | Ast.F_previous _
  | Ast.F_after _ ->
      true
  | Ast.F_forall (_, g) | Ast.F_exists (_, g) -> is_temporal_ast g

(** Translate an AST formula into a monitored temporal formula.
    Maximal non-temporal subformulas become single state atoms, so the
    expression evaluator (which understands bounded quantifiers) handles
    them in one piece.  Quantifiers *around* temporal operators are not
    representable here — {!Compile} treats the outermost one as a
    parametric monitor and rejects deeper ones. *)
let rec to_temporal (f : Ast.formula) : atom Formula.t =
  if not (is_temporal_ast f) then
    Formula.Atom { binds = []; pred = P_state f }
  else
    match f.f with
    | Ast.F_not g -> Formula.Not (to_temporal g)
    | Ast.F_and (a, b) -> Formula.And (to_temporal a, to_temporal b)
    | Ast.F_or (a, b) -> Formula.Or (to_temporal a, to_temporal b)
    | Ast.F_implies (a, b) -> Formula.Implies (to_temporal a, to_temporal b)
    | Ast.F_sometime g -> Formula.Sometime (to_temporal g)
    | Ast.F_always g -> Formula.Always (to_temporal g)
    | Ast.F_since (a, b) -> Formula.Since (to_temporal a, to_temporal b)
    | Ast.F_previous g -> Formula.Previous (to_temporal g)
    | Ast.F_after ev -> Formula.Atom { binds = []; pred = P_occurs ev }
    | Ast.F_expr _ -> assert false (* non-temporal, caught above *)
    | Ast.F_forall _ | Ast.F_exists _ ->
        Runtime_error.fail
          (Runtime_error.Unsupported
             "quantifier around temporal operators must be outermost")

(** Instantiate a compiled formula's atoms with quantifier bindings. *)
let instantiate (binds : (string * Value.t) list) (f : atom Formula.t) :
    atom Formula.t =
  Formula.map (fun a -> { a with binds = binds @ a.binds }) f

(* ------------------------------------------------------------------ *)
(* Template components                                                 *)
(* ------------------------------------------------------------------ *)

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

(** How a permission guard is checked. *)
type pguard =
  | PG_state of Ast.formula
      (** non-temporal: evaluated directly on the pre-state *)
  | PG_closed of atom Formula.t * atom Monitor.compiled
      (** temporal, no free variables: one monitor per object *)
  | PG_indexed of {
      ix_vars : string list;  (** pattern variables the guard mentions *)
      ix_body : atom Formula.t;
      ix_compiled : atom Monitor.compiled;
    }
      (** temporal with free pattern variables (e.g. [sometime(after(
          hire(P)))] guarding [fire(P)]): one monitor instance per
          observed instantiation *)
  | PG_quant of {
      q_quant : [ `Forall | `Exists ];
      q_var : string;
      q_class : string;  (** quantification over the class extension *)
      q_body : atom Formula.t;
      q_compiled : atom Monitor.compiled;
    }
      (** outermost class quantifier around a temporal body *)

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

(** Interned attribute slots: every declared attribute gets a fixed
    integer index, so object states store a [Value.t array] instead of a
    string map (see {!Obj_state}).  Built lazily from [t_attrs] and
    cached; the template record stays buildable as a plain literal. *)
type slots = {
  slot_names : string array;  (** declaration order *)
  slot_index : (string, int) Hashtbl.t;
}

(** Staging hook: the dispatch layer ({!Dispatch}) caches its per-event
    rule indexes and compiled evaluators on the template through this
    extensible type, without the template layer depending on the
    evaluator. *)
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
      (** declared rule variables: names that act as binders in event
          patterns *)
  mutable t_slots : slots option;  (** lazy: see {!slots} *)
  mutable t_staged : staged option;  (** owned by the dispatch layer *)
}

let slots t =
  match t.t_slots with
  | Some s -> s
  | None ->
      let names = Array.of_list (List.map (fun a -> a.at_name) t.t_attrs) in
      let index = Hashtbl.create (max 4 (Array.length names)) in
      Array.iteri
        (fun i n -> if not (Hashtbl.mem index n) then Hashtbl.add index n i)
        names;
      let s = { slot_names = names; slot_index = index } in
      t.t_slots <- Some s;
      s

let n_slots t = Array.length (slots t).slot_names
let slot_of t name = Hashtbl.find_opt (slots t).slot_index name
let slot_name t i = (slots t).slot_names.(i)

let key_fits t key =
  match (t.t_id_fields, key) with
  | [], _ -> true
  | [ (_, ty) ], _ -> Value.fits ty key
  | fields, Value.Tuple kvs ->
      List.for_all
        (fun (name, ty) ->
          match List.assoc_opt name kvs with
          | Some v -> Value.fits ty v
          | None -> true)
        fields
  | _ -> false

let find_attr t name =
  List.find_opt (fun a -> String.equal a.at_name name) t.t_attrs

let find_event t name =
  List.find_opt (fun e -> String.equal e.ed_name name) t.t_events

let birth_events t =
  List.filter (fun e -> e.ed_kind = Ast.Ev_birth) t.t_events

let death_events t =
  List.filter (fun e -> e.ed_kind = Ast.Ev_death) t.t_events

let is_var t name = List.mem_assoc name t.t_vars

(** Permissions guarding a given event name. *)
let perms_for t ev_name =
  List.filter (fun p -> String.equal p.pm_event ev_name) t.t_perms
