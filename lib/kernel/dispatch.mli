(** Staged rule dispatch: per-event rule indexes and compiled
    evaluators, cached on templates and communities and stamped with
    [Community.schema_generation] (rebuilt on mismatch).

    Consumed by {!Engine} when the community's [compiled_dispatch]
    configuration flag is on; the interpreted path remains the reference
    semantics and the two must be observationally identical. *)

(** {1 Statistics} *)

type stats = {
  templates_staged : int;  (** template indexes built (incl. rebuilds) *)
  slots_interned : int;  (** attribute slots across staged templates *)
  rules_indexed : int;  (** valuation/permission/calling/global rules *)
  dispatch_hits : int;  (** per-event index lookups served *)
  interpreted_fallbacks : int;
      (** compiled closures that deferred to the interpreter *)
  static_skips : int;  (** static constraints skipped as untouched *)
  monitor_fast_steps : int;
      (** monitor advances taken with the constant-false atom evaluator *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
val stats_rows : unit -> (string * int) list
val pp_stats : Format.formatter -> unit -> unit

val note_hit : unit -> unit
(** Engine-side: one per-event index lookup served. *)

val note_static_skip : unit -> unit
(** Engine-side: one static constraint skipped via footprint. *)

val note_monitor_fast : unit -> unit
(** Engine-side: one monitor advanced with the constant-false atom
    evaluator. *)

(** {1 Compiled rule forms} *)

type cvrule = {
  cv_rule : Ast.valuation_rule;
  cv_pat : Eval.compiled_pattern;
  cv_guard : Eval.compiled_formula option;
  cv_rhs : Eval.compiled_expr;
  cv_attr : string;
  cv_slot : int;  (** slot of [cv_attr]; [-1] when not a declared slot *)
}

type ccalled = { cd_term : Ast.event_term; cd_args : Eval.compiled_expr list }

type ccalling = {
  cc_rule : Ast.calling_rule;
  cc_pat : Eval.compiled_pattern;
  cc_guard : Eval.compiled_formula option;
  cc_called : ccalled list;
}

type cperm = {
  cp_idx : int;  (** position in [t_perms] / [perm_states] *)
  cp_pm : Template.permission;
  cp_args : Eval.compiled_arg list;
  cp_nargs : int;
  cp_state_guard : Eval.compiled_formula option;
      (** compiled guard for [PG_state]; monitored guards are evaluated
          by the engine *)
}

type centry = {
  ce_ed : Template.event_def option;
      (** the event's definition — one hash lookup replaces the
          per-phase [Template.find_event] list scans *)
  ce_vrules : cvrule list;
  ce_perms : cperm list;
  ce_callings : ccalling list;
  ce_distinct_slots : bool;
      (** the valuation rules write pairwise-distinct known slots, so a
          single occurrence of the event cannot conflict with itself *)
  ce_solo : bool;
      (** the template declares the event, and nothing calls another
          event when it occurs: no local calling rule, no global
          interaction on its name, no phase birth — its calling closure
          is itself *)
}

type catom =
  | CA_state of Eval.compiled_formula
  | CA_occurs of Eval.compiled_pattern

(** Where an occurrence atom's event carries a parametric guard's
    binding: the event name, its arity, and the argument position of
    each index variable (in the guard's variable order). *)
type slice_pat = { sl_name : string; sl_nargs : int; sl_pos : int list }

(** Event footprint of a monitored formula; when a step's occurred
    events are disjoint from [cm_names] and there are no state atoms,
    every atom is false and the monitor can advance with a
    constant-false evaluator — same truth vector, no evaluation work.

    [cm_slice] is [Some pats] for a parametric guard that can be sliced
    by event: no state atoms, and every occurrence atom local (no
    target) and naming every index variable as a plain argument.  An
    instance whose key no occurred event carries at those positions
    ({!slice_keys}) then sees every atom false. *)
type cmon = {
  cm_names : string array;
  cm_has_state : bool;
  cm_slice : slice_pat list option;
}

type cstatic = {
  cs_compiled : Eval.compiled_formula;
  cs_text : string;
  cs_local : bool;
      (** reads only own stored attribute slots — eligible for
          dirty-slot skipping *)
  cs_slots : int array;
}

type tpl_index = {
  ti_generation : int;
  ti_by_event : (string, centry) Hashtbl.t;
  ti_atoms : (Template.atom * catom) list;  (** by physical identity *)
  ti_spawns : (int * Eval.compiled_pattern list) list;
  ti_statics : cstatic array;
  ti_perm_mons : cmon option array;
      (** per permission index; [None] for [PG_state] guards *)
  ti_temp_mons : cmon array;  (** per [K_temporal] constraint, in order *)
  ti_nullary : Template.event_def array;
      (** parameterless non-birth events, in declaration order — the
          probe set of [Engine.enabled_events], hoisted here so neither
          the sequential nor the batched path re-filters [t_events] *)
  ti_candidates : (string * Vtype.t list) array;
      (** all non-birth events with their parameter types, in
          declaration order ([Engine.candidate_events]) *)
}

type Template.staged += T_staged of tpl_index

type cglobal = {
  cg_rule : Community.global_rule;
  cg_guard : Eval.compiled_formula option;
  cg_called : ccalled list;
}

type com_index = {
  ci_generation : int;
  ci_globals : (string, cglobal list) Hashtbl.t;
  ci_phases :
    (string * string, (Template.t * Template.event_def) list) Hashtbl.t;
}

type Community.staged += C_staged of com_index

(** {1 Staging and lookups} *)

val enabled : Community.t -> bool
(** The community's [compiled_dispatch] flag. *)

val template_index : Community.t -> Template.t -> tpl_index
(** Cached per-template index; built (or rebuilt after a schema change)
    on first use. *)

val community_index : Community.t -> com_index

val entry : tpl_index -> string -> centry
(** All staged rules of the template reacting to an event name. *)

val globals_for : com_index -> string -> cglobal list
val phases_for :
  com_index -> cls:string -> event:string ->
  (Template.t * Template.event_def) list

val atom : tpl_index -> Template.atom -> catom option
(** Compiled form of a monitored atom, by physical identity. *)

val slice_keys : slice_pat list -> Event.t list -> Value.t list list
(** The bindings the events carry for a sliceable guard's occurrence
    atoms — a superset of the keys whose instance has a true atom. *)

val spawn_patterns : tpl_index -> int -> Eval.compiled_pattern list option
(** Occurrence patterns of a [PG_indexed] permission's body, compiled
    with the guard's pattern variables. *)

val stage_community : Community.t -> unit
(** Warm every cache at load time, so the first event pays no staging
    cost. *)
