(** Staged rule dispatch: per-event rule indexes and compiled
    evaluators, built once per template/community and cached.

    The interpreter scans whole rule lists and resolves every name
    dynamically on each step.  This module stages that work at load
    time:

    - every template's valuation rules, permissions and local calling
      rules are grouped by event name, so {!Engine} touches only the
      rules that can match the event being executed;
    - guards, valuation right-hand sides, pattern arguments and monitor
      atoms are compiled to closures ({!Eval.compile_expr}) with
      attribute slots, enum constants and class-ness resolved up front;
    - static constraints carry a footprint analysis (which own slots
      they read), letting the engine skip re-checking constraints whose
      footprint was not written in a step;
    - global interaction rules and phase-birth rules are indexed by
      caller event name at the community level.

    Caches live on [Template.t_staged] / [Community.staged] through the
    extensible [staged] types, stamped with [Community.schema_generation]
    and rebuilt on mismatch, so schema edits can never be observed
    through a stale index.  Compiled closures capture schema facts only,
    never a community: a {!Community.clone} (which shares templates, and
    hence these caches) evaluates against its own runtime state. *)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

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

let templates_staged = ref 0
let slots_interned = ref 0
let rules_indexed = ref 0
let dispatch_hits = ref 0
let static_skips = ref 0
let monitor_fast_steps = ref 0

let stats () =
  {
    templates_staged = !templates_staged;
    slots_interned = !slots_interned;
    rules_indexed = !rules_indexed;
    dispatch_hits = !dispatch_hits;
    interpreted_fallbacks = !Eval.fallback_count;
    static_skips = !static_skips;
    monitor_fast_steps = !monitor_fast_steps;
  }

let reset_stats () =
  templates_staged := 0;
  slots_interned := 0;
  rules_indexed := 0;
  dispatch_hits := 0;
  static_skips := 0;
  monitor_fast_steps := 0;
  Eval.fallback_count := 0

let stats_rows () =
  let s = stats () in
  [
    ("templates staged", s.templates_staged);
    ("slots interned", s.slots_interned);
    ("rules indexed", s.rules_indexed);
    ("dispatch hits", s.dispatch_hits);
    ("interpreted fallbacks", s.interpreted_fallbacks);
    ("static constraint skips", s.static_skips);
    ("monitor fast steps", s.monitor_fast_steps);
  ]

let pp_stats ppf () =
  List.iter
    (fun (label, n) -> Format.fprintf ppf "%-26s %d@." label n)
    (stats_rows ())

let note_hit () = incr dispatch_hits
let note_static_skip () = incr static_skips
let note_monitor_fast () = incr monitor_fast_steps

(* ------------------------------------------------------------------ *)
(* Compiled rule forms                                                 *)
(* ------------------------------------------------------------------ *)

(** A valuation rule staged for one event name. *)
type cvrule = {
  cv_rule : Ast.valuation_rule;  (** original rule, for diagnostics *)
  cv_pat : Eval.compiled_pattern;
  cv_guard : Eval.compiled_formula option;
  cv_rhs : Eval.compiled_expr;
  cv_attr : string;
  cv_slot : int;  (** slot of [cv_attr]; [-1] when not a declared slot *)
}

(** A called event term with compiled argument expressions. *)
type ccalled = { cd_term : Ast.event_term; cd_args : Eval.compiled_expr list }

(** A local calling rule staged for its caller event name. *)
type ccalling = {
  cc_rule : Ast.calling_rule;
  cc_pat : Eval.compiled_pattern;
  cc_guard : Eval.compiled_formula option;
  cc_called : ccalled list;
}

(** A permission staged for its guarded event name. *)
type cperm = {
  cp_idx : int;  (** position in [t_perms] / [perm_states] *)
  cp_pm : Template.permission;
  cp_args : Eval.compiled_arg list;
  cp_nargs : int;
  cp_state_guard : Eval.compiled_formula option;
      (** compiled guard for [PG_state]; monitored guards keep their
          incremental monitors and are evaluated by the engine *)
}

(** All rules of one template that can react to one event name, plus
    the event's definition (one hash lookup replaces the per-phase
    [find_event] list scans). *)
type centry = {
  ce_ed : Template.event_def option;
  ce_vrules : cvrule list;
  ce_perms : cperm list;
  ce_callings : ccalling list;
  ce_distinct_slots : bool;
      (** the valuation rules write pairwise-distinct known slots — a
          single occurrence of the event cannot produce a write
          conflict, so conflict detection is statically discharged *)
  ce_solo : bool;
      (** the template declares the event, and nothing calls another
          event when it occurs: no local calling rule, no global
          interaction on its name, no phase birth — its calling closure
          is itself *)
}

let empty_entry =
  {
    ce_ed = None;
    ce_vrules = [];
    ce_perms = [];
    ce_callings = [];
    ce_distinct_slots = true;
    ce_solo = false;
  }

(** Compiled form of a monitored atom. *)
type catom =
  | CA_state of Eval.compiled_formula
  | CA_occurs of Eval.compiled_pattern

(** Event footprint of a monitored formula: which event names its
    occurrence atoms mention, and whether it has state atoms at all.
    When a step's occurred events are disjoint from [cm_names] and
    [cm_has_state] is false, every atom of the formula evaluates to
    false, so the monitor can advance with a constant-false evaluator —
    the truth vector (and hence the persisted state) is bit-identical,
    only the evaluation work is skipped. *)
type cmon = {
  cm_names : string array;
  cm_has_state : bool;
  cm_slice : slice_pat list option;
      (** sliceable parametric guard: where each occurrence atom's event
          carries the binding *)
}

(** Event name, arity and index-variable argument positions of one
    occurrence atom of a sliceable guard. *)
and slice_pat = { sl_name : string; sl_nargs : int; sl_pos : int list }

(** A static constraint with its read footprint. *)
type cstatic = {
  cs_compiled : Eval.compiled_formula;
  cs_text : string;  (** for violation reports *)
  cs_local : bool;
      (** reads only own stored attribute slots — eligible for
          dirty-slot skipping *)
  cs_slots : int array;  (** the slots it reads (when [cs_local]) *)
}

type tpl_index = {
  ti_generation : int;
  ti_by_event : (string, centry) Hashtbl.t;
  ti_atoms : (Template.atom * catom) list;
      (** monitored atoms by physical identity ([assq]); the atoms in a
          compiled monitor are the same records as in its body formula *)
  ti_spawns : (int * Eval.compiled_pattern list) list;
      (** permission index → occurrence patterns of its [PG_indexed]
          body, compiled with the guard's own pattern variables *)
  ti_statics : cstatic array;
  ti_perm_mons : cmon option array;
      (** per permission index: event footprint of a monitored guard's
          body; [None] for [PG_state] guards *)
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
  ci_globals : (string, cglobal list) Hashtbl.t;  (** by caller event *)
  ci_phases :
    (string * string, (Template.t * Template.event_def) list) Hashtbl.t;
      (** (base class, base event) → phase births, exactly as
          {!Community.phases_born_by} would list them *)
}

type Community.staged += C_staged of com_index

let enabled (c : Community.t) =
  c.Community.config.Community.compiled_dispatch

(* ------------------------------------------------------------------ *)
(* Static-constraint footprint analysis                                *)
(* ------------------------------------------------------------------ *)

(** Which own attribute slots a formula reads — and whether it reads
    anything else.  Conservative: queries, quantifiers, cross-object
    attribute access, class extensions, derived and inherited attributes
    all make the constraint non-local (it is then re-checked on every
    step, like the interpreter does). *)
let static_footprint (c : Community.t) (tpl : Template.t) (f : Ast.formula) :
    bool * int array =
  let local = ref true in
  let slots = ref [] in
  let has_base =
    tpl.Template.t_view_of <> None || tpl.Template.t_spec_of <> None
  in
  let add_slot name =
    match (Template.find_attr tpl name, Template.slot_of tpl name) with
    | Some def, Some i when def.Template.at_derived = None ->
        slots := i :: !slots
    | _ -> local := false
  in
  let bare_name name =
    if Template.find_attr tpl name <> None then add_slot name
    else if has_base then local := false
    else if Community.enum_of_const c name <> None then ()
    else local := false
  in
  let rec ex (x : Ast.expr) =
    match x.Ast.e with
    | Ast.E_lit _ | Ast.E_self -> ()
    | Ast.E_var name -> bare_name name
    | Ast.E_attr (Ast.OR_self, "surrogate", []) -> ()
    | Ast.E_attr (Ast.OR_self, name, []) -> add_slot name
    | Ast.E_attr _ -> local := false
    | Ast.E_field (b, _) -> ex b
    | Ast.E_apply (_, args) ->
        (* builtins and surrogate construction are pure in the state *)
        List.iter ex args
    | Ast.E_binop (_, a, b) ->
        ex a;
        ex b
    | Ast.E_unop (_, a) -> ex a
    | Ast.E_tuple fs -> List.iter (fun (_, e) -> ex e) fs
    | Ast.E_setlit xs | Ast.E_listlit xs -> List.iter ex xs
    | Ast.E_if (a, b, d) ->
        ex a;
        ex b;
        ex d
    | Ast.E_query _ -> local := false
  in
  let rec fo (f : Ast.formula) =
    match f.Ast.f with
    | Ast.F_expr e -> ex e
    | Ast.F_not g -> fo g
    | Ast.F_and (a, b) | Ast.F_or (a, b) | Ast.F_implies (a, b) ->
        fo a;
        fo b
    | Ast.F_forall _ | Ast.F_exists _ | Ast.F_sometime _ | Ast.F_always _
    | Ast.F_since _ | Ast.F_previous _ | Ast.F_after _ ->
        local := false
  in
  fo f;
  (!local, Array.of_list (List.sort_uniq compare !slots))

(* ------------------------------------------------------------------ *)
(* Index construction                                                  *)
(* ------------------------------------------------------------------ *)

let build_tpl (c : Community.t) (tpl : Template.t) : tpl_index =
  let generation = !Community.schema_generation in
  let some_tpl = Some tpl in
  let vars = List.map fst tpl.Template.t_vars in
  incr templates_staged;
  slots_interned := !slots_interned + Template.n_slots tpl;
  let by_event = Hashtbl.create 16 in
  let add name update =
    let cur =
      Option.value (Hashtbl.find_opt by_event name) ~default:empty_entry
    in
    Hashtbl.replace by_event name (update cur)
  in
  List.iter
    (fun (r : Ast.valuation_rule) ->
      let cv =
        {
          cv_rule = r;
          cv_pat = Eval.compile_pattern c ~tpl:some_tpl ~vars r.Ast.v_event;
          cv_guard =
            Option.map (Eval.compile_formula c ~tpl:some_tpl) r.Ast.v_guard;
          cv_rhs = Eval.compile_expr c ~tpl:some_tpl r.Ast.v_rhs;
          cv_attr = r.Ast.v_attr;
          cv_slot =
            (match Template.slot_of tpl r.Ast.v_attr with
            | Some i -> i
            | None -> -1);
        }
      in
      incr rules_indexed;
      add r.Ast.v_event.Ast.ev_name (fun e ->
          { e with ce_vrules = e.ce_vrules @ [ cv ] }))
    tpl.Template.t_valuations;
  List.iteri
    (fun idx (pm : Template.permission) ->
      let cp =
        {
          cp_idx = idx;
          cp_pm = pm;
          cp_args = Eval.compile_args c ~tpl:some_tpl ~vars pm.Template.pm_args;
          cp_nargs = List.length pm.Template.pm_args;
          cp_state_guard =
            (match pm.Template.pm_guard with
            | Template.PG_state f ->
                Some (Eval.compile_formula c ~tpl:some_tpl f)
            | Template.PG_closed _ | Template.PG_indexed _
            | Template.PG_quant _ ->
                None);
        }
      in
      incr rules_indexed;
      add pm.Template.pm_event (fun e ->
          { e with ce_perms = e.ce_perms @ [ cp ] }))
    tpl.Template.t_perms;
  let compile_called (terms : Ast.event_term list) =
    List.map
      (fun (t : Ast.event_term) ->
        {
          cd_term = t;
          cd_args = List.map (Eval.compile_expr c ~tpl:some_tpl) t.Ast.ev_args;
        })
      terms
  in
  List.iter
    (fun (r : Ast.calling_rule) ->
      let cc =
        {
          cc_rule = r;
          cc_pat = Eval.compile_pattern c ~tpl:some_tpl ~vars r.Ast.i_caller;
          cc_guard =
            Option.map (Eval.compile_formula c ~tpl:some_tpl) r.Ast.i_guard;
          cc_called = compile_called r.Ast.i_called;
        }
      in
      incr rules_indexed;
      add r.Ast.i_caller.Ast.ev_name (fun e ->
          { e with ce_callings = e.ce_callings @ [ cc ] }))
    tpl.Template.t_callings;
  List.iter
    (fun (ed : Template.event_def) ->
      add ed.Template.ed_name (fun e -> { e with ce_ed = Some ed }))
    tpl.Template.t_events;
  let called_globally name =
    List.exists
      (fun (gr : Community.global_rule) ->
        String.equal gr.Community.gr_rule.Ast.i_caller.Ast.ev_name name)
      c.Community.globals
  in
  List.iter
    (fun name ->
      let e = Hashtbl.find by_event name in
      let slots = List.map (fun cv -> cv.cv_slot) e.ce_vrules in
      let distinct =
        List.for_all (fun s -> s >= 0) slots
        && List.length (List.sort_uniq compare slots) = List.length slots
      in
      let solo =
        e.ce_ed <> None && e.ce_callings = []
        && (not (called_globally name))
        && Community.phases_born_by c tpl.Template.t_name name = []
      in
      Hashtbl.replace by_event name
        { e with ce_distinct_slots = distinct; ce_solo = solo })
    (Hashtbl.fold (fun k _ acc -> k :: acc) by_event []);
  let monitored_bodies =
    List.filter_map
      (fun (pm : Template.permission) ->
        match pm.Template.pm_guard with
        | Template.PG_state _ -> None
        | Template.PG_closed (body, _) -> Some body
        | Template.PG_indexed { ix_body; _ } -> Some ix_body
        | Template.PG_quant { q_body; _ } -> Some q_body)
      tpl.Template.t_perms
    @ List.filter_map
        (function
          | Template.K_static _ -> None
          | Template.K_temporal (body, _, _) -> Some body)
        tpl.Template.t_constraints
  in
  let ti_atoms =
    List.map
      (fun (a : Template.atom) ->
        ( a,
          match a.Template.pred with
          | Template.P_state f ->
              CA_state (Eval.compile_formula c ~tpl:some_tpl f)
          | Template.P_occurs pat ->
              CA_occurs (Eval.compile_pattern c ~tpl:some_tpl ~vars pat) ))
      (List.concat_map (Formula.atoms []) monitored_bodies)
  in
  let ti_spawns =
    List.concat
      (List.mapi
         (fun idx (pm : Template.permission) ->
           match pm.Template.pm_guard with
           | Template.PG_indexed { ix_vars; ix_body; _ } ->
               let pats =
                 List.filter_map
                   (fun (a : Template.atom) ->
                     match a.Template.pred with
                     | Template.P_occurs p ->
                         Some
                           (Eval.compile_pattern c ~tpl:some_tpl ~vars:ix_vars
                              p)
                     | Template.P_state _ -> None)
                   (Formula.atoms [] ix_body)
               in
               [ (idx, pats) ]
           | _ -> [])
         tpl.Template.t_perms)
  in
  let ti_statics =
    Array.of_list
      (List.filter_map
         (function
           | Template.K_static f ->
               let local, slots = static_footprint c tpl f in
               Some
                 {
                   cs_compiled = Eval.compile_formula c ~tpl:some_tpl f;
                   cs_text = Pretty.formula_to_string f;
                   cs_local = local;
                   cs_slots = slots;
                 }
           | Template.K_temporal _ -> None)
         tpl.Template.t_constraints)
  in
  let monitor_footprint ?(index_vars = []) (body : Template.atom Formula.t)
      : cmon =
    let names = ref [] in
    let has_state = ref false in
    let atoms = Formula.atoms [] body in
    List.iter
      (fun (a : Template.atom) ->
        match a.Template.pred with
        | Template.P_state _ -> has_state := true
        | Template.P_occurs e ->
            let n = e.Ast.ev_name in
            if not (List.mem n !names) then names := n :: !names)
      atoms;
    let slice_pat (e : Ast.event_term) =
      let local =
        match e.Ast.target with
        | None | Some Ast.OR_self -> true
        | Some _ -> false
      in
      let position v =
        let rec go i = function
          | [] -> None
          | { Ast.e = Ast.E_var x; _ } :: _ when String.equal x v -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 e.Ast.ev_args
      in
      let pos = List.map position index_vars in
      if local && List.for_all Option.is_some pos then
        Some
          {
            sl_name = e.Ast.ev_name;
            sl_nargs = List.length e.Ast.ev_args;
            sl_pos = List.map Option.get pos;
          }
      else None
    in
    let cm_slice =
      if index_vars = [] || !has_state then None
      else
        let pats =
          List.filter_map
            (fun (a : Template.atom) ->
              match a.Template.pred with
              | Template.P_occurs e -> Some (slice_pat e)
              | Template.P_state _ -> None)
            atoms
        in
        if List.for_all Option.is_some pats then
          Some (List.map Option.get pats)
        else None
    in
    { cm_names = Array.of_list !names; cm_has_state = !has_state; cm_slice }
  in
  let ti_perm_mons =
    Array.of_list
      (List.map
         (fun (pm : Template.permission) ->
           match pm.Template.pm_guard with
           | Template.PG_state _ -> None
           | Template.PG_closed (body, _) -> Some (monitor_footprint body)
           | Template.PG_indexed { ix_vars; ix_body; _ } ->
               Some (monitor_footprint ~index_vars:ix_vars ix_body)
           | Template.PG_quant { q_var; q_body; _ } ->
               Some (monitor_footprint ~index_vars:[ q_var ] q_body))
         tpl.Template.t_perms)
  in
  let ti_temp_mons =
    Array.of_list
      (List.filter_map
         (function
           | Template.K_static _ -> None
           | Template.K_temporal (body, _, _) -> Some (monitor_footprint body))
         tpl.Template.t_constraints)
  in
  let non_birth =
    List.filter
      (fun (ed : Template.event_def) -> ed.ed_kind <> Ast.Ev_birth)
      tpl.Template.t_events
  in
  let ti_nullary =
    Array.of_list
      (List.filter
         (fun (ed : Template.event_def) -> ed.ed_params = [])
         non_birth)
  in
  let ti_candidates =
    Array.of_list
      (List.map
         (fun (ed : Template.event_def) ->
           (ed.Template.ed_name, ed.Template.ed_params))
         non_birth)
  in
  { ti_generation = generation; ti_by_event = by_event; ti_atoms; ti_spawns;
    ti_statics; ti_perm_mons; ti_temp_mons; ti_nullary; ti_candidates }

let template_index (c : Community.t) (tpl : Template.t) : tpl_index =
  match tpl.Template.t_staged with
  | Some (T_staged ti)
    when ti.ti_generation = !Community.schema_generation ->
      ti
  | _ ->
      let ti = build_tpl c tpl in
      tpl.Template.t_staged <- Some (T_staged ti);
      ti

let build_com (c : Community.t) : com_index =
  let generation = !Community.schema_generation in
  let ci_globals = Hashtbl.create 8 in
  List.iter
    (fun (gr : Community.global_rule) ->
      let rule = gr.Community.gr_rule in
      let name = rule.Ast.i_caller.Ast.ev_name in
      let cg =
        {
          cg_rule = gr;
          cg_guard =
            Option.map (Eval.compile_formula c ~tpl:None) rule.Ast.i_guard;
          cg_called =
            List.map
              (fun (t : Ast.event_term) ->
                {
                  cd_term = t;
                  cd_args =
                    List.map (Eval.compile_expr c ~tpl:None) t.Ast.ev_args;
                })
              rule.Ast.i_called;
        }
      in
      incr rules_indexed;
      let cur = Option.value (Hashtbl.find_opt ci_globals name) ~default:[] in
      Hashtbl.replace ci_globals name (cur @ [ cg ]))
    c.Community.globals;
  (* phase births: collect the (base class, base event) keys, then let
     [Community.phases_born_by] list each — identical contents and order
     to the unindexed path *)
  let ci_phases = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (tpl : Template.t) ->
      List.iter
        (fun (ed : Template.event_def) ->
          match ed.Template.ed_born_by with
          | Some
              { Ast.target = Some (Ast.OR_name base); ev_name = base_ev; _ }
            ->
              if not (Hashtbl.mem ci_phases (base, base_ev)) then
                Hashtbl.replace ci_phases (base, base_ev)
                  (Community.phases_born_by c base base_ev)
          | _ -> ())
        tpl.Template.t_events)
    c.Community.templates;
  { ci_generation = generation; ci_globals; ci_phases }

let community_index (c : Community.t) : com_index =
  match c.Community.staged with
  | Some (C_staged ci)
    when ci.ci_generation = !Community.schema_generation ->
      ci
  | _ ->
      let ci = build_com c in
      c.Community.staged <- Some (C_staged ci);
      ci

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

let entry (ti : tpl_index) (event_name : string) : centry =
  Option.value (Hashtbl.find_opt ti.ti_by_event event_name)
    ~default:empty_entry

let globals_for (ci : com_index) (event_name : string) : cglobal list =
  Option.value (Hashtbl.find_opt ci.ci_globals event_name) ~default:[]

let phases_for (ci : com_index) ~(cls : string) ~(event : string) :
    (Template.t * Template.event_def) list =
  Option.value (Hashtbl.find_opt ci.ci_phases (cls, event)) ~default:[]

let atom (ti : tpl_index) (a : Template.atom) : catom option =
  List.assq_opt a ti.ti_atoms

let spawn_patterns (ti : tpl_index) (perm_idx : int) :
    Eval.compiled_pattern list option =
  List.assoc_opt perm_idx ti.ti_spawns

let slice_keys (pats : slice_pat list) (occurred : Event.t list) :
    Value.t list list =
  List.concat_map
    (fun (ev : Event.t) ->
      List.filter_map
        (fun sp ->
          if
            String.equal sp.sl_name ev.Event.name
            && List.compare_length_with ev.Event.args sp.sl_nargs = 0
          then Some (List.map (List.nth ev.Event.args) sp.sl_pos)
          else None)
        pats)
    occurred

(** Warm every cache of a community at load time, so the first event
    pays no staging cost. *)
let stage_community (c : Community.t) : unit =
  ignore (community_index c);
  Hashtbl.iter
    (fun _ tpl -> ignore (template_index c tpl))
    c.Community.templates
