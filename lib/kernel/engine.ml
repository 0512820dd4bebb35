(** The execution engine (animator).

    An engine step realises the paper's event semantics:

    - an attempted base event is closed under *event calling* (local
      [interaction]/[calling] rules, [global interactions], phase births)
      into a synchronous event set — called events occur simultaneously
      with their callers;
    - *transaction calling* [e >> (e1; e2)] appends follow-up micro-steps
      that execute in order; the whole chain is atomic;
    - every event of the set is checked against its object's
      *permissions* (temporal guards, monitored incrementally);
    - *valuation* rules are evaluated on the pre-state and applied
      simultaneously; two events of one step writing different values to
      one attribute is an inconsistency and rejects the step;
    - *constraints* are checked on the post-state;
    - on any violation the whole transaction rolls back and the
      community is unchanged. *)

open Runtime_error

type outcome = {
  committed : Event.t list list;  (** micro-steps, in execution order *)
  created : Ident.t list;
  destroyed : Ident.t list;
}

type step_result = (outcome, reason) result

(* Transactions, snapshots and rollback live in {!Txn}: every mutation
   below runs inside a [Txn.t] scope and is journaled (object snapshots
   explicitly via [Txn.touch], community-level mutations automatically
   by the [Community] mutators). *)

(* ------------------------------------------------------------------ *)
(* Event targeting                                                     *)
(* ------------------------------------------------------------------ *)

(** Retarget an event at the base aspect that actually declares it
    (inheritance of events: firing [MANAGER(p).hire] delegates upward if
    only [PERSON] declares [hire]). *)
let rec locate_event (c : Community.t) (ev : Event.t) : Event.t =
  let tpl = Community.template_exn c ev.Event.target.Ident.cls in
  match Template.find_event tpl ev.Event.name with
  | Some _ -> ev
  | None -> (
      match (tpl.Template.t_view_of, tpl.Template.t_spec_of) with
      | Some base, _ | None, Some base ->
          locate_event c
            { ev with Event.target = Ident.as_class base ev.Event.target }
      | None, None ->
          fail (Unknown_event (tpl.Template.t_name, ev.Event.name)))

(** Set the identification attributes of a newly created object from its
    key value. *)
let set_id_attrs (o : Obj_state.t) =
  match o.Obj_state.template.Template.t_id_fields with
  | [] -> ()
  | [ (name, _) ] -> Obj_state.set_attr o name o.Obj_state.id.Ident.key
  | fields -> (
      match o.Obj_state.id.Ident.key with
      | Value.Tuple kvs ->
          List.iter
            (fun (name, _) ->
              match List.assoc_opt name kvs with
              | Some v -> Obj_state.set_attr o name v
              | None -> ())
            fields
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Members and the step's working state                                *)
(* ------------------------------------------------------------------ *)

(** One event of a synchronous set, resolved once for every phase of
    the step: located at the aspect that declares it, with that
    aspect's template and event definition, the target object when it
    already exists, and its staged index entry under compiled dispatch
    ([None] on the interpreted path). *)
type member = {
  ev : Event.t;
  tpl : Template.t;
  ed : Template.event_def;
  existing : Obj_state.t option;
  ce : Dispatch.centry option;
}

(** The working state of one step: the transaction, the called events
    awaiting closure and the follow-up micro-steps awaiting execution
    (both newest first), and the current micro-step's valuation writes
    (newest first) with their conflict index, created on first need. *)
type run = {
  c : Community.t;
  txn : Txn.t;
  mutable pending : Event.t list;
  mutable later : Event.t list list;
  mutable writes : (Obj_state.t * string * int * Value.t) list;
  mutable index : (Ident.t * string, Value.t) Hashtbl.t option;
}

let located (c : Community.t) (ev0 : Event.t) : member =
  let ev = locate_event c ev0 in
  let existing = Community.find_object c ev.Event.target in
  let tpl =
    match existing with
    | Some o -> o.Obj_state.template
    | None -> Community.template_exn c ev.Event.target.Ident.cls
  in
  let ce =
    if Dispatch.enabled c then
      Some (Dispatch.entry (Dispatch.template_index c tpl) ev.Event.name)
    else None
  in
  let ed =
    match ce with
    | Some { Dispatch.ce_ed = Some ed; _ } -> ed
    | _ -> (
        match Template.find_event tpl ev.Event.name with
        | Some ed -> ed
        | None -> fail (Unknown_event (tpl.Template.t_name, ev.Event.name)))
  in
  { ev; tpl; ed; existing; ce }

(** Resolve an event into a member.  An existing target whose own
    template declares the event needs no retargeting, so under compiled
    dispatch its entry comes from that template's index without
    {!locate_event}'s template lookups. *)
let resolve (c : Community.t) (ev : Event.t) : member =
  if Dispatch.enabled c then
    match Community.find_object c ev.Event.target with
    | Some o as existing -> (
        let tpl = o.Obj_state.template in
        let ce = Dispatch.entry (Dispatch.template_index c tpl) ev.Event.name in
        match ce.Dispatch.ce_ed with
        | Some ed -> { ev; tpl; ed; existing; ce = Some ce }
        | None -> located c ev)
    | None -> located c ev
  else located c ev

(* ------------------------------------------------------------------ *)
(* Calling closure                                                     *)
(* ------------------------------------------------------------------ *)

let resolve_called (c : Community.t) ~env ~self (term : Ast.event_term) :
    Event.t =
  let target =
    match term.Ast.target with
    | None -> (
        match self with
        | Some (o : Obj_state.t) -> o.Obj_state.id
        | None -> fail (Eval_error "called event without target"))
    | Some r -> Eval.resolve_ref c ~env ~self r
  in
  let args = List.map (Eval.expr c ~env ~self) term.Ast.ev_args in
  Event.make target term.Ast.ev_name args

(** Match a global rule's caller pattern, e.g.
    [DEPT(D).new_manager(P) >> …], against an occurred event. *)
let match_global_caller (c : Community.t) ~(vars : string list)
    (pat : Ast.event_term) (ev : Event.t) : Env.t option =
  if not (String.equal pat.Ast.ev_name ev.Event.name) then None
  else
    let env = Env.empty in
    let target_env =
      match pat.Ast.target with
      | Some (Ast.OR_instance (cls, idpat)) ->
          if not (String.equal cls ev.Event.target.Ident.cls) then None
          else (
            match idpat.Ast.e with
            | Ast.E_var v when List.mem v vars ->
                Some (Env.bind v (Ident.to_value ev.Event.target) env)
            | _ -> (
                match Eval.expr c ~env ~self:None idpat with
                | pv
                  when Ident.equal
                         (Eval.key_of_value cls pv)
                         ev.Event.target ->
                    Some env
                | _ -> None
                | exception Error _ -> None))
      | Some (Ast.OR_name cls) ->
          (* class-wide pattern: any instance of the class *)
          if String.equal cls ev.Event.target.Ident.cls then Some env else None
      | Some Ast.OR_self | None -> None
    in
    match target_env with
    | None -> None
    | Some env ->
        Eval.match_args c ~env ~self:None ~vars pat.Ast.ev_args
          ev.Event.args

(** Resolve a staged called-event term: interpreted target resolution,
    compiled argument evaluation. *)
let resolve_called_c (c : Community.t) ~env ~self (cd : Dispatch.ccalled) :
    Event.t =
  let target =
    match cd.Dispatch.cd_term.Ast.target with
    | None -> (
        match self with
        | Some (o : Obj_state.t) -> o.Obj_state.id
        | None -> fail (Eval_error "called event without target"))
    | Some r -> Eval.resolve_ref c ~env ~self r
  in
  let args = List.map (fun ca -> ca c env self) cd.Dispatch.cd_args in
  Event.make target cd.Dispatch.cd_term.Ast.ev_name args

(** What a calling rule calls: a single event joins the synchronous set;
    each event of a called sequence becomes its own follow-up
    micro-step. *)
let call r resolve_one = function
  | [ one ] -> r.pending <- resolve_one one :: r.pending
  | seq -> List.iter (fun t -> r.later <- [ resolve_one t ] :: r.later) seq

(** The object a member's calling rules read: the target, or for an
    event that will create it a detached fresh state (with
    identification attributes already populated, so calling rules of
    birth events can refer to [self.<id-field>]). *)
let eval_object (m : member) : Obj_state.t =
  match m.existing with
  | Some o -> o
  | None ->
      let o = Obj_state.create m.ev.Event.target m.tpl in
      set_id_attrs o;
      o

(** Queue what one new member calls: local calling rules, global
    interactions and phase births.  A [ce_solo] entry calls nothing. *)
let expand r (m : member) =
  let c = r.c and ev = m.ev in
  match m.ce with
  | Some entry ->
      (* staged path: only rules indexed under this event name *)
      Dispatch.note_hit ();
      if not entry.Dispatch.ce_solo then begin
        let o = eval_object m in
        List.iter
          (fun (cc : Dispatch.ccalling) ->
            match
              Eval.match_compiled_event c o ~env:Env.empty cc.Dispatch.cc_pat
                ev
            with
            | None -> ()
            | Some env ->
                let guard_ok =
                  match cc.Dispatch.cc_guard with
                  | None -> true
                  | Some g -> g c env (Some o)
                in
                if guard_ok then
                  call r (resolve_called_c c ~env ~self:(Some o))
                    cc.Dispatch.cc_called)
          entry.Dispatch.ce_callings;
        let ci = Dispatch.community_index c in
        List.iter
          (fun (cg : Dispatch.cglobal) ->
            let gvars = List.map fst cg.Dispatch.cg_rule.Community.gr_vars in
            let rule = cg.Dispatch.cg_rule.Community.gr_rule in
            match match_global_caller c ~vars:gvars rule.Ast.i_caller ev with
            | None -> ()
            | Some env ->
                let guard_ok =
                  match cg.Dispatch.cg_guard with
                  | None -> true
                  | Some g -> g c env None
                in
                if guard_ok then
                  call r (resolve_called_c c ~env ~self:None)
                    cg.Dispatch.cg_called)
          (Dispatch.globals_for ci ev.Event.name);
        List.iter
          (fun ((ptpl : Template.t), (ed : Template.event_def)) ->
            let phase_id =
              Ident.make ptpl.Template.t_name ev.Event.target.Ident.key
            in
            match Community.living c phase_id with
            | Some _ -> ()
            | None ->
                r.pending <-
                  Event.make phase_id ed.Template.ed_name [] :: r.pending)
          (Dispatch.phases_for ci ~cls:ev.Event.target.Ident.cls
             ~event:ev.Event.name)
      end
  | None ->
      let o = eval_object m in
      let vars = List.map fst m.tpl.Template.t_vars in
      (* local calling rules *)
      List.iter
        (fun (rule : Ast.calling_rule) ->
          match
            Eval.match_local_event c o ~env:Env.empty ~vars rule.Ast.i_caller
              ev
          with
          | None -> ()
          | Some env ->
              let guard_ok =
                match rule.Ast.i_guard with
                | None -> true
                | Some g -> Eval.formula_state c ~env ~self:(Some o) g
              in
              if guard_ok then
                call r (resolve_called c ~env ~self:(Some o)) rule.Ast.i_called)
        m.tpl.Template.t_callings;
      (* global interaction rules *)
      List.iter
        (fun (gr : Community.global_rule) ->
          let gvars = List.map fst gr.Community.gr_vars in
          let rule = gr.Community.gr_rule in
          match match_global_caller c ~vars:gvars rule.Ast.i_caller ev with
          | None -> ()
          | Some env ->
              let guard_ok =
                match rule.Ast.i_guard with
                | None -> true
                | Some g -> Eval.formula_state c ~env ~self:None g
              in
              if guard_ok then
                call r (resolve_called c ~env ~self:None) rule.Ast.i_called)
        c.Community.globals;
      (* phase births: classes whose birth is this base event *)
      List.iter
        (fun ((ptpl : Template.t), (ed : Template.event_def)) ->
          let phase_id =
            Ident.make ptpl.Template.t_name ev.Event.target.Ident.key
          in
          (* re-birth of a phase an object already plays is ignored *)
          match Community.living c phase_id with
          | Some _ -> ()
          | None ->
              r.pending <-
                Event.make phase_id ed.Template.ed_name [] :: r.pending)
        (Community.phases_born_by c ev.Event.target.Ident.cls ev.Event.name)

let rec has_member (ev : Event.t) = function
  | [] -> false
  | m :: ms -> Event.equal m.ev ev || has_member ev ms

(** Close a micro-step's events under calling, breadth first: [sync]
    holds the members so far (newest first, [n] of them), [todo] the
    events to resolve next; what they call waits in [r.pending]. *)
let rec close r sync n = function
  | ev :: todo ->
      let m = resolve r.c ev in
      if has_member m.ev sync then close r sync n todo
      else begin
        let n = n + 1 in
        let max = r.c.Community.config.Community.max_sync_set in
        if n > max then
          fail
            (Unsupported
               (Printf.sprintf
                  "event-calling closure exceeds %d events (calling cycle?)"
                  max));
        expand r m;
        close r (m :: sync) n todo
      end
  | [] -> (
      match (r.pending, sync) with
      | [], [ _ ] -> sync
      | [], _ -> List.rev sync
      | pending, _ ->
          r.pending <- [];
          close r sync n (List.rev pending))

(* ------------------------------------------------------------------ *)
(* Permission checking                                                 *)
(* ------------------------------------------------------------------ *)

(** Evaluate one monitored atom on object [o]'s current state, given the
    events [occurred] of the step being completed. *)
let atom_eval_interp (c : Community.t) (o : Obj_state.t)
    ~(occurred : Event.t list) ~(binds : (string * Value.t) list)
    (a : Template.atom) : bool =
  let env = Env.of_list (a.Template.binds @ binds) in
  match a.Template.pred with
  | Template.P_state f -> (
      match Eval.formula_state c ~env ~self:(Some o) f with
      | b -> b
      | exception Error (Eval_error _) -> false)
  | Template.P_occurs pat ->
      let vars = List.map fst o.Obj_state.template.Template.t_vars in
      List.exists
        (fun ev -> Eval.match_local_event c o ~env ~vars pat ev <> None)
        occurred

(** Same, through the template's compiled atom table when dispatch
    staging is on.  All monitor advancement (including [virtual_value]
    and {!permission_holds}) funnels through here, so the compiled path
    needs no separate plumbing. *)
let atom_eval (c : Community.t) (o : Obj_state.t) ~(occurred : Event.t list)
    ~(binds : (string * Value.t) list) (a : Template.atom) : bool =
  if not (Dispatch.enabled c) then atom_eval_interp c o ~occurred ~binds a
  else
    let ti = Dispatch.template_index c o.Obj_state.template in
    match Dispatch.atom ti a with
    | Some (Dispatch.CA_state cf) -> (
        let env = Env.of_list (a.Template.binds @ binds) in
        match cf c env (Some o) with
        | b -> b
        | exception Error (Eval_error _) -> false)
    | Some (Dispatch.CA_occurs cp) ->
        (* the environment is only consulted once an event name matches,
           so build it lazily — monitors step on every event and the
           common case is a name mismatch *)
        let env = lazy (Env.of_list (a.Template.binds @ binds)) in
        List.exists
          (fun (ev : Event.t) ->
            String.equal ev.Event.name cp.Eval.cp_name
            && Eval.match_compiled_event c o ~env:(Lazy.force env) cp ev
               <> None)
          occurred
    | None -> atom_eval_interp c o ~occurred ~binds a

(** Monitor value for a guard whose monitor has not been started yet:
    treat the current state as the whole history (no events occurred). *)
let virtual_value (c : Community.t) (o : Obj_state.t) compiled ~binds =
  let s =
    Monitor.step compiled
      ~atom_eval:(atom_eval c o ~occurred:[] ~binds)
      None
  in
  Monitor.value compiled s

(** Does the guard of permission [idx]/[pm] hold for event [ev] with the
    unification environment [env]? *)
let permission_holds (c : Community.t) (o : Obj_state.t) idx
    (pm : Template.permission) ~env : bool =
  match pm.Template.pm_guard with
  | Template.PG_state f -> (
      match Eval.formula_state c ~env ~self:(Some o) f with
      | b -> b
      | exception Error (Eval_error _) -> false)
  | Template.PG_closed (_, compiled) -> (
      match o.Obj_state.perm_states.(idx) with
      | Obj_state.PS_closed (Some s) -> Monitor.value compiled s
      | Obj_state.PS_closed None -> virtual_value c o compiled ~binds:[]
      | Obj_state.PS_none | Obj_state.PS_indexed _ -> assert false)
  | Template.PG_indexed { ix_vars; ix_compiled; _ } -> (
      let key =
        List.map
          (fun v -> Option.value ~default:Value.Undefined (Env.find v env))
          ix_vars
      in
      let binds = List.combine ix_vars key in
      match o.Obj_state.perm_states.(idx) with
      | Obj_state.PS_indexed tbl -> (
          match Param_table.find key tbl with
          | Some s -> Monitor.value ix_compiled s
          | None -> virtual_value c o ix_compiled ~binds)
      | Obj_state.PS_none | Obj_state.PS_closed _ -> assert false)
  | Template.PG_quant { q_quant; q_var; q_class; q_compiled; _ } -> (
      match o.Obj_state.perm_states.(idx) with
      | Obj_state.PS_indexed tbl -> (
          (* instances cover members that have left the extension too;
             members without one yet take the virtual first-instant
             value *)
          let unspawned =
            List.filter_map
              (fun m ->
                let v = Ident.to_value m in
                if Param_table.find [ v ] tbl <> None then None
                else Some (virtual_value c o q_compiled ~binds:[ (q_var, v) ]))
              (Ident.Set.elements (Community.extension c q_class))
          in
          let holds = Monitor.value q_compiled in
          match q_quant with
          | `Forall ->
              Param_table.for_all holds tbl && List.for_all Fun.id unspawned
          | `Exists ->
              Param_table.exists holds tbl || List.exists Fun.id unspawned)
      | Obj_state.PS_none | Obj_state.PS_closed _ -> assert false)

(** [ce] is the event's staged entry when dispatch staging is on (the
    caller already holds it), [None] on the interpreted path. *)
let check_permissions (c : Community.t) (o : Obj_state.t) (ev : Event.t)
    (ce : Dispatch.centry option) =
  let tpl = o.Obj_state.template in
  match ce with
  | Some entry ->
    (* staged path: only permissions guarding this event name, with
       compiled argument patterns and state guards *)
    Dispatch.note_hit ();
    List.iter
      (fun (cp : Dispatch.cperm) ->
        match
          Eval.match_compiled_args c ~env:Env.empty ~self:(Some o)
            cp.Dispatch.cp_args cp.Dispatch.cp_nargs ev.Event.args
        with
        | None -> () (* pattern does not cover these arguments *)
        | Some env ->
            let holds =
              match cp.Dispatch.cp_state_guard with
              | Some cf -> (
                  match cf c env (Some o) with
                  | b -> b
                  | exception Error (Eval_error _) -> false)
              | None ->
                  permission_holds c o cp.Dispatch.cp_idx cp.Dispatch.cp_pm
                    ~env
            in
            if not holds then
              fail (Permission_denied (ev, cp.Dispatch.cp_pm.Template.pm_text)))
      entry.Dispatch.ce_perms
  | None ->
    let vars = List.map fst tpl.Template.t_vars in
    List.iteri
      (fun idx (pm : Template.permission) ->
        if String.equal pm.Template.pm_event ev.Event.name then
          match
            Eval.match_args c ~env:Env.empty ~self:(Some o) ~vars
              pm.Template.pm_args ev.Event.args
          with
          | None -> () (* pattern does not cover these arguments *)
          | Some env ->
              if not (permission_holds c o idx pm ~env) then
                fail (Permission_denied (ev, pm.Template.pm_text)))
      tpl.Template.t_perms

(* ------------------------------------------------------------------ *)
(* Monitor advancement                                                 *)
(* ------------------------------------------------------------------ *)

(** All scalar values reachable from a value (itself plus collection
    elements and tuple fields) — candidate spawn keys for parametric
    permission monitors. *)
let rec flatten_value acc (v : Value.t) =
  let acc = v :: acc in
  match v with
  | Value.Set xs | Value.List xs -> List.fold_left flatten_value acc xs
  | Value.Map kvs ->
      List.fold_left
        (fun acc (k, x) -> flatten_value (flatten_value acc k) x)
        acc kvs
  | Value.Tuple fs -> List.fold_left (fun acc (_, x) -> flatten_value acc x) acc fs
  | Value.Bool _ | Value.Int _ | Value.String _ | Value.Date _
  | Value.Money _ | Value.Enum _ | Value.Id _ | Value.Undefined ->
      acc

(** Keys to spawn for an indexed guard: instantiations obtained by
    matching the guard's event patterns (given as matcher closures)
    against the occurred events, plus (for single-parameter guards)
    every value occurring in the step's event arguments. *)
let spawn_keys_with ~(matchers : (Event.t -> Env.t option) list) ~occurred
    ~(ix_vars : string list) : Value.t list list =
  let keys = ref [] in
  let add key =
    if
      (not (List.exists (fun k -> List.compare Value.compare k key = 0) !keys))
      && List.for_all (fun v -> not (Value.is_undefined v)) key
    then keys := key :: !keys
  in
  List.iter
    (fun matcher ->
      List.iter
        (fun ev ->
          match matcher ev with
          | Some env ->
              add
                (List.map
                   (fun v ->
                     Option.value ~default:Value.Undefined (Env.find v env))
                   ix_vars)
          | None -> ())
        occurred)
    matchers;
  (match ix_vars with
  | [ _ ] ->
      List.iter
        (fun (ev : Event.t) ->
          List.iter
            (fun arg ->
              List.iter (fun v -> add [ v ]) (flatten_value [] arg))
            ev.Event.args)
        occurred
  | _ -> ());
  !keys

let spawn_keys (c : Community.t) (o : Obj_state.t) ~occurred
    ~(ix_vars : string list) (body : Template.atom Formula.t) :
    Value.t list list =
  let matchers =
    List.filter_map
      (fun (a : Template.atom) ->
        match a.Template.pred with
        | Template.P_occurs pat ->
            Some
              (fun ev ->
                Eval.match_local_event c o ~env:Env.empty ~vars:ix_vars pat
                  ev)
        | Template.P_state _ -> None)
      (Formula.atoms [] body)
  in
  spawn_keys_with ~matchers ~occurred ~ix_vars

(** Advance all monitors of object [o] after a step in which the events
    [occurred] (targeting [o]) happened and the post-state is current.
    [born] and [written] (attribute slots assigned this step) feed the
    static-constraint skip: a constraint whose footprint is exclusively
    own stored slots, none of which changed, held after the last
    committed step and still does. *)
let step_monitors (c : Community.t) (o : Obj_state.t)
    ~(occurred : Event.t list) ~(born : bool) ~(written : int list) =
  let tpl = o.Obj_state.template in
  let ti =
    if Dispatch.enabled c then Some (Dispatch.template_index c tpl) else None
  in
  (* a monitored formula none of whose occurrence atoms name an occurred
     event, and which has no state atoms, advances with every atom false
     — same truth vector, no evaluation work *)
  let const_false _ = false in
  let fast (cm : Dispatch.cmon) =
    (not cm.Dispatch.cm_has_state)
    && not
         (List.exists
            (fun (ev : Event.t) ->
              Array.exists (String.equal ev.Event.name) cm.Dispatch.cm_names)
            occurred)
  in
  let perm_fast idx =
    match ti with
    | Some ti -> (
        match ti.Dispatch.ti_perm_mons.(idx) with
        | Some cm when fast cm ->
            Dispatch.note_monitor_fast ();
            true
        | _ -> false)
    | None -> false
  in
  (* a parametric permission's instance table: when no atom can be true
     (the fast case) or the guard is sliceable, only the instances the
     occurred events bind take a full step; otherwise every instance
     does, as always on the interpreted path, the reference *)
  let step_table idx compiled ~binds ~spawn tbl =
    let pf = perm_fast idx in
    let atom_eval key =
      if pf then const_false else atom_eval c o ~occurred ~binds:(binds key)
    in
    let stamp = o.Obj_state.steps in
    let matched =
      if pf then Some []
      else
        match ti with
        | Some ti -> (
            match ti.Dispatch.ti_perm_mons.(idx) with
            | Some { Dispatch.cm_slice = Some pats; _ } ->
                Some (Dispatch.slice_keys pats occurred)
            | _ -> None)
        | None -> None
    in
    let tbl' =
      match matched with
      | Some matched ->
          Param_table.step_sliced compiled ~atom_eval ~matched ~spawn ~stamp
            tbl
      | None -> Param_table.step_full compiled ~atom_eval ~spawn ~stamp tbl
    in
    if tbl' != tbl then
      o.Obj_state.perm_states.(idx) <- Obj_state.PS_indexed tbl'
  in
  (* permissions *)
  List.iteri
    (fun idx (pm : Template.permission) ->
      match (pm.Template.pm_guard, o.Obj_state.perm_states.(idx)) with
      | Template.PG_state _, _ -> ()
      | Template.PG_closed (_, compiled), Obj_state.PS_closed prev -> (
          let pf = perm_fast idx in
          match prev with
          | Some p when pf ->
              let s = Monitor.step_false compiled p in
              if s != p then
                o.Obj_state.perm_states.(idx) <- Obj_state.PS_closed (Some s)
          | _ ->
              let ae =
                if pf then const_false else atom_eval c o ~occurred ~binds:[]
              in
              let s = Monitor.step compiled ~atom_eval:ae prev in
              o.Obj_state.perm_states.(idx) <- Obj_state.PS_closed (Some s))
      | ( Template.PG_indexed { ix_vars; ix_body; ix_compiled },
          Obj_state.PS_indexed tbl ) ->
          let spawn =
            match ti with
            | Some ti -> (
                match Dispatch.spawn_patterns ti idx with
                | Some cps ->
                    let matchers =
                      List.map
                        (fun cp ev ->
                          Eval.match_compiled_event c o ~env:Env.empty cp ev)
                        cps
                    in
                    spawn_keys_with ~matchers ~occurred ~ix_vars
                | None -> spawn_keys c o ~occurred ~ix_vars ix_body)
            | None -> spawn_keys c o ~occurred ~ix_vars ix_body
          in
          step_table idx ix_compiled ~binds:(List.combine ix_vars) ~spawn tbl
      | ( Template.PG_quant { q_var; q_class; q_compiled; _ },
          Obj_state.PS_indexed tbl ) ->
          let spawn =
            List.map
              (fun m -> [ Ident.to_value m ])
              (Ident.Set.elements (Community.extension c q_class))
          in
          let binds = function [ v ] -> [ (q_var, v) ] | _ -> [] in
          step_table idx q_compiled ~binds ~spawn tbl
      | _, _ -> assert false)
    tpl.Template.t_perms;
  (* temporal constraints: step and require truth *)
  let ki = ref 0 in
  let si = ref 0 in
  List.iter
    (fun (k : Template.constraint_def) ->
      match k with
      | Template.K_static f -> (
          match ti with
          | None ->
              if not (Eval.formula_state c ~env:Env.empty ~self:(Some o) f)
              then
                fail
                  (Constraint_violated
                     (o.Obj_state.id, Pretty.formula_to_string f))
          | Some ti ->
              let cs = ti.Dispatch.ti_statics.(!si) in
              incr si;
              let untouched =
                cs.Dispatch.cs_local && (not born)
                && not
                     (Array.exists
                        (fun s -> List.mem s written)
                        cs.Dispatch.cs_slots)
              in
              if untouched then Dispatch.note_static_skip ()
              else if not (cs.Dispatch.cs_compiled c Env.empty (Some o)) then
                fail
                  (Constraint_violated (o.Obj_state.id, cs.Dispatch.cs_text)))
      | Template.K_temporal (_, compiled, text) ->
          let prev = o.Obj_state.constr_states.(!ki) in
          let tfast =
            match ti with
            | Some ti when fast ti.Dispatch.ti_temp_mons.(!ki) ->
                Dispatch.note_monitor_fast ();
                true
            | _ -> false
          in
          let s =
            match prev with
            | Some p when tfast ->
                let s = Monitor.step_false compiled p in
                if s != p then o.Obj_state.constr_states.(!ki) <- Some s;
                s
            | _ ->
                let ae =
                  if tfast then const_false
                  else atom_eval c o ~occurred ~binds:[]
                in
                let s = Monitor.step compiled ~atom_eval:ae prev in
                o.Obj_state.constr_states.(!ki) <- Some s;
                s
          in
          incr ki;
          if not (Monitor.value compiled s) then
            fail (Constraint_violated (o.Obj_state.id, text)))
    tpl.Template.t_constraints;
  (* history *)
  if c.Community.config.Community.record_history then
    o.Obj_state.history <-
      { Obj_state.h_events = occurred; h_attrs = Array.copy o.Obj_state.attrs }
      :: o.Obj_state.history;
  o.Obj_state.steps <- o.Obj_state.steps + 1

(* ------------------------------------------------------------------ *)
(* Executing one synchronous step                                      *)
(* ------------------------------------------------------------------ *)

(** Argument arity and types (API-level safety net; checked
    specifications construct well-typed events anyway). *)
let validate_event_args (ev : Event.t) (ed : Template.event_def) =
  if List.length ev.Event.args <> List.length ed.Template.ed_params then
    fail
      (Eval_error
         (Printf.sprintf "%s expects %d argument(s), got %d" ev.Event.name
            (List.length ed.Template.ed_params)
            (List.length ev.Event.args)));
  List.iter2
    (fun v pty ->
      if not (Vtype.subtype (Value.type_of v) pty) then
        fail
          (Eval_error
             (Printf.sprintf "%s: argument %s does not fit parameter type %s"
                ev.Event.name (Value.to_string v) (Vtype.to_string pty))))
    ev.Event.args ed.Template.ed_params

(** Record one valuation write.  [checked] writes go through the
    conflict index: two events of one synchronous set writing different
    values to one attribute reject the step, an equal second write is
    dropped.  An object receiving a single staged event whose rules
    write pairwise-distinct slots cannot conflict at all, so its writes
    skip the index. *)
let record_write r ~checked (o : Obj_state.t) attr slot v =
  if not checked then r.writes <- (o, attr, slot, v) :: r.writes
  else
    let index =
      match r.index with
      | Some index -> index
      | None ->
          let index = Hashtbl.create 16 in
          r.index <- Some index;
          index
    in
    let key = (o.Obj_state.id, attr) in
    match Hashtbl.find_opt index key with
    | Some v' when not (Value.equal v v') ->
        fail (Valuation_conflict (o.Obj_state.id, attr, v', v))
    | Some _ -> ()
    | None ->
        Hashtbl.add index key v;
        r.writes <- (o, attr, slot, v) :: r.writes

(** The staged valuation rules of one event occurrence. *)
let rec staged_vrules r ~checked (o : Obj_state.t) (ev : Event.t) = function
  | [] -> ()
  | (cv : Dispatch.cvrule) :: rest ->
      (match
         Eval.match_compiled_event r.c o ~env:Env.empty cv.Dispatch.cv_pat ev
       with
      | None -> ()
      | Some env ->
          let guard_ok =
            match cv.Dispatch.cv_guard with
            | None -> true
            | Some g -> g r.c env (Some o)
          in
          if guard_ok then
            record_write r ~checked o cv.Dispatch.cv_attr cv.Dispatch.cv_slot
              (cv.Dispatch.cv_rhs r.c env (Some o)));
      staged_vrules r ~checked o ev rest

let interpreted_vrules r (o : Obj_state.t) (ev : Event.t) =
  let c = r.c and tpl = o.Obj_state.template in
  let vars = List.map fst tpl.Template.t_vars in
  List.iter
    (fun (rule : Ast.valuation_rule) ->
      match
        Eval.match_local_event c o ~env:Env.empty ~vars rule.Ast.v_event ev
      with
      | None -> ()
      | Some env ->
          let guard_ok =
            match rule.Ast.v_guard with
            | None -> true
            | Some g -> Eval.formula_state c ~env ~self:(Some o) g
          in
          if guard_ok then
            record_write r ~checked:true o rule.Ast.v_attr (-1)
              (Eval.expr c ~env ~self:(Some o) rule.Ast.v_rhs))
    tpl.Template.t_valuations

(** One object of a synchronous set and its members, in closure
    order. *)
type participant = {
  o : Obj_state.t;
  members : member list;
  born : bool;  (** a member is a birth event *)
}

let is_birth m = m.ed.Template.ed_kind = Ast.Ev_birth
let member_event m = m.ev

(** Group a synchronous set by target object.  A group that receives a
    later member moves behind the others, so groups run in the order of
    their last member — which decides the violation a step reports. *)
let group (sync : member list) : member list list =
  match sync with
  | [ _ ] -> [ sync ]
  | _ ->
      let same m g =
        Ident.equal (List.hd g).ev.Event.target m.ev.Event.target
      in
      List.fold_left
        (fun groups m ->
          match List.find_opt (same m) groups with
          | Some g -> (m :: g) :: List.filter (fun g' -> g' != g) groups
          | None -> [ m ] :: groups)
        [] sync
      |> List.rev_map List.rev

let rec validate_members (o : Obj_state.t) = function
  | [] -> ()
  | m :: ms ->
      validate_event_args m.ev m.ed;
      (match m.ed.Template.ed_kind with
      | Ast.Ev_birth ->
          if o.Obj_state.alive || o.Obj_state.dead then
            fail (Already_alive o.Obj_state.id)
      | Ast.Ev_death | Ast.Ev_normal ->
          if not o.Obj_state.alive then fail (Not_alive o.Obj_state.id));
      validate_members o ms

(** Phase 1 for one group: materialise the object (a birth creates it),
    snapshot it, and validate every member's arguments and life-cycle
    stage. *)
let participant r (members : member list) : participant =
  let m0 = List.hd members in
  let id = m0.ev.Event.target and tpl = m0.tpl in
  let born = List.exists is_birth members in
  let o =
    match m0.existing with
    | Some o -> o
    | None ->
        if not born then fail (Unknown_object id);
        (* persisted state is refused when a key does not fit, so the
           engine must not create such an object either *)
        if not (Template.key_fits tpl id.Ident.key) then
          fail
            (Eval_error
               (Printf.sprintf
                  "%s: the key does not fit the identification of %s"
                  (Ident.to_string id) tpl.Template.t_name));
        let o = Obj_state.create id tpl in
        Community.register_object r.c o;
        Txn.note_created r.txn id;
        o
  in
  Txn.touch r.txn o;
  (* closure under inheritance: an aspect needs its base aspect —
     phases (view of) and static specializations alike *)
  (match (tpl.Template.t_view_of, tpl.Template.t_spec_of) with
  | (Some base, _ | None, Some base) when born -> (
      let base_id = Ident.make base id.Ident.key in
      match Community.living r.c base_id with
      | Some _ -> ()
      | None -> fail (Not_alive base_id))
  | _ -> ());
  validate_members o members;
  { o; members; born }

let rec participants r = function
  | [] -> []
  | g :: gs ->
      let p = participant r g in
      p :: participants r gs

(* Each phase is one loop over the participants calling its helpers
   directly: a generic iterator taking the phase as an argument costs a
   one-event step tens of nanoseconds. *)

(** Phase 2: permissions on the pre-state. *)
let rec permit_members c (o : Obj_state.t) = function
  | [] -> ()
  | m :: ms ->
      check_permissions c o m.ev m.ce;
      permit_members c o ms

let rec permit r = function
  | [] -> ()
  | p :: ps ->
      permit_members r.c p.o p.members;
      permit r ps

(** Phase 3: valuations on the pre-state. *)
let rec valuate r = function
  | [] -> ()
  | p :: ps ->
      (match p.members with
      | [ { ev; ce = Some ce; _ } ] when ce.Dispatch.ce_distinct_slots ->
          Dispatch.note_hit ();
          staged_vrules r ~checked:false p.o ev ce.Dispatch.ce_vrules
      | members ->
          List.iter
            (fun m ->
              match m.ce with
              | Some ce ->
                  Dispatch.note_hit ();
                  staged_vrules r ~checked:true p.o m.ev ce.Dispatch.ce_vrules
              | None -> interpreted_vrules r p.o m.ev)
            members);
      valuate r ps

(** Phase 4: births, then the writes (oldest first), then deaths.  A
    death ends the object's life cycle — and, because all aspects of
    one object share it, the death of a base aspect also ends every
    living phase (view) aspect depending on it, transitively. *)
let rec birth r = function
  | [] -> ()
  | p :: ps ->
      if p.born then
        List.iter
          (fun m ->
            if is_birth m then begin
              p.o.Obj_state.alive <- true;
              set_id_attrs p.o;
              Community.extension_add r.c p.o.Obj_state.id
            end)
          p.members;
      birth r ps

let rec apply_writes = function
  | [] -> ()
  | ((o : Obj_state.t), attr, slot, v) :: older ->
      apply_writes older;
      if slot >= 0 then Obj_state.set_attr_slot o slot v
      else Obj_state.set_attr o attr v

let rec kill r (o : Obj_state.t) =
  if o.Obj_state.alive then begin
    Txn.touch r.txn o;
    o.Obj_state.alive <- false;
    o.Obj_state.dead <- true;
    Community.extension_remove r.c o.Obj_state.id;
    Txn.note_destroyed r.txn o.Obj_state.id;
    Hashtbl.iter
      (fun _ (tpl : Template.t) ->
        match (tpl.Template.t_view_of, tpl.Template.t_spec_of) with
        | (Some base, _ | None, Some base)
          when String.equal base o.Obj_state.id.Ident.cls -> (
            match
              Community.living r.c
                (Ident.make tpl.Template.t_name o.Obj_state.id.Ident.key)
            with
            | Some dependent -> kill r dependent
            | None -> ())
        | _ -> ())
      r.c.Community.templates
  end

let rec death_members r (o : Obj_state.t) = function
  | [] -> ()
  | m :: ms ->
      if m.ed.Template.ed_kind = Ast.Ev_death then kill r o;
      death_members r o ms

let rec death r = function
  | [] -> ()
  | p :: ps ->
      death_members r p.o p.members;
      death r ps

(** The declared slots this micro-step wrote on [o]. *)
let rec slots_written (o : Obj_state.t) acc = function
  | [] -> acc
  | ((o' : Obj_state.t), _, slot, _) :: rest ->
      slots_written o (if o' == o && slot >= 0 then slot :: acc else acc) rest

(** Phase 5: post-state constraints and monitor advancement. *)
let rec advance r = function
  | [] -> ()
  | p :: ps ->
      step_monitors r.c p.o
        ~occurred:(List.map member_event p.members)
        ~born:p.born
        ~written:(slots_written p.o [] r.writes);
      advance r ps

(** Execute one closed synchronous set: the five phases, each over every
    participant before the next begins. *)
let exec_sync r (sync : member list) =
  r.writes <- [];
  r.index <- None;
  let ps = participants r (group sync) in
  permit r ps;
  valuate r ps;
  birth r ps;
  apply_writes r.writes;
  death r ps;
  advance r ps

(** The step loop: close each micro-step under calling and execute it,
    FIFO, with the follow-ups transaction calling contributes queued
    behind the remaining micro-steps.  Returns the executed synchronous
    sets, in order; a violation anywhere raises out of the whole
    attempt. *)
let rec exec_micro_steps r done_ = function
  | init :: todo ->
      let sync = close r [] 0 init in
      exec_sync r sync;
      exec_micro_steps r (List.map member_event sync :: done_) todo
  | [] -> (
      match (r.later, done_) with
      | [], [ _ ] -> done_
      | [], _ -> List.rev done_
      | later, _ ->
          r.later <- [];
          exec_micro_steps r done_ (List.rev later))

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

(** Resolve a step request to the micro-step queue it animates:
    [Create]/[Destroy] pick their default birth/death event against the
    schema, the firing shapes pass through. *)
let normalise (c : Community.t) (s : Step.t) :
    (Event.t list list, Runtime_error.reason) result =
  match s with
  | Step.Fire ev -> Ok [ [ ev ] ]
  | Step.Sync evs -> Ok [ evs ]
  | Step.Seq evs -> Ok (List.map (fun e -> [ e ]) evs)
  | Step.Txn micro_steps -> Ok micro_steps
  | Step.Create { cls; key; event; args } -> (
      match Community.find_template c cls with
      | None -> Error (Unknown_class cls)
      | Some tpl -> (
          let birth =
            match event with
            | Some name -> (
                match Template.find_event tpl name with
                | Some ed when ed.Template.ed_kind = Ast.Ev_birth -> Some name
                | Some _ | None -> None)
            | None -> (
                match Template.birth_events tpl with
                | [ ed ] -> Some ed.Template.ed_name
                | _ -> None)
          in
          match birth with
          | None ->
              Error
                (Not_birth
                   (Event.make (Ident.make cls key)
                      (Option.value ~default:"<birth>" event)
                      args))
          | Some name -> Ok [ [ Event.make (Ident.make cls key) name args ] ]))
  | Step.Destroy { id; event; args } -> (
      match Community.find_template c id.Ident.cls with
      | None -> Error (Unknown_class id.Ident.cls)
      | Some tpl -> (
          let death =
            match event with
            | Some name -> Some name
            | None -> (
                match Template.death_events tpl with
                | [ ed ] -> Some ed.Template.ed_name
                | _ -> None)
          in
          match death with
          | None -> Error (Unsupported "object has no unique death event")
          | Some name -> Ok [ [ Event.make id name args ] ]))

(** Run a step's micro-steps inside the open transaction [txn]. *)
let run (c : Community.t) (txn : Txn.t) (micro_steps : Event.t list list) :
    outcome =
  let r = { c; txn; pending = []; later = []; writes = []; index = None } in
  let committed = exec_micro_steps r [] micro_steps in
  { committed; created = Txn.created txn; destroyed = Txn.destroyed txn }

(** The single entry point: every way of changing the community is a
    {!Step.t}, run as one atomic transaction. *)
let step (c : Community.t) (s : Step.t) : step_result =
  match normalise c s with
  | Error _ as e -> e
  | Ok micro_steps -> (
      let txn = Txn.begin_ c in
      match run c txn micro_steps with
      | outcome ->
          Txn.commit txn;
          Ok outcome
      | exception Error reason ->
          Txn.rollback txn;
          Error reason)

(* ------------------------------------------------------------------ *)
(* Two-phase execution (shard participants)                            *)
(* ------------------------------------------------------------------ *)

type prepared = { p_txn : Txn.t; p_outcome : outcome }

(** {!step} without the commit: the effects are applied and the outcome
    known, yet nothing is owned-committed (no version bump, no commit
    hook, no WAL record).  The caller must resolve the scope with
    {!commit_prepared} or {!rollback_prepared} before anything else
    animates this community. *)
let prepare (c : Community.t) (s : Step.t) :
    (prepared, Runtime_error.reason) result =
  match normalise c s with
  | Error _ as e -> e
  | Ok micro_steps -> (
      let txn = Txn.begin_ c in
      match run c txn micro_steps with
      | outcome -> Ok { p_txn = txn; p_outcome = outcome }
      | exception Error reason ->
          Txn.rollback txn;
          Error reason)

let outcome_of_prepared p = p.p_outcome
let commit_prepared p = Txn.commit p.p_txn
let rollback_prepared p = Txn.rollback p.p_txn

(** Create an object: fire the class's birth event.  [event] defaults to
    the unique birth event of the template. *)
let create c ~cls ~key ?event ?(args = []) () : step_result =
  step c (Step.Create { cls; key; event; args })

(** Kill an object: fire the (unique) death event. *)
let destroy c ~id ?event ?(args = []) () : step_result =
  step c (Step.Destroy { id; event; args })

(** Fire enabled active events until quiescence or [fuel] runs out,
    visiting living objects in identity order.  Only parameterless
    active events are considered (argument synthesis for parameterized
    active events is out of scope).  Returns the events fired, in
    order. *)
let run_active c ~fuel : Event.t list =
  let fired = ref [] in
  let budget = ref fuel in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    let candidates =
      List.concat_map
        (fun (o : Obj_state.t) ->
          if not o.Obj_state.alive then []
          else
            List.filter_map
              (fun (ed : Template.event_def) ->
                if ed.Template.ed_active && ed.Template.ed_params = []
                   && ed.Template.ed_kind = Ast.Ev_normal
                then Some (Event.make o.Obj_state.id ed.Template.ed_name [])
                else None)
              o.Obj_state.template.Template.t_events)
        (Community.objects_sorted c)
    in
    List.iter
      (fun ev ->
        if !budget > 0 then
          match step c (Step.Fire ev) with
          | Ok _ ->
              fired := ev :: !fired;
              decr budget;
              progress := true
          | Error _ -> ())
      candidates
  done;
  List.rev !fired

(* ------------------------------------------------------------------ *)
(* Enabledness queries (for animation front ends)                      *)
(* ------------------------------------------------------------------ *)

(** Would this event be accepted right now?  Fired inside {!Txn.probe},
    which always rolls back: the community is untouched (including
    monitor states) and the cost is O(touched state), not O(society). *)
let enabled c (ev : Event.t) : bool =
  match Txn.probe c (fun () -> step c (Step.Fire ev)) with
  | Ok _ -> true
  | Error _ -> false

(** Parameterless non-birth events of a template, in declaration order.
    With compiled dispatch on, the list is read off the staged index
    (hoisted once per template per schema generation) instead of being
    re-filtered from [t_events] on every query. *)
let nullary_descriptors c (tpl : Template.t) : Template.event_def array =
  if Dispatch.enabled c then
    (Dispatch.template_index c tpl).Dispatch.ti_nullary
  else
    Array.of_list
      (List.filter
         (fun (ed : Template.event_def) ->
           ed.Template.ed_params = [] && ed.Template.ed_kind <> Ast.Ev_birth)
         tpl.Template.t_events)

(** Non-birth events with their parameter types, in declaration
    order. *)
let candidate_descriptors c (tpl : Template.t) :
    (string * Vtype.t list) array =
  if Dispatch.enabled c then
    (Dispatch.template_index c tpl).Dispatch.ti_candidates
  else
    Array.of_list
      (List.filter_map
         (fun (ed : Template.event_def) ->
           if ed.Template.ed_kind = Ast.Ev_birth then None
           else Some (ed.Template.ed_name, ed.Template.ed_params))
         tpl.Template.t_events)

(** The parameterless events of a living object that are currently
    enabled — what an animator would offer as next steps.  Events with
    parameters are reported by {!candidate_events} instead (enabledness
    generally depends on the arguments). *)
let enabled_events c (id : Ident.t) : string list =
  match Community.living c id with
  | None -> []
  | Some o ->
      List.filter_map
        (fun (ed : Template.event_def) ->
          if enabled c (Event.make id ed.Template.ed_name []) then
            Some ed.Template.ed_name
          else None)
        (Array.to_list (nullary_descriptors c o.Obj_state.template))

(** All event names of an object's template with their parameter
    types (birth events excluded for living objects). *)
let candidate_events c (id : Ident.t) : (string * Vtype.t list) list =
  match Community.find_template c id.Ident.cls with
  | None -> []
  | Some tpl -> Array.to_list (candidate_descriptors c tpl)

(* ------------------------------------------------------------------ *)
(* Batched parallel probes over a frozen view                          *)
(* ------------------------------------------------------------------ *)

(** Enabledness of an arbitrary batch of events against one frozen
    view — the unit of work of the society server's coalesced probe
    dispatch.  Every pool participant probes its own domain-private
    thaw of the view, so the probes are data-race free by
    construction; at [jobs = 1] the pool runs the same loop on the
    caller and the answers equal {!enabled} on the source. *)
let enabled_batch_par ~pool (v : View.t) (evs : Event.t array) : bool array =
  let n = Array.length evs in
  let out = Array.make n false in
  Pool.run pool ~n (fun i ->
      let c = View.thaw_cached v in
      out.(i) <- enabled c evs.(i));
  out

(* ------------------------------------------------------------------ *)
(* Naive (trace-based) permission checking — the E4 ablation baseline  *)
(* ------------------------------------------------------------------ *)

(** Re-evaluate a temporal guard over the full recorded history of [o]
    instead of reading the incremental monitor.  Requires
    [record_history = true] in the community's configuration.  Only
    meaningful for guards over the object's own state and events (which
    is what TROLL permissions are). *)
let naive_guard_value (c : Community.t) (o : Obj_state.t)
    (body : Template.atom Formula.t) ~(binds : (string * Value.t) list) :
    bool =
  let entries = Array.of_list (List.rev o.Obj_state.history) in
  if Array.length entries = 0 then false
  else begin
    let saved = o.Obj_state.attrs in
    let atom (a : Template.atom) (h : Obj_state.history_entry) =
      let env = Env.of_list (a.Template.binds @ binds) in
      match a.Template.pred with
      | Template.P_state f ->
          o.Obj_state.attrs <- h.Obj_state.h_attrs;
          let r =
            match Eval.formula_state c ~env ~self:(Some o) f with
            | b -> b
            | exception Error (Eval_error _) -> false
          in
          o.Obj_state.attrs <- saved;
          r
      | Template.P_occurs pat ->
          let vars = List.map fst o.Obj_state.template.Template.t_vars in
          List.exists
            (fun ev -> Eval.match_local_event c o ~env ~vars pat ev <> None)
            h.Obj_state.h_events
    in
    let r = Trace_eval.eval_last ~atom entries body in
    o.Obj_state.attrs <- saved;
    r
  end
