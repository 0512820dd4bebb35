(** Liveness requirements: goals an object is expected to achieve.

    §4 mentions "liveness requirements (i.e. goals to be achieved by the
    object in an active way)" among the TROLL features not elaborated in
    the paper.  Liveness cannot be *enforced* at each step the way
    permissions (safety) can; what an animator can do is *audit* a life
    cycle: given the recorded history of an object (communities created
    with [record_history = true]), report whether each goal

    - was {e achieved}: the goal formula held in some recorded state
      ("sometime" reading, the natural sense of a goal);
    - was {e maintained}: held in every recorded state;
    - {e still holds} in the current state.

    Goals are ordinary non-temporal state formulas, checked against the
    historical attribute states. *)

type verdict = {
  goal : Ast.formula;
  achieved : bool;  (** held at some point of the recorded history *)
  maintained : bool;  (** held at every point of the recorded history *)
  holds_now : bool;
  states_checked : int;
}

let evaluate_at (c : Community.t) (o : Obj_state.t)
    (attrs : Value.t array) (goal : Ast.formula) : bool =
  let saved = o.Obj_state.attrs in
  o.Obj_state.attrs <- attrs;
  let result =
    match Eval.formula_state c ~env:Env.empty ~self:(Some o) goal with
    | b -> b
    | exception Runtime_error.Error _ -> false
  in
  o.Obj_state.attrs <- saved;
  result

(** Audit one goal against an object's recorded history (newest first in
    storage; audited oldest-first).  With no recorded history, only the
    current state is examined. *)
let audit (c : Community.t) (o : Obj_state.t) (goal : Ast.formula) : verdict =
  let past_states =
    List.rev_map (fun h -> h.Obj_state.h_attrs) o.Obj_state.history
  in
  let states =
    match past_states with [] -> [ o.Obj_state.attrs ] | s -> s
  in
  let results = List.map (fun st -> evaluate_at c o st goal) states in
  {
    goal;
    achieved = List.exists (fun b -> b) results;
    maintained = List.for_all (fun b -> b) results;
    holds_now = evaluate_at c o o.Obj_state.attrs goal;
    states_checked = List.length states;
  }

(** Parse and audit a goal given in concrete syntax. *)
let audit_string (c : Community.t) (o : Obj_state.t) (src : string) :
    (verdict, string) result =
  match Parser.formula_of_string src with
  | Error e -> Error (Parse_error.to_string e)
  | Ok goal ->
      if Template.is_temporal_ast goal then
        Error "liveness goals are state formulas (no temporal operators)"
      else Ok (audit c o goal)

(** Audit a goal for every living member of a class. *)
let audit_class (c : Community.t) ~(cls : string) (goal : Ast.formula) :
    (Ident.t * verdict) list =
  Ident.Set.fold
    (fun id acc ->
      match Community.find_object c id with
      | Some o -> (id, audit c o goal) :: acc
      | None -> acc)
    (Community.extension c cls)
    []
  |> List.rev

(** Speculative goal check: would firing [ev] leave [o] in a state
    satisfying [goal]?  The attempt runs inside {!Txn.probe} and is
    always rolled back, so the community is untouched.  [None] when the
    event is rejected (the goal is unreachable by this step). *)
let achieves (c : Community.t) (o : Obj_state.t) (ev : Event.t)
    (goal : Ast.formula) : bool option =
  Txn.probe c (fun () ->
      match Engine.step c (Step.Fire ev) with
      | Ok _ -> Some (evaluate_at c o o.Obj_state.attrs goal)
      | Error _ -> None)

let pp_verdict ppf v =
  Format.fprintf ppf "goal %s: %s (now %B, %d state(s) checked)"
    (Pretty.formula_to_string v.goal)
    (if v.maintained then "maintained throughout"
     else if v.achieved then "achieved"
     else "NOT achieved")
    v.holds_now v.states_checked
