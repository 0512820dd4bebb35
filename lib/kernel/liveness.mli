(** Liveness requirements: audit goals over recorded life cycles.

    §4 lists "liveness requirements (goals to be achieved by the object
    in an active way)" among TROLL's features.  Safety (permissions,
    constraints) is enforced per step; goals are *audited* after the
    fact against the recorded history (communities with
    [record_history = true]). *)

type verdict = {
  goal : Ast.formula;
  achieved : bool;  (** held at some point of the recorded history *)
  maintained : bool;  (** held at every point *)
  holds_now : bool;
  states_checked : int;
}

val audit : Community.t -> Obj_state.t -> Ast.formula -> verdict
(** Audit one non-temporal goal; with no recorded history only the
    current state is examined. *)

val audit_string :
  Community.t -> Obj_state.t -> string -> (verdict, string) result
(** Parse and audit a goal in concrete syntax; temporal operators are
    rejected (goals are state formulas). *)

val audit_class :
  Community.t -> cls:string -> Ast.formula -> (Ident.t * verdict) list
(** Audit a goal for every living member of a class. *)

val achieves :
  Community.t -> Obj_state.t -> Event.t -> Ast.formula -> bool option
(** Would firing the event leave the object in a state satisfying the
    goal?  Probed via {!Txn.probe} (always rolled back); [None] when the
    event is rejected. *)

val pp_verdict : Format.formatter -> verdict -> unit
