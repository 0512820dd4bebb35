(** The execution engine (animator).

    One step: close the attempted event under *event calling* into a
    synchronous set, validate life cycles, check *permissions* on the
    pre-state (via incremental temporal monitors), evaluate *valuation*
    rules on the pre-state and apply them simultaneously, enforce
    *constraints* on the post-state, and advance the monitors.
    Transaction calling appends micro-steps; any violation anywhere
    rolls the whole attempt back.  See docs/SEMANTICS.md for the precise
    phase-by-phase definition. *)

type outcome = {
  committed : Event.t list list;  (** micro-steps, in execution order *)
  created : Ident.t list;
  destroyed : Ident.t list;
}

type step_result = (outcome, Runtime_error.reason) result

(** {1 Executing steps}

    {!step} is the single entry point: the firing shapes, creation and
    destruction are all constructors of {!Step.t}, and the convenience
    functions below are thin delegators.  The wire protocol of
    [lib/server] decodes to the same type. *)

val step : Community.t -> Step.t -> step_result
(** Execute one step request as one atomic transaction. *)

val normalise :
  Community.t -> Step.t -> (Event.t list list, Runtime_error.reason) result
(** The micro-step queue a request animates; [Create]/[Destroy] resolve
    their default birth/death event against the schema. *)

(** {1 Two-phase execution}

    The shard commit protocol ({!Shard}): a coordinator prepares the
    sub-step on every participating community, and only when all of
    them accept does it commit each open transaction.  A prepared
    transaction holds the community in the tentative post-state; the
    caller must resolve it before anything else animates the
    community. *)

type prepared
(** An executed but not yet committed step: the open transaction plus
    its outcome. *)

val prepare : Community.t -> Step.t -> (prepared, Runtime_error.reason) result
(** Run the step, keep the transaction open.  On [Error] the community
    is already rolled back, exactly as after a rejected {!step}. *)

val outcome_of_prepared : prepared -> outcome

val commit_prepared : prepared -> unit
(** Commit the open transaction: version bump, commit hook (hence WAL
    record) — the effects become permanent. *)

val rollback_prepared : prepared -> unit
(** Undo the prepared step completely; the community is restored
    bit-identically to its pre-transaction state. *)

val fire : Community.t -> Event.t -> step_result
(** [step c (Step.Fire ev)]: a single event, with its synchronous
    closure. *)

val fire_sync : Community.t -> Event.t list -> step_result
(** [step c (Step.Sync evs)]: several events simultaneously (event
    sharing). *)

val fire_seq : Community.t -> Event.t list -> step_result
(** [step c (Step.Seq evs)]: a sequence of events as one atomic
    transaction. *)

val run_txn : Community.t -> Event.t list list -> step_result
(** [step c (Step.Txn micro_steps)]: the general micro-step queue. *)

val create :
  Community.t ->
  cls:string ->
  key:Value.t ->
  ?event:string ->
  ?args:Value.t list ->
  unit ->
  step_result
(** [step c (Step.Create _)]: fire a birth event ([event] defaults to
    the template's unique one). *)

val destroy :
  Community.t -> id:Ident.t -> ?event:string -> ?args:Value.t list -> unit ->
  step_result
(** [step c (Step.Destroy _)]: fire the (unique, unless named) death
    event. *)

val run_active : Community.t -> fuel:int -> Event.t list
(** Fire enabled parameterless [active] events until quiescence or fuel
    exhaustion; returns them in order. *)

(** {1 Enabledness queries} *)

val enabled : Community.t -> Event.t -> bool
(** Would this event be accepted right now?  Fired inside {!Txn.probe}
    (journal rollback, O(touched state)); the community is untouched. *)

val enabled_events : Community.t -> Ident.t -> string list
(** Currently enabled parameterless events of a living object. *)

val candidate_events : Community.t -> Ident.t -> (string * Vtype.t list) list
(** All non-birth events of the object's template with parameter
    types. *)

(** {1 Batched parallel probes}

    Enabledness answered from a frozen {!View}: every pool participant
    probes a domain-private thaw of the view, so nothing is shared
    mutable.  With a [jobs = 1] pool the loop runs sequentially on the
    caller and the answers equal {!enabled} on the source. *)

val nullary_descriptors :
  Community.t -> Template.t -> Template.event_def array
(** Parameterless non-birth events of a template, in declaration order
    — the probe set of {!enabled_events}; read off the staged index
    under compiled dispatch.  (The society server uses it to build
    coalesced probe batches.) *)

val candidate_descriptors :
  Community.t -> Template.t -> (string * Vtype.t list) array
(** Non-birth events with parameter types, in declaration order — the
    answer set of {!candidate_events}, likewise staged. *)

val enabled_batch_par : pool:Pool.t -> View.t -> Event.t array -> bool array
(** Enabledness of an arbitrary batch of events — the unit of work of
    the society server's coalesced probe dispatch when it fans out. *)

(** {1 Pieces exposed to the interface layer and the benchmarks} *)

val locate_event : Community.t -> Event.t -> Event.t
(** Retarget an event at the base aspect that declares it (upward
    delegation); raises on unknown events. *)

val resolve_called :
  Community.t -> env:Env.t -> self:Obj_state.t option -> Ast.event_term ->
  Event.t
(** Resolve a called event term to an event instance. *)

val expand_sync :
  Community.t -> Event.t list -> Event.t list * Event.t list list
(** The calling closure: the synchronous set plus follow-up micro-steps
    contributed by transaction calling. *)

val permission_holds :
  Community.t -> Obj_state.t -> int -> Template.permission -> env:Env.t ->
  bool
(** Does permission number [idx] hold for the unification environment?
    (The monitored fast path measured by experiment E4.) *)

val naive_guard_value :
  Community.t ->
  Obj_state.t ->
  Template.atom Formula.t ->
  binds:(string * Value.t) list ->
  bool
(** Re-evaluate a temporal guard over the full recorded history instead
    of reading the incremental monitor — the E4 ablation baseline;
    requires [record_history]. *)
