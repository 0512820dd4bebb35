(** First-class committed effects: the redo-log view of the {!Txn}
    journal.

    {!delta} folds the surviving undo entries of a committed transaction
    into a forward effect record (state images, not operations);
    {!encode}/{!decode} give the records a line-based text codec; and
    {!apply} replays a record against a community compiled from the same
    specification.  The undo log and the redo log are two consumers of
    one journal stream; {!Wal} frames encoded records on disk.  See
    [docs/PERSISTENCE.md] for the format. *)

(** One committed, replayable mutation.  Monitor states travel as
    subformula truth vectors ({!Monitor.state_to_bools}), like in
    {!Persist}; class extensions are not represented — replay re-derives
    them from [E_life] (membership is a function of [alive]). *)
type eff =
  | E_register of Ident.t  (** object (re)entered the object table *)
  | E_unregister of Ident.t  (** object left the object table *)
  | E_life of Ident.t * bool * bool  (** new (alive, dead) — birth/death *)
  | E_attr of Ident.t * string * Value.t  (** attribute write (new value) *)
  | E_perm_closed of Ident.t * int * bool array option
      (** closed permission monitor advanced to this truth vector *)
  | E_perm_indexed of Ident.t * int * (Value.t list * bool array) list
      (** indexed/quantified permission monitor: full instance table *)
  | E_perm_upsert of Ident.t * int * (Value.t list * bool array) list
      (** indexed/quantified permission monitor: the instances that
          changed (added or replaced); the others are kept *)
  | E_constr of Ident.t * int * bool array option
      (** temporal-constraint monitor advanced to this truth vector *)
  | E_steps of Ident.t * int  (** life-cycle step counter *)

val delta : Community.t -> Community.journal -> eff list
(** The committed effect delta of a transaction: per touched object, the
    oldest journal snapshot (state at transaction entry) diffed against
    the committed state.  Call from the community's [commit_hook], i.e.
    after the final mutation and before the journal is released.  May
    over-emit (an unchanged value that was re-written), never
    under-emits; effects are state images, so replay is idempotent.
    Objects appear in first-touch (chronological) order — deterministic
    for a deterministic step, and replay does not depend on cross-object
    order. *)

val encode : eff list -> string
(** Line-based text payload ([|]-separated fields, values via
    {!Value_codec}), effects grouped under [obj] context lines.  A
    steps effect opening an object's group is folded into its context
    line ([obj|CLS|key|steps]) — the step counter bumps for essentially
    every touched object, so this halves the per-object framing on
    typical commits. *)

val encode_delta : Community.t -> Community.journal -> Buffer.t -> int
(** [encode (delta c j)] fused into one diff-and-serialise pass with no
    intermediate effect list, appended to a caller-provided (reusable)
    buffer; returns the effect count.  The {!Wal} commit hook's fast
    path. *)

val decode : string -> (eff list, string) result

val apply : Community.t -> eff list -> (unit, string) result
(** Replay effects in order.  Requires a community compiled from the
    same specification, without an open journal.  Class extensions are
    re-derived from life-cycle transitions, exactly as {!Persist.load}
    re-derives them from the dumped stage. *)
