(** First-class committed effects: the redo-log view of the {!Txn}
    journal.

    {!delta} folds the surviving undo entries of a committed transaction
    into a forward effect record (state images, not operations);
    {!encode}/{!decode} give the records a line-based text codec; and
    {!apply} replays a record against a community compiled from the same
    specification.  The undo log and the redo log are two consumers of
    one journal stream; {!Wal} frames encoded records on disk.

    This module owns the line format of persisted state: a {!Persist}
    dump is a header line followed by a record of [E_object] context
    lines and their objects' state lines, written with the line writers
    below and read back by {!decode} and {!apply}.  See
    [docs/PERSISTENCE.md] for the format. *)

(** One committed, replayable mutation.  Monitor states travel as
    subformula truth vectors ({!Monitor.state_to_bools}); class
    extensions are not represented — replay re-derives them from the
    [E_object] and [E_life] stages (membership is a function of
    [alive]). *)
type eff =
  | E_object of Ident.t * bool * bool * int
      (** a fresh object with this (alive, dead) stage and step count,
          replacing any object of that identity: a dump's
          [object|<cls>|<key>|<alive>|<dead>|<steps>] context line.
          {!delta} never emits it. *)
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

val decode : ?pos:int -> string -> (eff list, string) result
(** Read a payload from [pos] (default 0; a line boundary) to its
    end.  The whole input is read before the first effect is returned,
    so a malformed line anywhere refuses all of it. *)

val apply : Community.t -> eff list -> (unit, string) result
(** Replay effects in order.  Requires a community compiled from the
    same specification, without an open journal.  Class extensions are
    re-derived from the life-cycle stages.  An error can leave the
    effects before it applied: {!Persist.restore} applies to a scratch
    community for an all-or-nothing install. *)

(** {1 Line writers}

    The lines a dump shares with a record, each written whole into the
    buffer; {!Persist.save} writes its dumps with them. *)

val add_object :
  Buffer.t -> Ident.t -> alive:bool -> dead:bool -> steps:int -> unit

val add_attr : Buffer.t -> string -> Value.t -> unit

val add_perm_closed : Buffer.t -> int -> bool array -> unit
(** [perm|<index>|closed|<bits>] *)

val add_perm_indexed : Buffer.t -> int -> int -> unit
(** [perm|<index>|indexed|<n>], opening a block of [n] {!add_inst} lines *)

val add_inst : Buffer.t -> (Buffer.t -> 'k -> unit) -> 'k -> bool array -> unit
(** [add_inst buf add_key key bits] writes [inst|<key>|<bits>], the key
    by [add_key] (an encoded [Value.List] of the key's values). *)

val add_constr : Buffer.t -> int -> bool array -> unit
