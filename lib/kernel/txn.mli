(** Journaled transactions over a {!Community}: the single owner of
    runtime-state mutation and rollback.

    Every event attempt runs inside a transaction.  Mutations — object
    fields (via {!touch} + direct writes), object creation/destruction,
    class extensions, the ordered storage index — are recorded in the
    community's journal, a LIFO undo log of O(1) pointer saves.
    Rollback undoes the log newest-first and restores the society
    exactly.

    Scopes nest: [begin_] under an open journal and {!probe} each mark
    the current journal length and unwind back to it, so an inner scope
    can roll back on its own while the outer one stays open.  Only the
    outermost transaction owns the journal slot.

    {!probe} answers speculative questions ("would this event be
    accepted?") in O(touched state); compare {!Community.clone}, which
    is O(society) and reserved for genuine branching exploration. *)

type t
(** An open transaction scope. *)

val begin_ : Community.t -> t
(** Open a scope.  Installs a fresh journal, or nests inside the open
    one. *)

val commit : t -> unit
(** Close the scope keeping its effects.  A nested commit keeps the
    journal entries: the outer scope may still roll everything back. *)

val rollback : t -> unit
(** Undo everything recorded since the scope opened and close it. *)

val touch : t -> Obj_state.t -> unit
(** Snapshot the object before mutating it.  Deduplicated per scope: a
    second [touch] of the same object in the same scope is free. *)

val note_created : t -> Ident.t -> unit
val note_destroyed : t -> Ident.t -> unit

val created : t -> Ident.t list
(** Objects noted as created in this scope, oldest first. *)

val destroyed : t -> Ident.t list
(** Objects noted as destroyed in this scope, oldest first. *)

(** {1 Probes} *)

val probe : Community.t -> (unit -> 'a) -> 'a
(** [probe c f] runs [f] inside a scope that is {e always} rolled back,
    leaving [c] bit-identical; the result (or exception) of [f] is
    passed through.  Nests freely inside open transactions and other
    probes. *)

(** {1 Statistics} *)

type stats = {
  begun : int;
  committed : int;
  rolled_back : int;
  probes : int;
  journal_entries : int;
  bytes_snapshotted : int;
}

val stats : unit -> stats
(** Process-wide counters since start (or the last {!reset_stats}).
    Journal-entry and byte totals are accounted when the owning
    transaction closes. *)

val reset_stats : unit -> unit
val pp_stats : Format.formatter -> stats -> unit
