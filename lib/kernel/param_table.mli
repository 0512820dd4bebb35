(** Instance tables of parametric permission monitors: one past-LTL
    monitor state per binding of a guard's index variables (or per
    member of a quantified class), keyed by binding.

    This is parametric trace slicing (Chen & Roşu, TACAS 2009).  A table
    is an immutable value, so a transaction rolls back by keeping the
    old pointer.  Besides the instances it carries a {e hot} set — a
    superset of the keys whose state is not a fixpoint of
    {!Monitor.step_false} — which lets {!step_sliced} skip every key an
    event does not bind, and a {e dirty} set of the keys changed since a
    step stamp, which lets {!changes} name the instances a transaction
    changed without walking the table.  Tables built by {!of_bindings}
    or {!upsert} mark every key hot and dirty.

    Inside the table each key carries the [Hashtbl.hash] of its binding,
    computed once where the key enters, and keys are ordered by that
    hash first: a lookup compares ints until it meets its key or a
    collision, and only then compares values.  That order is never
    shown: {!bindings} and {!changes} answer in
    [List.compare Value.compare] order, the order dumps and the redo log
    write. *)

type t

val empty : t

val find : Value.t list -> t -> Monitor.state option
(** O(log n): one hash of the key, then int comparisons. *)

val cardinal : t -> int

val bindings : t -> (Value.t list * Monitor.state) list
(** In increasing key order ([List.compare Value.compare]) — not the
    table's own hash-first order, so this sorts: O(n log n). *)

val for_all : (Monitor.state -> bool) -> t -> bool
val exists : (Monitor.state -> bool) -> t -> bool

val of_bindings : (Value.t list * Monitor.state) list -> t
(** A table holding these instances (a later binding of a key wins). *)

val upsert : t -> (Value.t list * Monitor.state) list -> t
(** Add or replace these instances; the others are kept. *)

val step_full :
  'a Monitor.compiled ->
  atom_eval:(Value.t list -> 'a -> bool) ->
  spawn:Value.t list list ->
  stamp:int ->
  t ->
  t
(** Advance every instance by one state, deciding atom [a] of instance
    [k] by [atom_eval k a], then start a monitor for each [spawn] key not
    yet in the table (its first instant is this state).  [stamp] is the
    owning object's step counter before the step. *)

val step_sliced :
  'a Monitor.compiled ->
  atom_eval:(Value.t list -> 'a -> bool) ->
  matched:Value.t list list ->
  spawn:Value.t list list ->
  stamp:int ->
  t ->
  t
(** The same result as {!step_full}, provided every atom of every
    instance whose key is not in [matched] is false in the new state.
    Fully steps the [matched] keys, applies {!Monitor.step_false} to the
    other hot keys and spawns like {!step_full}; no other key is
    visited.  Costs O((matched + hot + spawned) · log n).  Returns the
    table itself when nothing changed. *)

val changes :
  old:t -> stamp:int -> t -> (Value.t list * Monitor.state) list option
(** The instances of [t] whose state differs (physically) from [old]'s,
    in key order, where [old] is the table [t] was stepped from by steps
    stamped [stamp] or later.  [None] when the dirty set does not reach
    back to [stamp]: the caller must then treat the whole table as
    changed. *)
