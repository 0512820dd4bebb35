(** Sharded object societies: partition maps and the two-phase
    decision.

    The paper's §6 modularization connects independent object societies
    only through society-interface import — events, never shared state.
    A partition map assigns every class to a shard such that classes
    that can interact within one synchronous step (inheritance,
    event-calling targets, global interactions, cross-object
    expressions) are co-located; a step whose events span several shards
    therefore always decomposes into *independent* per-shard sub-steps,
    which {!two_phase} makes atomic over open {!Txn} transactions
    ({!Engine.prepare} = the step without its commit,
    {!Engine.rollback_prepared} = abort), whether the owners are
    in-process communities or shard servers behind the router.  See
    [docs/SHARDING.md]. *)

(** {1 Class groups} *)

val groups : Community.t -> string list list
(** The connected components of the class-interaction graph, each
    sorted, listed in order of their smallest member.  Edges:
    [view of]/[specialization of] ancestry, phase [born_by] triggers,
    calling-rule targets, global interaction rules, and any
    cross-class object reference inside an expression or guard
    (valuations, permissions, constraints, derivations).  Classes in
    one group must live on one shard. *)

(** {1 Partition maps} *)

type map

val shards : map -> int

val of_classes :
  Community.t -> shards:int -> (string * int) list -> (map, string) result
(** Explicit assignment, one entry per class.  Fails if a class is
    missing or unknown, a shard id is outside [0, shards), or two
    classes of one group land on different shards. *)

val auto : Community.t -> shards:int -> map
(** Deterministic default: class groups round-robin over the shards in
    group order. *)

val by_hash : Community.t -> shards:int -> (map, string) result
(** Identity-hash partitioning: an object lives on
    [hash(key) mod shards], co-locating every aspect (view,
    specialization, phase) of one identity.  Only valid when instances
    never interact across identities — no global interactions, no
    calling targets or expression references beyond [self] and the
    object's own aspects; fails otherwise. *)

val to_string : map -> string
(** Wire form for the protocol handshake / CLI:
    ["hash:<n>"] or ["classes:<n>:CLS=<k>,…"] (classes sorted). *)

val of_string : Community.t -> string -> (map, string) result
(** Parse {!to_string}'s form, re-validating against the community. *)

val owner_class : map -> string -> (int, Runtime_error.reason) result
(** Owning shard of a class ([Unknown_class] if unmapped).  Under
    {!by_hash} partitioning class membership alone does not decide the
    shard; use {!owner_ident}. *)

val owner_ident : map -> Ident.t -> (int, Runtime_error.reason) result

val split : map -> Step.t -> ((int * Step.t) list, Runtime_error.reason) result
(** Decompose a step into per-shard sub-steps, shards in first-
    occurrence order, per-shard event order preserved.  A step with no
    events routes to shard 0. *)

(** {1 The two-phase decision} *)

(** One owner of a cross-shard step as {!two_phase} sees it.  Each
    function starts its work and returns a waiter for the answer, so
    the prepares of remote participants overlap.  [abort] is
    idempotent: it may reach a participant that refused its prepare
    or never received it.  A participant that cannot deliver a commit
    answers [Error] and must fail stop (the router respawns a dead
    shard and catches it up from its shipped WAL records). *)
type 'e participant = {
  prepare : Step.t -> unit -> (Engine.outcome, 'e) result;
  commit : unit -> unit -> (unit, 'e) result;
  abort : unit -> unit -> unit;
}

val two_phase :
  rank:('e -> int) ->
  'e participant array ->
  (int * Step.t) list ->
  (Engine.outcome, 'e) result
(** [two_phase ~rank parts subs] makes the sub-steps of one step (from
    {!split}) atomic.  Every owner [parts.(k)] is sent its prepare
    before the first answer is awaited.  On any refusal every owner
    is sent an abort and the refusal of lowest [rank] surfaces, ties
    in sub-step order (the single engine checks every life cycle of a
    synchronous set before any permission); an exception from a
    participant aborts every owner too and is re-raised.  Otherwise
    every owner commits — the first commit error, if any, is the
    answer — and the outcome lists the owners' micro-steps, creations
    and destructions in sub-step order.  Both the shard router
    (participants over its shard links, ranked by
    {!Runtime_error.code_rank}) and {!coordinate} decide here. *)

val coordinate : map -> Community.t array -> Step.t -> Engine.step_result
(** In-process routing over one community per shard (e.g. cells of
    [Troll.Session.load_shard_cell]): a single-owner step is an
    {!Engine.step} on its cell; a cross-shard step is a {!two_phase}
    over {!Engine.prepare} transactions, ranked by
    {!Runtime_error.phase_rank}, an aborted cell rolled back
    bit-identically.  An owner outside the cell array fails with
    [Unknown_shard]. *)
