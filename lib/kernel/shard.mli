(** Sharded object societies: partition maps and the two-phase commit
    coordinator.

    The paper's §6 modularization connects independent object societies
    only through society-interface import — events, never shared state.
    A partition map assigns every class to a shard such that classes
    that can interact within one synchronous step (inheritance,
    event-calling targets, global interactions, cross-object
    expressions) are co-located; a step whose events span several shards
    therefore always decomposes into *independent* per-shard sub-steps,
    which the coordinator makes atomic with a two-phase protocol built
    on open {!Txn} transactions ({!Engine.prepare} = the step without
    its commit, {!Engine.rollback_prepared} = abort).  See
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

(** {1 The two-phase coordinator} *)

(** One shard as the coordinator sees it: either a local community
    ({!local_participant}) or a proxy speaking the NDJSON protocol to a
    shard server ([Router] in [lib/server]).  [pt_commit] must succeed;
    a remote participant that cannot deliver a commit must fail stop
    (the router respawns it and replays the shipped WAL). *)
type participant = {
  pt_step : Step.t -> Engine.step_result;  (** single-shard fast path *)
  pt_prepare : Step.t -> (Engine.outcome, Runtime_error.reason) result;
  pt_commit : unit -> unit;
  pt_abort : unit -> unit;
}

val local_participant : Community.t -> participant
(** In-process participant over {!Engine.prepare} /
    {!Engine.commit_prepared} / {!Engine.rollback_prepared}. *)

val coordinate :
  map -> participant array -> Step.t -> Engine.step_result
(** Route one step: a single-owner step goes straight to its shard's
    [pt_step]; a cross-shard step is prepared on every owner and only
    then committed everywhere, any preparation failure aborting all
    prepared participants (each shard rolled back bit-identically to
    its pre-transaction state).  The merged outcome lists per-shard
    micro-steps in shard order.  An owner outside the participant
    array fails with [Unknown_shard]. *)
