(** The shard router: one endpoint fronting N shard servers.

    The partition map ({!Shard}) assigns every class group — classes
    that can interact within one synchronous step — to one shard, so a
    client-visible step either lives wholly on one shard (forwarded
    as-is, several such steps are kept in flight concurrently across
    shards) or decomposes into independent per-shard sub-steps, made
    atomic by {!Shard.two_phase} over the shard links: [prepare],
    [commit] and [abort] frames drive {!Engine.prepare} transactions
    on the shards.

    Towards its shards the router speaks the versioned protocol as a
    client that negotiated the [wal] capability: every shipped WAL
    record is mirrored next to a base dump, and when a shard dies the
    router respawns it (via the [respawn] callback), reconnects, and
    replays the mirror with a [catchup] request before routing resumes.

    Towards its clients the router answers [hello] itself (capability
    [shards], plus the partition map in wire form), merges [save] and
    [extension] across shards, and rejects inherently global requests
    ([eval], [view], [restore]) as [unsupported].  See
    docs/SHARDING.md.

    Clients and shard links are connections of one {!Conn} loop: the
    clients are served under the server's frame-error rule and
    {!Conn.default_policy}; a link is upstream, so a line the router
    cannot read, an end of input or a write error takes it down at
    once.  A synchronous exchange turns only the links it waits on. *)

type t

val create :
  community:Community.t ->
  map:Shard.map ->
  paths:string array ->
  ?respawn:(int -> unit) ->
  unit ->
  t
(** [community] is the schema facade used to split steps and merge
    [save] dumps — its instance state is scratch.  [paths] are the
    shards' Unix-socket paths, one per shard of [map].  [respawn k] is
    called before reconnecting to a dead shard [k]. *)

val stop : t -> unit
(** Make the serve loop drain and return. *)

val listen_unix : t -> path:string -> (unit, string) result
(** Connect and mirror every shard (retrying while they boot), then
    bind [path] and serve until [shutdown] or {!stop}.  [Error] when a
    shard cannot be reached or speaks another protocol version. *)
