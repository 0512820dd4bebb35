(** Durable write-ahead log: framed {!Effect_log} records plus periodic
    {!Persist}-format snapshots, with crash recovery.

    Layout of a WAL directory:
    - [snapshot.trs] — [troll-snapshot 1|<digest>|<seq>|<version>]
      header line + a {!Persist.save} dump (always written atomically);
    - [wal.log] — [troll-wal 1|<digest>] header line + records framed
      [r|<seq>|<version>|<bytes>|<crc32>\n<payload>\n].

    A torn final record (crash mid-append) is detected structurally and
    dropped cleanly on recovery; a CRC mismatch on a complete frame
    fails recovery.  See [docs/PERSISTENCE.md]. *)

type t

(** [`Never]: records are flushed to the OS page cache only (survive
    process death, not power loss); the host may group-fsync via
    {!sync}.  [`Batch]: fsync after every commit batch. *)
type fsync_policy = [ `Never | `Batch ]

(** What {!recover} (or a recovering {!attach}) found. *)
type recovery = {
  r_snapshot_seq : int;  (** sequence number the snapshot was taken at *)
  r_replayed : int;  (** WAL records applied on top of it *)
  r_last_seq : int;  (** sequence number of the recovered state *)
  r_torn_dropped : bool;  (** an incomplete final record was discarded *)
}

val attach :
  dir:string ->
  spec_digest:string ->
  ?fsync:fsync_policy ->
  ?snapshot_every:int ->
  ?truncate_history:bool ->
  ?on_batch:(int -> unit) ->
  Community.t ->
  (t * recovery option, string) result
(** Open (creating or resuming) the WAL in [dir] and install the
    community's [commit_hook], so every owning {!Txn.commit} appends its
    effect delta as one record.  Existing WAL state is recovered into
    the community first; attach always ends with a fresh snapshot and a
    rotated log.  [spec_digest] identifies the specification (use
    [Digest.to_hex (Digest.string source)]); [snapshot_every = n > 0]
    auto-compacts after [n] records; [truncate_history] (default true)
    drops recorded per-object histories at each snapshot;  [on_batch]
    is called with the sequence number after each durable append (test
    and crash-injection hook).  At most one WAL per community. *)

val detach : t -> unit
(** Remove the hook, flush + fsync, close.  Idempotent. *)

val snapshot : t -> unit
(** Compact now: write [snapshot.trs] at the current sequence number and
    rotate the log.  Call after any mutation that bypasses the journal
    (e.g. {!Persist.load}). *)

val sync : t -> unit
(** Group-boundary fsync: no-op when nothing was appended since the last
    sync. *)

val append : t -> Effect_log.eff list -> unit
(** Append one commit batch.  Normally reached through the commit hook;
    exposed for tests.  Empty effect lists are not logged. *)

val recover :
  dir:string -> spec_digest:string -> Community.t -> (recovery, string) result
(** Restore the committed state from [dir] into a community freshly
    compiled from the same specification: load the snapshot, replay the
    WAL tail, verify digest, sequence contiguity and version-stamp
    monotony.  All or nothing ({!Persist.restore}): on an error the
    community is as compiled.  Read-only — never writes to [dir]. *)

val exists : string -> bool
(** Does the directory hold WAL state (snapshot or log)? *)

val dir : t -> string
val last_seq : t -> int

val depth : t -> int
(** Records in the log since the last snapshot. *)

val set_on_batch : t -> (int -> unit) option -> unit

val set_shipper : t -> (int -> string -> unit) option -> unit
(** Install (or clear) the record-shipping hook: called with
    [(seq, payload)] for every record as it is appended — before the
    batch fsync callback.  The society server streams these to the
    shard router, which mirrors them for WAL catch-up of a restarted
    shard; {!Persist.restore} replays shipped payloads on the receiving
    side. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3) of a string; exposed for tests. *)

(** {1 Statistics} (process-wide, reset with {!reset_stats}) *)

type stats = {
  batches : int;  (** records appended *)
  effects : int;  (** effects across all appended records *)
  bytes : int;  (** payload bytes appended *)
  fsyncs : int;
  fsync_total_us : int;
  fsync_max_us : int;
  snapshots : int;  (** compactions performed *)
  replayed : int;  (** records applied during recoveries *)
  torn_dropped : int;  (** torn tail records dropped by recoveries *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
