(** The society server: one loaded {!Troll.Session}, served to many
    clients over newline-delimited JSON frames.

    External-schema architecture (§2 of the paper): clients never hold
    the community — they speak the {!Protocol} against a session held by
    the daemon, and interface classes mediate their view of it.

    {b Execution model.}  One single-threaded loop multiplexes every
    connection through the connection core, {!Conn}: its select turn
    reads each ready connection dry and frames its input in place, its
    frame-error rule answers bad lines, and its output policy coalesces
    writes and applies backpressure ([out_high_water], [out_low_water]
    and [evict_after] set it).  Each turn runs: select, flush the
    writable buffers, accept and read; execute the turn's jobs;
    group-fsync; ship WAL records; flush and police (which evicts).
    Every complete frame is admitted (decode-ahead) into a
    per-connection FIFO of jobs, bounded by [queue_capacity] across all
    connections; the turn then executes the queued jobs — round-robin
    across connections, one job per connection per cycle, so a deeply
    pipelined client never starves the others, while each connection's
    own requests stay FIFO — against the journaled engine.  Every
    mutating request is one transaction and a rejected request leaves
    the community bit-identical.  A request whose deadline passes while
    it is still queued is answered [deadline_expired] without touching
    the engine; a request arriving on a full queue is answered
    [overloaded] immediately.  Pauses, resumes, evictions and batch
    sizes are reported in the [pipeline] block of the [stats] frame.

    {b Batched execution.}  Maximal contiguous runs of the turn's job
    order coalesce.  A run of read-only probe requests ([enabled],
    [candidates]) pools every enabledness check of the run into one
    dispatch.  When that dispatch would run sequentially anyway
    ([config.jobs] = 1, the default; a run below
    {!Pool.small_batch_cutoff} checks; no worker domains — the
    {!Pool.fans_out} test), each check is a {!Txn.probe} on the live
    community, which rolls back bit-identically without bumping its
    version or firing the commit hook.  Only a dispatch that fans out
    over the pool's domains freezes a {!View}, once per quiescent
    point, for the domains to thaw.  {!execute} answers single probes
    through the same path.  Runs of single-event fires execute as one
    batch — deadlines checked once, then one {!Engine.step} per member
    in order (only while no prepared transaction is open).  The pool is
    created lazily on the first probe batch, so a server that never
    needs it never spawns a domain and stays fork-safe.

    {b Durability.}  With a {!Wal.t} attached, every mutating request
    appends its committed effect delta through the community's commit
    hook, and the loop group-fsyncs at turn boundaries: all commits of
    one turn become durable in a single fsync (acknowledgements are
    sent before the fsync — a power loss in that window can lose the
    turn's tail; process death cannot, see [docs/PERSISTENCE.md]).  A
    [snapshot] request forces a compaction; a [restore] is followed by
    an automatic one, because it changes state outside the journal.
    WAL depth, sequence number and fsync latency are reported in the
    [stats] frame.

    {b Shutdown.}  A [shutdown] request (or {!stop}, wired to
    SIGINT/SIGTERM by {!listen_unix}) stops admission; requests already
    admitted are drained in order, output buffers are flushed (waiting
    at most [evict_after] seconds for slow readers), then the WAL (if
    any) is synced and detached, the optional snapshot is flushed,
    connections close, and the serve call returns.  Frames already
    buffered behind the shutdown are answered [shutting_down]. *)

type config = {
  queue_capacity : int;  (** admission bound; beyond it: [overloaded] *)
  default_deadline_ms : int option;
      (** applied when a request carries no [deadline_ms]; [None] =
          no deadline *)
  save_on_shutdown : string option;
      (** flush a {!Persist} snapshot here after draining *)
  jobs : int;
      (** probe-pool size ([--jobs]); 1 = probe sequentially on the
          loop thread, never spawning a domain *)
  out_high_water : int;  (** {!Conn.policy}'s [high_water] *)
  out_low_water : int;  (** {!Conn.policy}'s [low_water] *)
  evict_after : float;
      (** {!Conn.policy}'s [evict_after]; also bounds how long a drain
          waits for slow readers *)
}

val default_config : config
(** Queue of 1024, no default deadline, no snapshot, one job, and
    {!Conn.default_policy}. *)

type t

val create : ?config:config -> ?wal:Wal.t -> Troll.Session.t -> t
(** [wal] must already be attached ({!Wal.attach}) to the session's
    community; the server takes over group fsync, compaction requests
    and shutdown detach. *)

val execute :
  t -> Protocol.request -> (Json.t, Protocol.Wire_error.t) result
(** Execute one request against the session, bypassing queue and
    deadlines — the loop's core, exposed for direct use and testing.
    [Shutdown] only reports; draining is the caller's business. *)

val save_file :
  Community.t -> string -> (Json.t, Protocol.Wire_error.t) result
(** The result of a [save] request with a path: the dump written by
    {!Persist.save_file} (temp file, fsync, rename), or [io_error]. *)

val serve_fds : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve one connection reading from the first and writing to the
    second descriptor (the [--stdio] mode).  Returns once the input is
    exhausted (or a [shutdown] request was served) and every admitted
    request has been answered. *)

val listen_unix : t -> path:string -> unit
(** Serve on a Unix-domain socket at [path] until shutdown, through
    {!Conn.listen_unix} (SIGINT/SIGTERM trigger {!stop}). *)

val stop : t -> unit
(** Begin draining: stop admitting, finish the queue, return from the
    serve call.  Idempotent; safe from signal handlers. *)

val stats_json : t -> Json.t
(** The [stats] result document: server counters, queue depth,
    {!Trace.txn_stats_rows}, probe/view/pool counters, and per-op
    latency histograms. *)
