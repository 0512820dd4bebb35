(** The society server: one loaded {!Troll.Session}, served to many
    clients over newline-delimited JSON frames.

    External-schema architecture (§2 of the paper): clients never hold
    the community — they speak the {!Protocol} against a session held by
    the daemon, and interface classes mediate their view of it.

    {b Execution model.}  A single-threaded [select] loop multiplexes
    every connection.  Each wakeup drains every complete frame the
    kernel has buffered (decode-ahead) into a per-connection FIFO of
    admitted jobs, bounded by [queue_capacity] across all connections;
    the turn then executes the queued jobs — round-robin across
    connections, one job per connection per cycle, so a deeply
    pipelined client never starves the others, while each connection's
    own requests stay FIFO — against the journaled engine.  Every
    mutating request is one transaction and a rejected request leaves
    the community bit-identical.  A request whose deadline passes while
    it is still queued is answered [deadline_expired] without touching
    the engine; a request arriving on a full queue is answered
    [overloaded] immediately.

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
    in order (only while no prepared transaction is open and the
    session is unsharded).  The pool is created lazily on the first
    probe batch, so a server that never needs it never spawns a domain
    and stays fork-safe.

    {b Write coalescing and backpressure.}  Responses append to a
    per-connection output buffer; the loop flushes each buffer once per
    turn through a nonblocking descriptor, so one turn's answers leave
    in one [write] and a peer that stops draining can never block the
    loop (partial writes resume from the select write set).  A backlog
    past [out_high_water] pauses reading that connection — admission
    stops, kernel backpressure propagates to the client — and reading
    resumes once the backlog drains to [out_low_water].  A connection
    paused for [evict_after] seconds straight is evicted.  Pauses,
    resumes, evictions and batch sizes are reported in the [pipeline]
    block of the [stats] frame.

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
  out_high_water : int;
      (** output-backlog bytes beyond which the connection's reads
          pause (backpressure instead of unbounded buffering) *)
  out_low_water : int;
      (** backlog bytes at which a paused connection resumes reading *)
  evict_after : float;
      (** seconds a connection may stay paused before it is evicted;
          also bounds how long a drain waits for slow readers *)
}

val default_config : config
(** Queue of 1024, no default deadline, no snapshot, one job; 1 MiB
    high water, 64 KiB low water, 30 s eviction. *)

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

val serve_fds : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve one connection reading from the first and writing to the
    second descriptor (the [--stdio] mode).  Returns once the input is
    exhausted (or a [shutdown] request was served) and every admitted
    request has been answered. *)

val listen_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (replacing a stale socket
    file), serve until shutdown, then close every connection and
    remove the socket file.  Installs SIGINT/SIGTERM handlers that
    trigger {!stop}, and ignores SIGPIPE. *)

val stop : t -> unit
(** Begin draining: stop admitting, finish the queue, return from the
    serve call.  Idempotent; safe from signal handlers. *)

val stats_json : t -> Json.t
(** The [stats] result document: server counters, queue depth,
    {!Trace.txn_stats_rows}, probe/view/pool counters, and per-op
    latency histograms. *)
