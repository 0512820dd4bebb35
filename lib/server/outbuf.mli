(** Per-connection nonblocking output buffering — the write half of a
    {!Conn} connection.

    An [Outbuf.t] wraps a file descriptor that it switches to
    [O_NONBLOCK].  Frames are {e appended} (encoded straight into the
    buffer via {!Frame.add_line}, no intermediate strings) and
    {e flushed} opportunistically: {!flush} writes as much as the
    kernel will take and keeps the rest, resuming from the partial
    write on the next call — so a peer that stops draining can never
    block the serve loop.  All frames appended between two flushes
    leave in one [write] (write coalescing).

    The buffer never drops data on its own; backpressure policy (high /
    low water marks, eviction deadlines) belongs to {!Conn}, which
    reads {!pending} and decides.  A write error ([EPIPE],
    [ECONNRESET], …) marks the buffer dead and discards the backlog;
    the owner observes {!alive} and closes the connection.

    Cumulative module-level counters (flushes, short writes, bytes) are
    reported via {!stats_rows} — the [pipeline] block of the server's
    and the router's [stats] frames. *)

type t

val create : Unix.file_descr -> t
(** Wrap [fd], putting it in nonblocking mode.  The descriptor is not
    owned: closing it remains the caller's business. *)

val add_frame : t -> Json.t -> unit
(** Append one NDJSON frame (newline included).  A no-op once dead. *)

val add_string : t -> string -> unit
(** Append raw bytes (already-framed payloads). *)

val flush : t -> unit
(** Write as much of the backlog as the descriptor accepts right now.
    Partial writes and [EAGAIN]/[EWOULDBLOCK] keep the remainder for
    the next call; [EINTR] retries; any other error kills the buffer. *)

val pending : t -> int
(** Bytes appended but not yet accepted by the kernel. *)

val need_write : t -> bool
(** [alive t && pending t > 0] — membership test for the select write
    set. *)

val alive : t -> bool
(** [false] once a write failed; the backlog is gone. *)

val kill : t -> unit
(** Mark dead and drop the backlog (connection being closed). *)

val stats_rows : unit -> (string * int) list
(** Cumulative counters across every buffer of the process:
    [out_flushes] (flush calls that had work), [out_short_writes]
    (flushes that could not drain everything), [out_bytes] (bytes
    written). *)

val reset_stats : unit -> unit
