(** The connection core under {!Server} and {!Router}: everything a
    single-threaded [select] loop does with a connection, whoever owns
    it.

    A connection pairs a descriptor (two in stdio mode) with its
    {!Inbuf} and {!Outbuf}.  It is {e served} — the peer sends requests:
    the server's sessions, the router's clients — or {e upstream} — the
    peer answers this process's requests: the router's shard links.

    {b The select turn.}  {!turn} builds the read set (the listener
    while accepting; every connection that is reading and not paused)
    and the write set (every connection with output pending), selects,
    flushes the writable buffers first, then accepts on the listener
    and reads each readable connection dry, handing every complete
    frame to the owner's callback.

    {b The frame-error rule.}  A served connection's malformed line is
    answered [bad_request] ["malformed frame: …"] with a null id, and
    the next line is read as usual; an unterminated tail past
    {!Frame.max_frame_bytes} is answered [bad_request] and closes the
    connection; end of input half-closes it (it stops reading and only
    drains).  An upstream connection closes at the first line it cannot
    read, at end of input and at a write error: the owner hears of it
    through [on_close] at once, never by a timeout.

    {b Output policy.}  Frames append to the connection's output buffer.
    {!police} flushes every buffer once per turn, so a turn's frames
    leave in one [write] per connection, and a peer that stops reading
    never blocks the loop.  A served connection whose backlog reaches
    the high-water mark stops being read — kernel backpressure reaches
    the client — until it drains to the low-water mark; one paused for
    [evict_after] seconds straight is evicted.  A write error closes a
    connection, and a half-closed one is reaped once its backlog is
    written and its owner calls it idle. *)

type policy = {
  high_water : int;  (** output-backlog bytes at which reading pauses *)
  low_water : int;  (** backlog bytes at which a paused connection resumes *)
  evict_after : float;
      (** seconds a connection may stay paused before it is evicted *)
}

val default_policy : policy
(** 1 MiB high water, 64 KiB low water, 30 s eviction. *)

type 'a t
(** A connection carrying its owner's data ['a]. *)

type 'a set
(** The connections of one loop, with their policy, their listener and
    their counters. *)

val create :
  ?policy:policy ->
  fresh:(unit -> 'a) ->
  idle:('a t -> bool) ->
  on_close:('a t -> unit) ->
  unit ->
  'a set
(** [fresh ()] is the data of an accepted connection; [idle c] says a
    half-closed served connection owes its peer nothing more;
    [on_close c] runs once, when [c] closes for any reason. *)

val add :
  'a set ->
  ?upstream:bool ->
  ?owned:bool ->
  ?out_fd:Unix.file_descr ->
  Unix.file_descr ->
  'a ->
  'a t
(** Add a connection reading [fd] and writing [out_fd] (default [fd]),
    both switched to nonblocking mode.  [upstream] defaults to false.
    The set closes an [owned] connection's descriptors (the default);
    the stdio descriptors belong to the caller. *)

val data : 'a t -> 'a
val alive : 'a t -> bool

val reading : 'a t -> bool
(** False once the input ended or the connection closed. *)

val send : 'a t -> Json.t -> unit
(** Append one frame; it leaves at the next flush.  A no-op once
    closed. *)

val send_error : 'a t -> id:Json.t -> Protocol.Wire_error.t -> unit

val close : 'a t -> unit
(** Give the pending output one last nonblocking write, run [on_close]
    and release the descriptors.  Idempotent. *)

val conns : 'a set -> 'a t list
(** Newest first; closed connections leave at the next {!police}. *)

val flushed : 'a set -> bool
(** No connection has output pending. *)

val turn :
  ?only:'a t list ->
  'a set ->
  accept:bool ->
  timeout:float ->
  ('a t -> Json.t -> unit) ->
  unit
(** One select turn over [only] (default: the whole set), waiting at
    most [timeout] seconds; [accept] adds the listener to the read set.
    The callback receives every complete frame. *)

val police : 'a set -> unit
(** Flush every connection, apply the output policy, and drop closed
    connections from the set. *)

val listen_unix :
  'a set -> path:string -> stop:(unit -> unit) -> (unit -> 'b) -> 'b
(** Bind a Unix-domain socket at [path] (replacing a stale socket
    file), listen with a backlog of 64, ignore SIGPIPE and route
    SIGINT/SIGTERM to [stop], then run the loop [f] with the listener
    in the set.  Afterwards close the listener, remove the socket file,
    close every connection and restore the signal handlers. *)

val malformed : 'a set -> int
(** Malformed lines answered on served connections. *)

val pipeline_rows : 'a set -> (string * Json.t) list
(** [sessions] (the served connections in the set), [pauses],
    [resumes], [evictions], then {!Outbuf.stats_rows}, as JSON
    integers. *)
