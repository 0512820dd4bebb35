(** Fixed pool of worker domains for read-only probe fan-out.

    A pool of size [jobs] owns [jobs - 1] persistent worker domains;
    the submitting domain participates in every dispatch.  [jobs = 1]
    spawns no domains and runs strictly sequentially on the caller —
    bit-identical to not having a pool (same evaluation order, same
    statistics), and fork-safe: [Unix.fork] refuses to run in any
    process that has ever created a domain, so sequential pools keep
    fork-based tooling (the fuzz server oracle) working.

    Work is self-scheduled by an atomic chunk cursor — about four
    chunks per participant, no queues, no stealing.  Dispatches are
    serial per pool: {!run} blocks the submitter until the whole index
    range has drained. *)

type t

val create : jobs:int -> t
(** Spawn [jobs - 1] worker domains ([jobs] is clamped to at least
    1). *)

val jobs : t -> int

val small_batch_cutoff : int
(** Batches with fewer items than this run sequentially on the caller
    even when worker domains are idle: pool dispatch (mutex + two
    condition-variable round trips) dominates real work on small
    batches (bench E15).  Reported in {!stats_rows}. *)

val fans_out : t -> n:int -> bool
(** Would {!run} over [n] items hand work to worker domains?  False at
    [jobs = 1], below {!small_batch_cutoff}, or once the workers are
    gone — exactly the cases {!run} executes sequentially on the
    caller, because {!run} makes its choice with this predicate.
    Callers use it to skip preparing shared data (a frozen {!View}) for
    a dispatch that would never leave their own domain. *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] calls [f i] once for every [0 <= i < n], in parallel
    across the pool's domains, and returns when all calls have
    finished.  Unless {!fans_out} holds, the batch runs sequentially on
    the caller (identical results, same evaluation order as jobs = 1).
    [f] must only touch domain-private or frozen data (see {!View}).
    The first exception raised by any participant is re-raised here
    after the dispatch drains. *)

val shutdown : t -> unit
(** Join all worker domains; idempotent.  The pool must be idle. *)

(** {1 Default job count}

    The CLI resolves a process-wide job count for the pools it creates
    ([trollc serve]/[shard-serve]): [--jobs], then the [TROLLC_JOBS]
    environment variable, then 1.  Fan-out is opt-in because no
    measurement has shown it winning: E15's probe batch gains at most
    1.1x at two jobs. *)

val default_jobs : unit -> int
val set_default_jobs : int -> unit
(** Override {!default_jobs} for this process (clamped to at least 1). *)

(** {1 Statistics} *)

val stats_rows : unit -> (string * int) list
val reset_stats : unit -> unit
