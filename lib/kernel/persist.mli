(** Persistence of object bases ("persistent database objects", §1).

    {!save} dumps the complete dynamic state — attribute maps,
    life-cycle stages, permission- and constraint-monitor states — to a
    line-based text format; {!load} restores it into a community
    compiled from the *same specification*.  Templates are not
    serialised (the specification is the schema; the dump is the
    instance level), and recorded histories are not serialised
    (permission decisions survive regardless: they live in the monitor
    states).  See [test/test_storage.ml] for the decision-equivalence
    property.

    After its header line a dump is an {!Effect_log} record, so there is
    one reader of persisted state: every installer below decodes with
    {!Effect_log.decode} and applies with {!Effect_log.apply}.  Every
    installer is all or nothing: it decodes and applies the whole input
    to a scratch community sharing the schema, and only then moves the
    scratch's objects into the community, which stays the same record
    (the WAL's commit hook and the interface views hold it).  A refused
    input leaves the community as it was. *)

val save : Community.t -> string

val save_file : Community.t -> string -> unit
(** Crash-safe: writes via {!write_file_atomic}. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes through a same-directory
    temp file, fsyncs, atomically renames over [path], then fsyncs the
    directory — a crash leaves either the old file or the new one,
    never a truncated mix.  Also used by {!Wal} for snapshots. *)

val read_file : string -> string
(** A whole file; raises [Sys_error] like [open_in_bin].  The channel
    is closed on every path, a read that raises included. *)

val load : Community.t -> string -> (unit, string) result
(** Replace every object by the dump's.  Fails on malformed input or a
    dump from a different specification, leaving the community
    untouched. *)

val merge : Community.t -> string list -> (unit, string) result
(** Replace every object by the union of several dumps' objects — the
    shard layer's per-shard dumps, disjoint by construction (where two
    dumps hold one identity, the later dump's object wins). *)

val restore :
  Community.t ->
  ?base:string ->
  string list ->
  (unit, [ `Base of string | `Record of int * string ]) result
(** [restore c ?base records]: [base] (a dump), when given, replaces
    every object; then each record (an {!Effect_log} payload) is
    replayed in order — without a base, on top of the current objects.
    The error names the part refused: the base, or the record at that
    position of [records].  Crash recovery ([Wal.recover]) and a shard's
    catch-up install this way. *)

val load_file : Community.t -> string -> (unit, string) result
