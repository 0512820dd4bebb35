(** Durable write-ahead log over {!Effect_log} records.

    A WAL directory holds two files:

    - [snapshot.trs] — one header line
      [troll-snapshot 1|<spec digest>|<seq>|<version>] followed by a
      {!Persist.save} dump: the full committed state as of sequence
      number [<seq>].  Always written atomically
      ({!Persist.write_file_atomic}).
    - [wal.log] — one header line [troll-wal 1|<spec digest>], then the
      framed effect records of the commits after the snapshot.

    Each record is framed as

    {v r|<seq>|<version>|<payload bytes>|<crc32 hex>\n<payload>\n v}

    with the CRC-32 (IEEE) taken over the payload.  A record is only
    valid once its trailing newline is on disk, so a torn final write
    (crash mid-append) is detected structurally and dropped cleanly,
    while a checksum mismatch on a *complete* frame means corruption and
    fails recovery.

    {!attach} installs the community's [commit_hook]: every owning
    {!Txn.commit} with surviving journal entries appends exactly its
    effect delta as one record (a commit batch).  Fsync policy is
    [`Never] (buffered through the OS page cache: survives process
    death, not power loss) or [`Batch] (fsync after every record); with
    [`Never] a host (the server) may call {!sync} at its own group
    boundaries.  Compaction ({!snapshot}) rewrites [snapshot.trs] at the
    current sequence number and rotates [wal.log]; recovery skips
    records at or below the snapshot's sequence number, so a crash
    between the two steps is harmless.

    Recovery ({!recover}) = load snapshot, replay the WAL tail, verify
    the spec digest, sequence contiguity and version-stamp monotony; it
    installs both through {!Persist.restore}, all or nothing.
    The final in-flight transaction of a crashed [`Never]-policy process
    may be lost (redo-at-commit semantics); committed-and-synced state
    never is. *)

let snapshot_file = "snapshot.trs"
let log_file = "wal.log"
let snapshot_header = "troll-snapshot 1"
let log_header = "troll-wal 1"

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven                                    *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8: eight 256-entry tables flattened into one array,
   [tables.(k*256 + i)] advancing a byte seen [k] positions before the
   end of an 8-byte block.  Byte-at-a-time CRC is latency-bound (a
   ~3-cycle loop-carried dependency per byte); consuming 8 bytes per
   iteration turns the chain into 8 independent lookups and keeps the
   commit path's checksum under 1 ns/byte. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let p = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- t.(p land 0xff) lxor (p lsr 8)
       done
     done;
     t)

let crc32 (s : string) : int =
  let t = Lazy.force crc_tables in
  let n = String.length s in
  let c = ref 0xffffffff in
  let i = ref 0 in
  let byte k = Char.code (String.unsafe_get s (!i + k)) in
  while !i + 8 <= n do
    let x =
      !c lxor (byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24))
    in
    c :=
      Array.unsafe_get t ((7 * 256) + (x land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((x lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((x lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + ((x lsr 24) land 0xff))
      lxor Array.unsafe_get t ((3 * 256) + byte 4)
      lxor Array.unsafe_get t ((2 * 256) + byte 5)
      lxor Array.unsafe_get t (256 + byte 6)
      lxor Array.unsafe_get t (byte 7);
    i := !i + 8
  done;
  while !i < n do
    c := Array.unsafe_get t ((!c lxor byte 0) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Statistics (process-wide, like Txn's)                                *)
(* ------------------------------------------------------------------ *)

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

let n_batches = ref 0
and n_effects = ref 0
and n_bytes = ref 0
and n_fsyncs = ref 0
and n_fsync_total_us = ref 0
and n_fsync_max_us = ref 0
and n_snapshots = ref 0
and n_replayed = ref 0
and n_torn_dropped = ref 0

let stats () =
  {
    batches = !n_batches;
    effects = !n_effects;
    bytes = !n_bytes;
    fsyncs = !n_fsyncs;
    fsync_total_us = !n_fsync_total_us;
    fsync_max_us = !n_fsync_max_us;
    snapshots = !n_snapshots;
    replayed = !n_replayed;
    torn_dropped = !n_torn_dropped;
  }

let reset_stats () =
  n_batches := 0;
  n_effects := 0;
  n_bytes := 0;
  n_fsyncs := 0;
  n_fsync_total_us := 0;
  n_fsync_max_us := 0;
  n_snapshots := 0;
  n_replayed := 0;
  n_torn_dropped := 0

(* ------------------------------------------------------------------ *)
(* Handle                                                              *)
(* ------------------------------------------------------------------ *)

type fsync_policy = [ `Never | `Batch ]

type t = {
  dir : string;
  digest : string;  (** spec identity stamped into both files *)
  community : Community.t;
  fsync : fsync_policy;
  snapshot_every : int;  (** auto-compact after this many records; 0 = off *)
  truncate_history : bool;
  mutable on_batch : (int -> unit) option;
  mutable shipper : (int -> string -> unit) option;
      (** record shipping: called with (seq, payload) for every appended
          record — the replication / shard-catchup feed *)
  mutable oc : out_channel;  (** append handle on [wal.log] *)
  mutable seq : int;  (** sequence number of the last record written *)
  mutable depth : int;  (** records in [wal.log] past the snapshot *)
  mutable dirty : bool;  (** unsynced appends outstanding *)
  mutable closed : bool;
  scratch : Buffer.t;  (** reused per-commit payload buffer *)
  frame : Buffer.t;  (** reused frame buffer: header + payload *)
}

let dir t = t.dir
let last_seq t = t.seq
let depth t = t.depth

let ( / ) = Filename.concat

(* --- low-level log I/O ---------------------------------------------- *)

let open_log_append path =
  open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path

let sync t =
  if t.dirty then begin
    flush t.oc;
    let t0 = Unix.gettimeofday () in
    Unix.fsync (Unix.descr_of_out_channel t.oc);
    let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    incr n_fsyncs;
    n_fsync_total_us := !n_fsync_total_us + us;
    if us > !n_fsync_max_us then n_fsync_max_us := us;
    t.dirty <- false
  end

(** Start a fresh (rotated) log file atomically and reopen the append
    handle on it. *)
let rotate_log t =
  flush t.oc;
  close_out t.oc;
  Persist.write_file_atomic (t.dir / log_file)
    (Printf.sprintf "%s|%s\n" log_header t.digest);
  t.oc <- open_log_append (t.dir / log_file)

(* --- snapshots ------------------------------------------------------ *)

(** Compact: persist the full current state as of [t.seq], then rotate
    the log.  Recovery ignores records with seq <= the snapshot's, so a
    crash after the snapshot rename but before the rotation only leaves
    stale (skipped) records behind. *)
let snapshot t =
  if t.closed then invalid_arg "Wal.snapshot: closed";
  let header =
    Printf.sprintf "%s|%s|%d|%d\n" snapshot_header t.digest t.seq
      t.community.Community.version
  in
  Persist.write_file_atomic (t.dir / snapshot_file)
    (header ^ Persist.save t.community);
  rotate_log t;
  if t.fsync = `Batch then begin
    t.dirty <- true;
    sync t
  end;
  t.depth <- 0;
  incr n_snapshots;
  if t.truncate_history then
    (* temporal history before the snapshot can never be replayed or
       rolled back past again: drop it to bound memory on long runs *)
    Community.iter_objects t.community (fun o -> o.Obj_state.history <- [])

(* --- append (the commit hook) --------------------------------------- *)

let hex_digits = "0123456789abcdef"

let add_hex8 buf n =
  for i = 7 downto 0 do
    Buffer.add_char buf (String.unsafe_get hex_digits ((n lsr (i * 4)) land 0xf))
  done

(** Frame and write one already-encoded payload.  The whole frame is
    assembled in a reused buffer and hits the channel in a single
    [output] — [Printf]'s format interpretation, per-append
    allocation, and the dozen per-piece channel writes (each takes the
    runtime's channel lock) were all measurable on the commit path
    (E16). *)
let append_payload t ~effects (payload : string) =
  t.seq <- t.seq + 1;
  let f = t.frame in
  Buffer.clear f;
  Buffer.add_string f "r|";
  Value_codec.add_int f t.seq;
  Buffer.add_char f '|';
  Value_codec.add_int f t.community.Community.version;
  Buffer.add_char f '|';
  Value_codec.add_int f (String.length payload);
  Buffer.add_char f '|';
  add_hex8 f (crc32 payload);
  Buffer.add_char f '\n';
  Buffer.add_string f payload;
  Buffer.add_char f '\n';
  Buffer.output_buffer t.oc f;
  t.dirty <- true;
  t.depth <- t.depth + 1;
  incr n_batches;
  n_effects := !n_effects + effects;
  n_bytes := !n_bytes + String.length payload;
  (* [`Never] leaves the record in the channel buffer — no syscall on
     the commit path at all; {!sync} (the server's group fsync) and
     {!detach} flush it.  A crash can lose the buffered tail, which is
     exactly the durability [`Never] doesn't promise; a flush cut
     mid-record is dropped at recovery as a torn record. *)
  (match t.fsync with `Batch -> sync t | `Never -> ());
  (match t.shipper with Some f -> f t.seq payload | None -> ());
  (match t.on_batch with Some f -> f t.seq | None -> ());
  if t.snapshot_every > 0 && t.depth >= t.snapshot_every then snapshot t

let append t (effs : Effect_log.eff list) =
  if (not t.closed) && effs <> [] then
    append_payload t ~effects:(List.length effs) (Effect_log.encode effs)

(** The commit hook's fast path: diff + serialise in one fused pass
    into the reused scratch buffer. *)
let append_delta t (j : Community.journal) =
  if not t.closed then begin
    Buffer.clear t.scratch;
    let effects = Effect_log.encode_delta t.community j t.scratch in
    if effects > 0 then
      append_payload t ~effects (Buffer.contents t.scratch)
  end

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery = {
  r_snapshot_seq : int;  (** sequence number the snapshot was taken at *)
  r_replayed : int;  (** WAL records applied on top of it *)
  r_last_seq : int;  (** sequence number of the recovered state *)
  r_torn_dropped : bool;  (** an incomplete final record was discarded *)
}

let exists dir =
  Sys.file_exists (dir / snapshot_file) || Sys.file_exists (dir / log_file)

(** Split [contents] (after the header line) into frames, stopping
    cleanly at a torn tail.  Returns the frames in order and whether a
    torn tail was dropped. *)
let parse_frames (contents : string) (start : int) :
    ((int * int * string) list * bool, string) result =
  let len = String.length contents in
  let frames = ref [] in
  let pos = ref start in
  let torn = ref false in
  let err = ref None in
  (try
     while !pos < len && !err = None do
       match String.index_from_opt contents !pos '\n' with
       | None ->
           (* header line never completed: torn append *)
           torn := true;
           pos := len
       | Some nl -> (
           let header = String.sub contents !pos (nl - !pos) in
           match String.split_on_char '|' header with
           | [ "r"; seq; version; nbytes; crc ] -> (
               let seq = int_of_string seq
               and version = int_of_string version
               and nbytes = int_of_string nbytes in
               let body_start = nl + 1 in
               if body_start + nbytes + 1 > len then begin
                 (* payload (or its trailing newline) missing: torn *)
                 torn := true;
                 pos := len
               end
               else
                 let payload = String.sub contents body_start nbytes in
                 if contents.[body_start + nbytes] <> '\n' then
                   err := Some (Printf.sprintf "record %d: bad framing" seq)
                 else if
                   not
                     (String.equal
                        (Printf.sprintf "%08x" (crc32 payload))
                        crc)
                 then
                   err :=
                     Some (Printf.sprintf "record %d: CRC mismatch" seq)
                 else begin
                   frames := (seq, version, payload) :: !frames;
                   pos := body_start + nbytes + 1
                 end)
           | _ ->
               (* a complete, malformed header line is corruption, not a
                  torn write (torn writes have no newline) *)
               err := Some (Printf.sprintf "malformed record header %S" header))
     done
   with Failure _ -> err := Some "malformed record header");
  match !err with
  | Some m -> Error m
  | None -> Ok (List.rev !frames, !torn)

(** Restore the committed state from [dir] into [c]: load the snapshot,
    replay the WAL tail, verify the spec digest, sequence contiguity and
    version-stamp monotony.  [c] must be freshly compiled from the same
    specification; it is untouched when recovery fails.  Read-only:
    never writes to [dir]. *)
let recover ~dir ~spec_digest (c : Community.t) : (recovery, string) result =
  let ( let* ) = Result.bind in
  if not (exists dir) then Error (Printf.sprintf "no WAL state in %s" dir)
  else
    let* snap_seq, snap_version, base =
      if not (Sys.file_exists (dir / snapshot_file)) then
        (* crash during initial attach, before the first snapshot landed:
           the freshly compiled community is the implicit snapshot 0 *)
        Ok (0, -1, None)
      else
        let contents = Persist.read_file (dir / snapshot_file) in
        match String.index_opt contents '\n' with
        | None -> Error "snapshot: truncated header"
        | Some nl -> (
            let header = String.sub contents 0 nl in
            match String.split_on_char '|' header with
            | [ h; digest; seq; version ] when String.equal h snapshot_header
              ->
                if not (String.equal digest spec_digest) then
                  Error "snapshot was written by a different specification"
                else
                  Ok
                    ( int_of_string seq,
                      int_of_string version,
                      Some
                        (String.sub contents (nl + 1)
                           (String.length contents - nl - 1)) )
            | _ -> Error (Printf.sprintf "snapshot: bad header %S" header))
    in
    let* frames, torn =
      if not (Sys.file_exists (dir / log_file)) then Ok ([], false)
      else
        let contents = Persist.read_file (dir / log_file) in
        match String.index_opt contents '\n' with
        | None ->
            (* header never completed — rotation crashed mid-write; the
               snapshot alone is the recovered state *)
            n_torn_dropped := !n_torn_dropped + 1;
            Ok ([], true)
        | Some nl -> (
            match String.split_on_char '|' (String.sub contents 0 nl) with
            | [ h; digest ] when String.equal h log_header ->
                if not (String.equal digest spec_digest) then
                  Error "WAL was written by a different specification"
                else parse_frames contents (nl + 1)
            | _ -> Error "WAL: bad header")
    in
    if torn then incr n_torn_dropped;
    (* the tail to replay: skip records already folded into the snapshot
       (stale pre-rotation log after a crash between snapshot and
       rotation), verify contiguity and version monotony beyond it *)
    let rec tail prev_seq prev_version acc = function
      | [] -> Ok (List.rev acc)
      | (seq, version, payload) :: rest ->
          if seq <= snap_seq then tail prev_seq prev_version acc rest
          else if prev_seq >= 0 && seq <> prev_seq + 1 then
            Error
              (Printf.sprintf "sequence gap: record %d follows %d" seq
                 prev_seq)
          else if version <= prev_version then
            Error
              (Printf.sprintf
                 "record %d: version stamp %d not past %d — mixed logs?" seq
                 version prev_version)
          else tail seq version ((seq, payload) :: acc) rest
    in
    let first_seq = if snap_seq > 0 then snap_seq else -1 in
    let* records = tail first_seq snap_version [] frames in
    let* () =
      match Persist.restore c ?base (List.map snd records) with
      | Ok () -> Ok ()
      | Error (`Base m) -> Error m
      | Error (`Record (i, m)) ->
          Error (Printf.sprintf "record %d: %s" (fst (List.nth records i)) m)
    in
    let applied = List.length records in
    n_replayed := !n_replayed + applied;
    let last_seq =
      match List.rev frames with
      | (seq, _, _) :: _ when seq > snap_seq -> seq
      | _ -> snap_seq
    in
    Community.bump_version c;
    Ok
      {
        r_snapshot_seq = snap_seq;
        r_replayed = applied;
        r_last_seq = last_seq;
        r_torn_dropped = torn;
      }

(* ------------------------------------------------------------------ *)
(* Attach / detach                                                     *)
(* ------------------------------------------------------------------ *)

let detach t =
  if not t.closed then begin
    (match t.community.Community.commit_hook with
    | Some _ -> t.community.Community.commit_hook <- None
    | None -> ());
    sync t;
    close_out_noerr t.oc;
    t.closed <- true
  end

(** Open (or resume) the WAL in [dir] for [c] and install the commit
    hook.  If [dir] already holds WAL state, the committed state is
    first recovered into [c]; either way attach ends with a fresh
    snapshot of the current state and a rotated log, so the directory is
    always consistent when the call returns.  At most one WAL per
    community. *)
let attach ~dir ~spec_digest ?(fsync = `Never) ?(snapshot_every = 0)
    ?(truncate_history = true) ?on_batch (c : Community.t) :
    (t * recovery option, string) result =
  if c.Community.commit_hook <> None then
    Error "community already has a WAL attached"
  else begin
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let recovered =
      if exists dir then
        match recover ~dir ~spec_digest c with
        | Ok r -> Ok (Some r)
        | Error m -> Error m
      else Ok None
    in
    match recovered with
    | Error m -> Error m
    | Ok recovered ->
        let t =
          {
            dir;
            digest = spec_digest;
            community = c;
            fsync;
            snapshot_every;
            truncate_history;
            on_batch;
            shipper = None;
            (* opened on the existing log only so [snapshot] below has a
               handle to rotate; nothing is appended before the rotation,
               and the snapshot lands (atomically) before the old tail is
               discarded — a crash anywhere in between loses nothing *)
            oc = open_log_append (dir / log_file);
            seq =
              (match recovered with Some r -> r.r_last_seq | None -> 0);
            depth = 0;
            dirty = false;
            closed = false;
            scratch = Buffer.create 4096;
            frame = Buffer.create 4096;
          }
        in
        snapshot t;
        c.Community.commit_hook <- Some (fun j -> append_delta t j);
        Ok (t, recovered)
  end

let set_on_batch t f = t.on_batch <- f
let set_shipper t f = t.shipper <- f
