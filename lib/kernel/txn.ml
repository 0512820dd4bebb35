(** The journaled transaction layer: every mutation of runtime state —
    object fields, object creation/destruction, class extensions, the
    ordered storage index — goes through a transaction scope and can be
    rolled back from the community's journal.

    The journal is a LIFO undo log ({!Community.journal}).  Obj_state
    keeps immutable values in mutable slots, so an undo entry is a
    pointer restore.  Snapshots are deduplicated per scope by a stamp on
    the object itself — the generation of the journal that last
    snapshotted it and that journal's epoch — so the journal keeps no
    table of touched objects (redundant snapshots would still be
    *correct* — LIFO replay ends on the oldest one — just wasteful).
    Generations come from one process-wide atomic counter, since pool
    domains open journals too.  A journal is then a small record,
    allocated by the outermost scope and dropped when it closes; no
    spare is kept for reuse, so nested probes of two communities never
    compete for one.

    Scopes nest: a [begin_] under an open journal and a {!probe} both
    mark the current journal length and unwind back to it.
    Only the outermost transaction owns the journal slot and accounts
    the lifetime totals into the global {!stats}. *)

type t = {
  c : Community.t;
  owner : bool;  (** installed the journal, will clear the slot *)
  base : int;  (** journal length when this scope opened *)
  mutable t_created : Ident.t list;  (** newest first *)
  mutable t_destroyed : Ident.t list;  (** newest first *)
}

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  begun : int;
  committed : int;
  rolled_back : int;
  probes : int;
  journal_entries : int;
  bytes_snapshotted : int;
}

(* kept as individual mutable cells: the hot path bumps one counter per
   transaction op and must not allocate a fresh record each time *)
let n_begun = ref 0
and n_committed = ref 0
and n_rolled_back = ref 0
and n_probes = ref 0
and n_journal_entries = ref 0
and n_bytes_snapshotted = ref 0

let stats () =
  {
    begun = !n_begun;
    committed = !n_committed;
    rolled_back = !n_rolled_back;
    probes = !n_probes;
    journal_entries = !n_journal_entries;
    bytes_snapshotted = !n_bytes_snapshotted;
  }

let reset_stats () =
  n_begun := 0;
  n_committed := 0;
  n_rolled_back := 0;
  n_probes := 0;
  n_journal_entries := 0;
  n_bytes_snapshotted := 0

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>transactions begun     %d@,\
     transactions committed %d@,\
     transactions rolled back %d@,\
     probes                 %d@,\
     journal entries        %d@,\
     bytes snapshotted      %d@]"
    s.begun s.committed s.rolled_back s.probes s.journal_entries
    s.bytes_snapshotted

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

(* Journal generations are process-wide because pool domains open
   journals on their thawed communities too: two journals never share a
   generation, so an object's stamp can only match the journal that set
   it. *)
let next_gen = Atomic.make 0

let begin_ (c : Community.t) =
  incr n_begun;
  match c.Community.journal with
  | None ->
      c.Community.journal <-
        Some
          {
            Community.entries = [];
            count = 0;
            total = 0;
            bytes = 0;
            gen = Atomic.fetch_and_add next_gen 1;
            epoch = 0;
          };
      { c; owner = true; base = 0; t_created = []; t_destroyed = [] }
  | Some j ->
      (* nested scope: new epoch so touched objects are re-snapshotted
         relative to this scope's base *)
      j.Community.epoch <- j.Community.epoch + 1;
      {
        c;
        owner = false;
        base = j.Community.count;
        t_created = [];
        t_destroyed = [];
      }

let journal_exn t =
  match t.c.Community.journal with
  | Some j -> j
  | None -> invalid_arg "Txn: scope already closed"

(** Snapshot [o] unless this scope (epoch) already holds one: the
    object's stamp names the journal and epoch of its last snapshot. *)
let touch t (o : Obj_state.t) =
  let j = journal_exn t in
  if
    o.Obj_state.snap_gen <> j.Community.gen
    || o.Obj_state.snap_epoch < j.Community.epoch
  then begin
    let snap = Obj_state.snapshot o in
    Community.journal_record t.c (Community.J_obj (o, snap));
    j.Community.bytes <- j.Community.bytes + Obj_state.snapshot_cost snap;
    o.Obj_state.snap_gen <- j.Community.gen;
    o.Obj_state.snap_epoch <- j.Community.epoch
  end

let note_created t id = t.t_created <- id :: t.t_created
let note_destroyed t id = t.t_destroyed <- id :: t.t_destroyed
let created t = List.rev t.t_created
let destroyed t = List.rev t.t_destroyed

(** Fold the journal's lifetime totals into the global counters, at
    top-level close. *)
let account (j : Community.journal) =
  n_journal_entries := !n_journal_entries + j.Community.total;
  n_bytes_snapshotted := !n_bytes_snapshotted + j.Community.bytes

(** Pop and undo entries until the journal is [mark] long again. *)
let pop_to (c : Community.t) (j : Community.journal) mark =
  while j.Community.count > mark do
    match j.Community.entries with
    | [] -> j.Community.count <- mark (* unreachable if count is kept *)
    | e :: rest ->
        j.Community.entries <- rest;
        j.Community.count <- j.Community.count - 1;
        Community.undo_entry c e
  done;
  (* any snapshot taken before the rollback may now be stale: force
     re-snapshotting in whatever scope continues *)
  j.Community.epoch <- j.Community.epoch + 1

let commit t =
  incr n_committed;
  if t.owner then begin
    let j = journal_exn t in
    (* the transaction mutated something it keeps: outstanding views of
       this community are now stale *)
    if j.Community.total > 0 then Community.bump_version t.c;
    (* redo-log side: hand the surviving undo entries to the commit hook
       (the WAL) while the final state is in place.  [count = 0] means
       nothing was recorded, or every entry was unwound by nested
       scopes — no net delta, nothing to log. *)
    (match t.c.Community.commit_hook with
    | Some hook when j.Community.count > 0 -> hook j
    | _ -> ());
    account j;
    t.c.Community.journal <- None
  end
(* nested commit: keep the entries — the outer scope may still roll
   everything back *)

let rollback t =
  incr n_rolled_back;
  let j = journal_exn t in
  pop_to t.c j t.base;
  if t.owner then begin
    account j;
    t.c.Community.journal <- None
  end

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let probe (c : Community.t) f =
  incr n_probes;
  let t = begin_ c in
  match f () with
  | v ->
      rollback t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      rollback t;
      Printexc.raise_with_backtrace e bt
