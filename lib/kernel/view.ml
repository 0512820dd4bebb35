(** Frozen read-only projection of a community, for parallel probes.

    A view captures, at a quiescent point (no open journal), everything
    a probe can observe: per-object snapshots in identity order, the
    extensions map, the global rules, and the pre-warmed staged dispatch
    caches.  The capture is O(society) like {!Community.clone}, but a
    view is immutable and therefore shareable across domains; each
    worker {!thaw}s its own private mutable community from it and runs
    ordinary [Txn.probe]s there.

    Staleness is detected in O(1): a view stamps itself with the global
    [Community.schema_generation] and the source's instance-state
    [version]; {!valid} compares both.  Rollbacks restore state exactly
    and never invalidate a view. *)

type entry = {
  e_id : Ident.t;
  e_template : Template.t;
  e_snap : Obj_state.snapshot;
}

type t = {
  source : Community.t;
  vid : int;  (** process-unique, keys the per-domain thaw cache *)
  v_schema_gen : int;
  v_version : int;
  entries : entry array;  (** all objects, identity order *)
  v_extensions : Ident.Set.t Community.Smap.t;
  v_globals : Community.global_rule list;
  v_config : Community.config;
  v_staged : Community.staged option;
      (** community dispatch index captured at freeze time, after
          pre-warming — thawed communities share it and never build
          caches concurrently *)
}

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* freezes and invalidations happen on the owning domain, but thaws run
   on workers: atomics throughout *)
let n_taken = Atomic.make 0
and n_invalidated = Atomic.make 0
and n_thaws = Atomic.make 0
and n_thaw_hits = Atomic.make 0

let stats_rows () =
  [
    ("views taken", Atomic.get n_taken);
    ("views invalidated", Atomic.get n_invalidated);
    ("views thawed", Atomic.get n_thaws);
    ("thaw cache hits", Atomic.get n_thaw_hits);
  ]

let reset_stats () =
  Atomic.set n_taken 0;
  Atomic.set n_invalidated 0;
  Atomic.set n_thaws 0;
  Atomic.set n_thaw_hits 0

let note_invalidated () = Atomic.incr n_invalidated

(* ------------------------------------------------------------------ *)
(* Freeze / validity                                                   *)
(* ------------------------------------------------------------------ *)

let vid_counter = Atomic.make 0

let freeze (c : Community.t) : t =
  if c.Community.journal <> None then
    invalid_arg "View.freeze: community has an open transaction";
  (* warm every dispatch cache now, on the owning domain, so thawed
     communities only ever read them *)
  if Dispatch.enabled c then Dispatch.stage_community c;
  let entries =
    Array.of_list
      (List.map
         (fun (o : Obj_state.t) ->
           {
             e_id = o.Obj_state.id;
             e_template = o.Obj_state.template;
             e_snap = Obj_state.snapshot o;
           })
         (Community.objects_sorted c))
  in
  Atomic.incr n_taken;
  {
    source = c;
    vid = Atomic.fetch_and_add vid_counter 1;
    v_schema_gen = !Community.schema_generation;
    v_version = c.Community.version;
    entries;
    v_extensions = c.Community.extensions;
    v_globals = c.Community.globals;
    v_config = c.Community.config;
    v_staged = c.Community.staged;
  }

let valid (v : t) : bool =
  v.source.Community.journal = None
  && v.v_schema_gen = !Community.schema_generation
  && v.v_version = v.source.Community.version

let source v = v.source
let n_objects v = Array.length v.entries
let version v = v.v_version

(* ------------------------------------------------------------------ *)
(* Thaw                                                                *)
(* ------------------------------------------------------------------ *)

let thaw (v : t) : Community.t =
  Atomic.incr n_thaws;
  let src = v.source in
  let objects = Ident.Tbl.create (max 16 (2 * Array.length v.entries)) in
  let index = ref Btree.empty in
  Array.iter
    (fun e ->
      let o = Obj_state.create e.e_id e.e_template in
      (* copy_snapshot: restore installs the snapshot arrays as the live
         ones, and probes mutate them in place — the frozen snapshot
         must keep private copies per thaw *)
      Obj_state.restore o (Obj_state.copy_snapshot e.e_snap);
      Ident.Tbl.replace objects e.e_id o;
      index := Btree.add !index (Ident.to_value e.e_id) o)
    v.entries;
  {
    Community.templates = src.Community.templates;
    enum_of_const = src.Community.enum_of_const;
    enum_defs = src.Community.enum_defs;
    objects;
    index = !index;
    extensions = v.v_extensions;
    globals = v.v_globals;
    journal = None;
    config = v.v_config;
    staged = v.v_staged;
    version = 0;
    commit_hook = None;
  }

(* Per-domain cache of recent thaws, keyed by [vid].  Four slots; the
   digest memo below shares the bound, and a refinement check digests
   two communities (abstract and concrete side) alternately, so one
   slot would thrash. *)
let max_cached = 4

let thaw_cache : (int * Community.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let take_upto n xs =
  List.filteri (fun i _ -> i < n) xs

let thaw_cached (v : t) : Community.t =
  let cache = Domain.DLS.get thaw_cache in
  match List.assoc_opt v.vid !cache with
  | Some c ->
      Atomic.incr n_thaw_hits;
      c
  | None ->
      let c = thaw v in
      cache := (v.vid, c) :: take_upto (max_cached - 1) !cache;
      c

(* ------------------------------------------------------------------ *)
(* State digests                                                       *)
(* ------------------------------------------------------------------ *)

(* Memo of quiescent digests, keyed by the same (schema generation,
   instance version) stamp pair {!valid} uses.  Per-domain (DLS) so
   pool workers never race on the list; communities mid-probe (open
   journal) bypass it entirely, because probe mutations do not bump the
   version. *)
let digest_memo : (Community.t * int * int * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compute_digest (c : Community.t) : string =
  Digest.to_hex (Digest.string (Persist.save c))

let state_digest (c : Community.t) : string =
  if c.Community.journal <> None then compute_digest c
  else
    let memo = Domain.DLS.get digest_memo in
    let gen = !Community.schema_generation and ver = c.Community.version in
    match
      List.find_opt (fun (c', g, v, _) -> c' == c && g = gen && v = ver) !memo
    with
    | Some (_, _, _, d) -> d
    | None ->
        let d = compute_digest c in
        memo := (c, gen, ver, d) :: take_upto (max_cached - 1) !memo;
        d
