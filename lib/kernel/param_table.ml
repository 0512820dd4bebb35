(** Instance tables of parametric permission monitors.

    A guard with free pattern variables — §3's
    [{ sometime(after(hire(P))) } fire(P)] — keeps one past-LTL monitor
    state per observed binding of its index variables; a
    class-quantified guard keeps one per class member.  This is
    parametric trace slicing (Chen & Roşu, TACAS 2009): each binding's
    monitor sees the slice of the object's trace that concerns it.

    A table is an immutable value keyed by binding, so a lookup is
    O(log n) and a transaction rolls back by keeping the old pointer.
    Two key sets let a step cost what the event touches instead of the
    table size:

    - [hot] is a superset of the keys whose state is not a fixpoint of
      {!Monitor.step_false}.  A step in which every atom of an instance
      is false leaves a fixpoint state unchanged, so an event that binds
      no key of an instance only has to visit the hot keys.  Under
      all-false input every past-LTL node settles within formula-height
      steps, so the set stays small;
    - [dirty] covers every key changed by a step stamped at or after
      [since] (stamps are the owning object's life-cycle step counter),
      so the redo log writes only the instances a transaction changed.

    Tables built from outside a step (a state dump, a replayed log
    record) conservatively mark every key hot and dirty. *)

(* A key carries the hash of its binding, computed once where the key
   enters the table, and keys order by that hash first: a lookup
   compares ints until it meets the key itself (or a collision).  The
   order a caller sees — {!bindings}, {!changes} — stays
   [List.compare Value.compare]. *)
module Key = struct
  type t = { h : int; k : Value.t list }

  let make k = { h = Hashtbl.hash k; k }

  let compare a b =
    if a == b then 0
    else
      let c = Int.compare a.h b.h in
      if c <> 0 then c else List.compare Value.compare a.k b.k
end

module Kmap = Map.Make (Key)
module Kset = Set.Make (Key)

(** A key set that may stand for every key of the table. *)
type keys = All | Keys of Kset.t

type t = {
  insts : Monitor.state Kmap.t;
  hot : keys;
  since : int;
  dirty : keys;
  n_dirty : int;  (** cardinal of [dirty] when it is [Keys] *)
}

let empty =
  {
    insts = Kmap.empty;
    hot = Keys Kset.empty;
    since = max_int;
    dirty = All;
    n_dirty = 0;
  }

let by_binding (a, _) (b, _) = List.compare Value.compare a b
let find key t = Kmap.find_opt (Key.make key) t.insts
let cardinal t = Kmap.cardinal t.insts

let bindings t =
  List.sort by_binding
    (Kmap.fold (fun k s acc -> (k.Key.k, s) :: acc) t.insts [])

let for_all p t = Kmap.for_all (fun _ s -> p s) t.insts
let exists p t = Kmap.exists (fun _ s -> p s) t.insts

let add_all m kvs =
  List.fold_left (fun m (k, s) -> Kmap.add (Key.make k) s m) m kvs

let of_bindings kvs =
  {
    insts = add_all Kmap.empty kvs;
    hot = All;
    since = max_int;
    dirty = All;
    n_dirty = 0;
  }

let upsert t kvs =
  match kvs with
  | [] -> t
  | _ ->
      let insts = add_all t.insts kvs in
      let hot =
        match t.hot with
        | All -> All
        | Keys h ->
            Keys
              (List.fold_left (fun h (k, _) -> Kset.add (Key.make k) h) h kvs)
      in
      { insts; hot; since = max_int; dirty = All; n_dirty = 0 }

(* Past this many keys the dirty set restarts at the current stamp: a
   transaction steps an object a handful of times, so a small set still
   reaches back to its first step.  The test adds the two sets' sizes
   (not the size of their union), as it always has: which steps restart
   the set decides what the redo log writes. *)
let dirty_cap = 64

(* [changed] holds the [n_changed] keys a step gave a new state. *)
let note_changes t ~stamp changed n_changed =
  match (t.dirty, changed) with
  | Keys d, Keys ch when t.since <= stamp && t.n_dirty + n_changed <= dirty_cap
    ->
      let n = ref t.n_dirty in
      let d =
        Kset.fold
          (fun k d ->
            let d' = Kset.add k d in
            if d' != d then incr n;
            d')
          ch d
      in
      (t.since, Keys d, !n)
  | _ -> (stamp, changed, n_changed)

let spawn_fresh compiled ~atom_eval insts key =
  let key = Key.make key in
  if Kmap.mem key insts then insts
  else
    Kmap.add key
      (Monitor.step compiled ~atom_eval:(atom_eval key.Key.k) None)
      insts

let step_full compiled ~atom_eval ~spawn ~stamp t =
  let stepped =
    Kmap.mapi
      (fun k s ->
        Monitor.step compiled ~atom_eval:(atom_eval k.Key.k) (Some s))
      t.insts
  in
  let insts = List.fold_left (spawn_fresh compiled ~atom_eval) stepped spawn in
  if Kmap.is_empty insts then t
  else
    let since, dirty, n_dirty = note_changes t ~stamp All 0 in
    { insts; hot = All; since; dirty; n_dirty }

let step_sliced compiled ~atom_eval ~matched ~spawn ~stamp t =
  let insts = ref t.insts in
  (* keys given a new state this step: the new hot set *)
  let touched = ref Kset.empty in
  let n_touched = ref 0 in
  let set (k : Key.t) s =
    insts := Kmap.add k s !insts;
    touched := Kset.add k !touched;
    incr n_touched
  in
  List.iter
    (fun k ->
      let k = Key.make k in
      if not (Kset.mem k !touched) then
        match Kmap.find_opt k t.insts with
        | Some s ->
            set k
              (Monitor.step compiled ~atom_eval:(atom_eval k.Key.k) (Some s))
        | None -> ())
    matched;
  let settle k s =
    if not (Kset.mem k !touched) then
      let s' = Monitor.step_false compiled s in
      if s' != s then set k s'
  in
  (match t.hot with
  | All -> Kmap.iter settle t.insts
  | Keys h -> Kset.iter (fun k -> settle k (Kmap.find k t.insts)) h);
  List.iter
    (fun k ->
      let k = Key.make k in
      if not (Kmap.mem k t.insts || Kset.mem k !touched) then
        set k (Monitor.step compiled ~atom_eval:(atom_eval k.Key.k) None))
    spawn;
  if !n_touched = 0 then
    (* every hot key proved a fixpoint: only the hot set shrinks *)
    match t.hot with
    | Keys h when Kset.is_empty h -> t
    | _ -> { t with hot = Keys Kset.empty }
  else
    let since, dirty, n_dirty =
      note_changes t ~stamp (Keys !touched) !n_touched
    in
    { insts = !insts; hot = Keys !touched; since; dirty; n_dirty }

let changes ~old ~stamp t =
  if t.insts == old.insts then Some []
  else
    match t.dirty with
    | Keys d when t.since <= stamp ->
        Some
          (List.sort by_binding
             (Kset.fold
                (fun k acc ->
                  match
                    (Kmap.find_opt k t.insts, Kmap.find_opt k old.insts)
                  with
                  | Some s, Some s0 when s == s0 -> acc
                  | Some s, _ -> (k.Key.k, s) :: acc
                  | None, _ -> acc)
                d []))
    | _ -> None
