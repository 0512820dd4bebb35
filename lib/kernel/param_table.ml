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

module Key = struct
  type t = Value.t list

  let compare = List.compare Value.compare
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
}

let empty =
  { insts = Kmap.empty; hot = Keys Kset.empty; since = max_int; dirty = All }

let find key t = Kmap.find_opt key t.insts
let cardinal t = Kmap.cardinal t.insts
let bindings t = Kmap.bindings t.insts
let for_all p t = Kmap.for_all (fun _ s -> p s) t.insts
let exists p t = Kmap.exists (fun _ s -> p s) t.insts

let of_bindings kvs =
  {
    insts = List.fold_left (fun m (k, s) -> Kmap.add k s m) Kmap.empty kvs;
    hot = All;
    since = max_int;
    dirty = All;
  }

let upsert t kvs =
  match kvs with
  | [] -> t
  | _ ->
      let hot =
        match t.hot with
        | All -> All
        | Keys h ->
            Keys (List.fold_left (fun h (k, _) -> Kset.add k h) h kvs)
      in
      {
        insts = List.fold_left (fun m (k, s) -> Kmap.add k s m) t.insts kvs;
        hot;
        since = max_int;
        dirty = All;
      }

(* Past this many keys the dirty set restarts at the current stamp: a
   transaction steps an object a handful of times, so a small set still
   reaches back to its first step. *)
let dirty_cap = 64

let note_changes t ~stamp changed =
  match (t.dirty, changed) with
  | Keys d, Keys ch
    when t.since <= stamp && Kset.cardinal d + Kset.cardinal ch <= dirty_cap
    ->
      (t.since, Keys (Kset.union d ch))
  | _ -> (stamp, changed)

let spawn_fresh compiled ~atom_eval insts key =
  if Kmap.mem key insts then insts
  else
    Kmap.add key (Monitor.step compiled ~atom_eval:(atom_eval key) None) insts

let step_full compiled ~atom_eval ~spawn ~stamp t =
  let stepped =
    Kmap.mapi
      (fun k s -> Monitor.step compiled ~atom_eval:(atom_eval k) (Some s))
      t.insts
  in
  let insts = List.fold_left (spawn_fresh compiled ~atom_eval) stepped spawn in
  if Kmap.is_empty insts then t
  else
    let since, dirty = note_changes t ~stamp All in
    { insts; hot = All; since; dirty }

let step_sliced compiled ~atom_eval ~matched ~spawn ~stamp t =
  let insts = ref t.insts in
  (* keys given a new state this step: the new hot set *)
  let touched = ref Kset.empty in
  let set k s =
    insts := Kmap.add k s !insts;
    touched := Kset.add k !touched
  in
  List.iter
    (fun k ->
      if not (Kset.mem k !touched) then
        match Kmap.find_opt k t.insts with
        | Some s ->
            set k (Monitor.step compiled ~atom_eval:(atom_eval k) (Some s))
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
      if not (Kmap.mem k t.insts || Kset.mem k !touched) then
        set k (Monitor.step compiled ~atom_eval:(atom_eval k) None))
    spawn;
  if Kset.is_empty !touched then
    (* every hot key proved a fixpoint: only the hot set shrinks *)
    match t.hot with
    | Keys h when Kset.is_empty h -> t
    | _ -> { t with hot = Keys Kset.empty }
  else
    let since, dirty = note_changes t ~stamp (Keys !touched) in
    { insts = !insts; hot = Keys !touched; since; dirty }

let changes ~old ~stamp t =
  if t.insts == old.insts then Some []
  else
    match t.dirty with
    | Keys d when t.since <= stamp ->
        Some
          (List.rev
             (Kset.fold
                (fun k acc ->
                  match
                    (Kmap.find_opt k t.insts, Kmap.find_opt k old.insts)
                  with
                  | Some s, Some s0 when s == s0 -> acc
                  | Some s, _ -> (k, s) :: acc
                  | None, _ -> acc)
                d []))
    | _ -> None
