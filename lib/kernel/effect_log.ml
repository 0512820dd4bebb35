(** First-class committed effects.

    The {!Txn} journal is an *undo* log: LIFO snapshots that restore the
    pre-transaction state.  This module derives from it the matching
    *redo* record — the effect delta of one committed transaction — by
    diffing, per touched object, the oldest journal snapshot (the state
    at transaction entry) against the committed state.  The two logs are
    thus consumers of the same entry stream: rollback walks the entries
    backwards, {!delta} folds them into a forward record.

    Effects are deliberately *state images*, not operations: replaying
    [E_attr (o, "salary", 2000)] installs the value regardless of how it
    was computed, so replay needs no rule evaluation and over-emission
    (an effect whose value happens to equal the old one) is harmless.
    Monitor states are serialised through their subformula truth vectors
    ({!Monitor.state_to_bools}).

    The codec is line-based NDJSON-style text (one effect per line,
    [|]-separated, values via {!Value_codec}, read back by their length
    prefixes), grouped under [obj] context lines; see
    [docs/PERSISTENCE.md].  A {!Persist} dump is one such record after
    its header line (see the interface). *)

(** One committed, replayable mutation.  Identities carry their class,
    so a record is self-contained. *)
type eff =
  | E_object of Ident.t * bool * bool * int
      (** a fresh object with this (alive, dead) stage and step count,
          replacing any object of that identity: a dump's context line *)
  | E_register of Ident.t  (** object (re)entered the object table *)
  | E_unregister of Ident.t  (** object left the object table *)
  | E_life of Ident.t * bool * bool  (** new (alive, dead) — birth/death *)
  | E_attr of Ident.t * string * Value.t  (** attribute write (new value) *)
  | E_perm_closed of Ident.t * int * bool array option
      (** closed permission monitor advanced to this truth vector *)
  | E_perm_indexed of Ident.t * int * (Value.t list * bool array) list
      (** indexed/quantified permission monitor: full instance table *)
  | E_perm_upsert of Ident.t * int * (Value.t list * bool array) list
      (** indexed/quantified permission monitor: the instances that
          changed (added or replaced); the others are kept *)
  | E_constr of Ident.t * int * bool array option
      (** temporal-constraint monitor advanced to this truth vector *)
  | E_steps of Ident.t * int  (** life-cycle step counter *)

(* ------------------------------------------------------------------ *)
(* Delta: undo journal -> redo effects                                  *)
(* ------------------------------------------------------------------ *)

let bools_of_state s = Monitor.state_to_bools s

(** [stamp] is the object's step counter at transaction entry (the
    snapshot's), which lets an instance table name the instances the
    transaction's steps changed. *)
let perm_effects emit id idx ~stamp (old_ps : Obj_state.pstate option)
    (ps : Obj_state.pstate) =
  let changed = match old_ps with Some o -> ps != o | None -> true in
  if changed then
    match ps with
    | Obj_state.PS_none -> () (* non-temporal guard: nothing tracked *)
    | Obj_state.PS_closed None -> (
        (* initial for a fresh object; only worth logging if it *became*
           unstarted again, which rollback alone can cause (not commit) —
           defensively emit when diffing against a started old state *)
        match old_ps with
        | Some (Obj_state.PS_closed (Some _)) ->
            emit (E_perm_closed (id, idx, None))
        | _ -> ())
    | Obj_state.PS_closed (Some s) ->
        emit (E_perm_closed (id, idx, Some (bools_of_state s)))
    | Obj_state.PS_indexed tbl -> (
        let image = List.map (fun (k, s) -> (k, bools_of_state s)) in
        let changes =
          match old_ps with
          | Some (Obj_state.PS_indexed old) ->
              Param_table.changes ~old ~stamp tbl
          | _ -> None
        in
        match changes with
        | Some [] -> ()
        | Some kvs -> emit (E_perm_upsert (id, idx, image kvs))
        | None ->
            if Param_table.cardinal tbl > 0 then
              emit (E_perm_indexed (id, idx, image (Param_table.bindings tbl))))

(** Effects of one object, given the oldest snapshot of it taken inside
    the transaction ([None] = the object was created by it, so the
    implicit baseline is the fresh unborn state). *)
let object_effects emit (o : Obj_state.t) (old : Obj_state.snapshot option) =
  let id = o.Obj_state.id in
  let tpl = o.Obj_state.template in
  (* step counter first: it bumps for essentially every touched object,
     and the codec folds a leading [E_steps] into the object's context
     line (one line instead of two per object on every commit) *)
  let old_steps = match old with Some s -> s.Obj_state.s_steps | None -> 0 in
  if o.Obj_state.steps <> old_steps then emit (E_steps (id, o.Obj_state.steps));
  (* life-cycle stage *)
  let old_alive, old_dead =
    match old with
    | Some s -> (s.Obj_state.s_alive, s.Obj_state.s_dead)
    | None -> (false, false)
  in
  if o.Obj_state.alive <> old_alive || o.Obj_state.dead <> old_dead then
    emit (E_life (id, o.Obj_state.alive, o.Obj_state.dead));
  (* attributes: pointer comparison per slot — may over-emit on a write
     of an equal-but-reallocated value, never under-emits *)
  Array.iteri
    (fun i v ->
      let changed =
        match old with
        | Some s -> v != s.Obj_state.s_attrs.(i)
        | None -> not (Value.is_undefined v)
      in
      if changed then emit (E_attr (id, Template.slot_name tpl i, v)))
    o.Obj_state.attrs;
  (* permission monitors *)
  Array.iteri
    (fun i ps ->
      let old_ps =
        match old with Some s -> Some s.Obj_state.s_perm_states.(i) | None -> None
      in
      perm_effects emit id i ~stamp:old_steps old_ps ps)
    o.Obj_state.perm_states;
  (* constraint monitors *)
  Array.iteri
    (fun i cs ->
      let old_cs =
        match old with
        | Some s -> Some s.Obj_state.s_constr_states.(i)
        | None -> None
      in
      let changed = match old_cs with Some o -> cs != o | None -> cs <> None in
      if changed then emit (E_constr (id, i, Option.map bools_of_state cs)))
    o.Obj_state.constr_states;
  ()

(** The committed effect delta of a transaction, from its surviving
    journal entries and the (final) community state.  Must be called
    after the last mutation and before any rollback — i.e. from the
    community's [commit_hook].

    Class extensions are intentionally *not* represented: membership is
    a function of [alive] (the paper's implicit standard class items),
    so replay re-derives extension changes from [E_life], as it derives
    a dumped object's membership from its [E_object] stage. *)
let iter_delta (c : Community.t) (j : Community.journal) (emit : eff -> unit) :
    unit =
  (* the oldest snapshot per touched object, as a small association
     list — this runs on every commit, and the typical transaction
     touches a handful of objects (epoch-deduped), so a hashtable's
     setup cost loses to linear scans here (E16) *)
  let oldest : (Obj_state.t * Obj_state.snapshot) list ref = ref [] in
  let registered = ref [] and removed = ref [] in
  (* entries are newest first, so keeping the *last* binding per object
     leaves the oldest snapshot — the state at transaction entry *)
  List.iter
    (function
      | Community.J_obj (o, s) ->
          let rec replace = function
            | [] -> [ (o, s) ]
            | (o', _) :: rest when o' == o -> (o, s) :: rest
            | b :: rest -> b :: replace rest
          in
          oldest := replace !oldest
      | Community.J_register id -> registered := id :: !registered
      | Community.J_remove o -> removed := o.Obj_state.id :: !removed
      | Community.J_extensions _ -> () (* re-derived from E_life on replay *))
    j.Community.entries;
  let registered = !registered (* oldest first after the reversal above *)
  and removed = !removed in
  List.iter (fun id -> emit (E_register id)) registered;
  List.iter (fun id -> emit (E_unregister id)) removed;
  (* first-touch (chronological) object order: the assoc list holds
     objects newest-touched-first, and touch order is a deterministic
     function of the executed step, so records are reproducible without
     paying for a canonical sort (string-key comparisons were ~a third
     of the commit hook's cost on multi-object cascades, E16).  Replay
     does not depend on cross-object order — effects are per-object
     state images. *)
  let touched = List.rev !oldest in
  List.iter
    (fun ((o : Obj_state.t), snap) ->
      (* an object removed during the transaction: unregister covers it.
         An object registered by it was snapshotted in its fresh state;
         the fresh-baseline diff and the snapshot diff agree, so reuse
         the snapshot when present. *)
      match Community.find_object c o.Obj_state.id with
      | None -> ()
      | Some _ -> object_effects emit o (Some snap))
    touched;
  (* registered objects that were never subsequently touched (defensive:
     the engine always touches right after registering) *)
  List.iter
    (fun id ->
      if
        not
          (List.exists
             (fun ((o : Obj_state.t), _) -> Ident.equal o.Obj_state.id id)
             !oldest)
      then
        match Community.find_object c id with
        | Some o -> object_effects emit o None
        | None -> ())
    registered

let delta (c : Community.t) (j : Community.journal) : eff list =
  let acc = ref [] in
  iter_delta c j (fun e -> acc := e :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let ident_of = function
  | E_object (id, _, _, _) | E_register id | E_unregister id
  | E_life (id, _, _) | E_attr (id, _, _) | E_perm_closed (id, _, _)
  | E_perm_indexed (id, _, _) | E_perm_upsert (id, _, _) | E_constr (id, _, _)
  | E_steps (id, _) ->
      id

(* The line writers.  Each writes straight into the buffer, with no
   [Printf] and no intermediate strings: a record is written on every
   commit, where [Printf]'s format interpretation dominated the WAL's
   append cost (E16), and {!Persist.save} writes its dumps with the same
   writers — a state digest is an MD5 of a dump, taken for every state
   pair a refinement check visits. *)

let add_bits buf bits =
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) bits

let add_head buf tag idx =
  Buffer.add_string buf tag;
  Value_codec.add_int buf idx

(* [<tag><class>|<key>]: the head of a context line *)
let add_ident buf tag (id : Ident.t) =
  Buffer.add_string buf tag;
  Buffer.add_string buf id.Ident.cls;
  Buffer.add_char buf '|';
  Value_codec.encode_buf buf id.Ident.key

let add_stage buf alive dead =
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_bool alive);
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_bool dead)

let add_object buf id ~alive ~dead ~steps =
  add_ident buf "object|" id;
  add_stage buf alive dead;
  add_head buf "|" steps;
  Buffer.add_char buf '\n'

let add_attr buf name v =
  Buffer.add_string buf "attr|";
  Buffer.add_string buf name;
  Buffer.add_char buf '|';
  Value_codec.encode_buf buf v;
  Buffer.add_char buf '\n'

let add_perm_closed buf idx bits =
  add_head buf "perm|" idx;
  Buffer.add_string buf "|closed|";
  add_bits buf bits;
  Buffer.add_char buf '\n'

let add_perm_table buf idx kind n =
  add_head buf "perm|" idx;
  add_head buf kind n;
  Buffer.add_char buf '\n'

let add_perm_indexed buf idx n = add_perm_table buf idx "|indexed|" n

let add_inst buf add_key key bits =
  Buffer.add_string buf "inst|";
  add_key buf key;
  Buffer.add_char buf '|';
  add_bits buf bits;
  Buffer.add_char buf '\n'

let add_constr buf idx bits =
  add_head buf "constr|" idx;
  Buffer.add_char buf '|';
  add_bits buf bits;
  Buffer.add_char buf '\n'

let add_key_values buf key = Value_codec.encode_buf buf (Value.List key)

(* an effect's own line, after its object's context line *)
let add_line buf = function
  | E_object (id, alive, dead, steps) -> add_object buf id ~alive ~dead ~steps
  | E_register _ -> Buffer.add_string buf "reg\n"
  | E_unregister _ -> Buffer.add_string buf "unreg\n"
  | E_life (_, alive, dead) ->
      Buffer.add_string buf "life";
      add_stage buf alive dead;
      Buffer.add_char buf '\n'
  | E_attr (_, name, v) -> add_attr buf name v
  | E_perm_closed (_, idx, None) ->
      add_head buf "perm|" idx;
      Buffer.add_string buf "|none\n"
  | E_perm_closed (_, idx, Some bits) -> add_perm_closed buf idx bits
  | (E_perm_indexed (_, idx, insts) | E_perm_upsert (_, idx, insts)) as eff ->
      add_perm_table buf idx
        (match eff with E_perm_upsert _ -> "|upsert|" | _ -> "|indexed|")
        (List.length insts);
      List.iter (fun (key, bits) -> add_inst buf add_key_values key bits) insts
  | E_constr (_, idx, None) ->
      add_head buf "constr|" idx;
      Buffer.add_string buf "|none\n"
  | E_constr (_, idx, Some bits) -> add_constr buf idx bits
  | E_steps (_, n) ->
      add_head buf "steps|" n;
      Buffer.add_char buf '\n'

(** Serialise one effect into [buf], maintaining the object context
    line across calls through [current]. *)
let encode_eff buf (current : Ident.t option ref) eff =
  let id = ident_of eff in
  (* pointer test only: all effects of one object carry the same
     identity record, and a false negative merely repeats a context
     line (the decoder is indifferent) *)
  let same = match !current with Some i -> i == id | None -> false in
  if not same then current := Some id;
  match eff with
  | E_object _ -> add_line buf eff (* a context line of its own *)
  | E_steps (_, n) when not same ->
      (* a steps effect opening an object's group rides on the context
         line itself — the commonest per-object line pair collapsed *)
      add_ident buf "obj|" id;
      add_head buf "|" n;
      Buffer.add_char buf '\n'
  | _ ->
      if not same then begin
        add_ident buf "obj|" id;
        Buffer.add_char buf '\n'
      end;
      add_line buf eff

(** Serialise an effect list, grouped under object context lines. *)
let encode (effs : eff list) : string =
  let buf = Buffer.create 256 in
  let current = ref None in
  List.iter (encode_eff buf current) effs;
  Buffer.contents buf

(** The fused commit path: diff and serialise in one pass, with no
    intermediate effect list, into a caller-provided (reusable)
    buffer.  Returns the number of effects written; the bytes equal
    [encode (delta c j)].  This is what the {!Wal} hook calls on every
    commit. *)
let encode_delta (c : Community.t) (j : Community.journal) (buf : Buffer.t) :
    int =
  let current = ref None in
  let n = ref 0 in
  iter_delta c j (fun e ->
      incr n;
      encode_eff buf current e);
  !n

(* A cursor over a payload's records: one record per line, its fields
   separated by '|'.  A raw field (a tag, a name, a number, a bit
   vector) holds neither '|' nor a newline.  A value field is a
   {!Value_codec} encoding and is read by its length prefixes, so a
   string value may hold both: the decoder asks for a record's fields in
   order, and for a value field by its kind.  [Malformed]: the record
   does not have the shape asked for. *)
module Record = struct
  type t = {
    src : string;
    mutable pos : int;
    mutable start : int;  (** the current record's first byte *)
  }

  exception Malformed
  exception Bad_value of string

  let create ?(pos = 0) src = { src; pos; start = pos }
  let at r c = r.pos < String.length r.src && r.src.[r.pos] = c

  let next r =
    while at r '\n' do
      r.pos <- r.pos + 1
    done;
    r.start <- r.pos;
    r.pos < String.length r.src

  let line r =
    let stop =
      match String.index_from_opt r.src r.start '\n' with
      | Some e -> e
      | None -> String.length r.src
    in
    String.sub r.src r.start (stop - r.start)

  let tag r =
    let first = r.pos in
    while r.pos < String.length r.src && not (at r '|' || at r '\n') do
      r.pos <- r.pos + 1
    done;
    String.sub r.src first (r.pos - first)

  let bar r = if at r '|' then r.pos <- r.pos + 1 else raise Malformed

  let field r =
    bar r;
    tag r

  let value r =
    bar r;
    match Value_codec.decode_at r.src r.pos with
    | Ok (v, next) ->
        r.pos <- next;
        v
    | Error m -> raise (Bad_value m)

  let rec rest r =
    if at r '|' then
      let f = field r in
      f :: rest r
    else if at r '\n' then begin
      r.pos <- r.pos + 1;
      []
    end
    else if r.pos < String.length r.src then raise Malformed
    else []
end

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let bits_of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> fail "bad bit %c" c)

let bool_of_field = function
  | "true" -> true
  | "false" -> false
  | s -> fail "bad boolean %S" s

let int_field s =
  match int_of_string_opt s with Some n -> n | None -> fail "bad number %S" s

let decode ?pos (payload : string) : (eff list, string) result =
  let r = Record.create ?pos payload in
  try
    let current = ref None in
    let id () =
      match !current with Some id -> id | None -> fail "effect outside an object"
    in
    let acc = ref [] in
    (* (record constructor, idx, remaining, rev insts) *)
    let pending_inst = ref None in
    let flush_inst () =
      match !pending_inst with
      | Some (make, idx, 0, insts) ->
          acc := make (id (), idx, List.rev insts) :: !acc;
          pending_inst := None
      | Some _ -> fail "truncated indexed-monitor instance block"
      | None -> ()
    in
    let instance_block make idx n =
      let idx = int_field idx and n = int_field n in
      if n = 0 then acc := make (id (), idx, []) :: !acc
      else pending_inst := Some (make, idx, n, [])
    in
    (* a context line: the class, then the key, a value *)
    let context () =
      let cls = Record.field r in
      let id = Ident.make cls (Record.value r) in
      current := Some id;
      id
    in
    (* a value field is read by its length prefixes (it may hold '|' or
       a newline), the raw fields after it as a list *)
    let record = function
      | "inst" -> (
          let key = Record.value r in
          match Record.rest r with
          | [ bits ] -> (
              match !pending_inst with
              | Some (make, idx, n, insts) when n > 0 ->
                  let key =
                    match key with
                    | Value.List l -> l
                    | _ -> fail "instance key is not a list"
                  in
                  let p =
                    Some (make, idx, n - 1, (key, bits_of_string bits) :: insts)
                  in
                  pending_inst := p;
                  if n - 1 = 0 then flush_inst ()
              | _ -> fail "inst line outside an indexed block")
          | _ -> raise Record.Malformed)
      | tag -> (
          flush_inst ();
          match tag with
          | "object" -> (
              let id = context () in
              match Record.rest r with
              | [ alive; dead; steps ] ->
                  acc :=
                    E_object
                      ( id,
                        bool_of_field alive,
                        bool_of_field dead,
                        int_field steps )
                    :: !acc
              | _ -> raise Record.Malformed)
          | "obj" -> (
              let id = context () in
              match Record.rest r with
              | [] -> ()
              | [ n ] ->
                  (* context line with the object's folded step counter *)
                  acc := E_steps (id, int_field n) :: !acc
              | _ -> raise Record.Malformed)
          | "attr" ->
              let name = Record.field r in
              let v = Record.value r in
              if Record.rest r <> [] then raise Record.Malformed;
              acc := E_attr (id (), name, v) :: !acc
          | tag -> (
            match tag :: Record.rest r with
            | [ "reg" ] -> acc := E_register (id ()) :: !acc
            | [ "unreg" ] -> acc := E_unregister (id ()) :: !acc
            | [ "life"; alive; dead ] ->
                acc :=
                  E_life (id (), bool_of_field alive, bool_of_field dead)
                  :: !acc
            | [ "perm"; idx; "none" ] ->
                acc := E_perm_closed (id (), int_field idx, None) :: !acc
            | [ "perm"; idx; "closed"; bits ] ->
                acc :=
                  E_perm_closed
                    (id (), int_field idx, Some (bits_of_string bits))
                  :: !acc
            | [ "perm"; idx; "indexed"; n ] ->
                instance_block
                  (fun (id, i, l) -> E_perm_indexed (id, i, l))
                  idx n
            | [ "perm"; idx; "upsert"; n ] ->
                instance_block
                  (fun (id, i, l) -> E_perm_upsert (id, i, l))
                  idx n
            | [ "constr"; idx; "none" ] ->
                acc := E_constr (id (), int_field idx, None) :: !acc
            | [ "constr"; idx; bits ] ->
                acc :=
                  E_constr (id (), int_field idx, Some (bits_of_string bits))
                  :: !acc
            | [ "steps"; n ] -> acc := E_steps (id (), int_field n) :: !acc
            | _ -> raise Record.Malformed))
    in
    while Record.next r do
      record (Record.tag r)
    done;
    flush_inst ();
    Ok (List.rev !acc)
  with
  | Bad m -> Error m
  | Record.Malformed ->
      Error (Printf.sprintf "malformed line: %s" (Record.line r))
  | Record.Bad_value m -> Error (Printf.sprintf "bad value: %s" m)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let perm_compiled (o : Obj_state.t) idx =
  if idx < 0 || idx >= Array.length o.Obj_state.perm_states then
    fail "permission index out of range";
  let pm = List.nth o.Obj_state.template.Template.t_perms idx in
  match pm.Template.pm_guard with
  | Template.PG_closed (_, compiled) -> `Closed compiled
  | Template.PG_indexed { ix_compiled; _ } -> `Indexed ix_compiled
  | Template.PG_quant { q_compiled; _ } -> `Indexed q_compiled
  | Template.PG_state _ -> fail "monitor effect for a state guard"

let constr_compiled (o : Obj_state.t) idx =
  if idx < 0 || idx >= Array.length o.Obj_state.constr_states then
    fail "constraint index out of range";
  List.nth
    (List.filter_map
       (function
         | Template.K_temporal (_, compiled, _) -> Some compiled
         | Template.K_static _ -> None)
       o.Obj_state.template.Template.t_constraints)
    idx

let monitor_state_for compiled bits =
  match Monitor.state_of_bools compiled bits with
  | Some s -> s
  | None -> fail "monitor state does not match the specification's formula"

(** Replay a decoded effect list against a community compiled from the
    same specification.  Must be called without an open journal; class
    extensions are re-derived from the [E_object] and [E_life] stages.
    Replay is idempotent for state-image effects and tolerates
    re-registration, so replaying a suffix that partially overlaps the
    current state (e.g. WAL records at or before a snapshot) converges
    to the same result. *)
let apply (c : Community.t) (effs : eff list) : (unit, string) result =
  try
    let obj id =
      match Community.find_object c id with
      | Some o -> o
      | None -> fail "effect for unknown object %s" (Ident.to_string id)
    in
    (* values of base types must carry their type's constructor, keys
       included: a dump of another specification could otherwise
       install state the engine never produces *)
    let template id =
      let tpl = Community.template_exn c id.Ident.cls in
      if not (Template.key_fits tpl id.Ident.key) then
        fail "object %s: the key does not fit the identification of %s"
          (Ident.to_string id) tpl.Template.t_name;
      tpl
    in
    let set_stage id ~was_alive alive =
      if alive && not was_alive then Community.extension_add c id
      else if was_alive && not alive then Community.extension_remove c id
    in
    List.iter
      (fun eff ->
        match eff with
        | E_object (id, alive, dead, steps) ->
            let o = Obj_state.create id (template id) in
            o.Obj_state.alive <- alive;
            o.Obj_state.dead <- dead;
            o.Obj_state.steps <- steps;
            let was_alive =
              match Community.find_object c id with
              | Some old -> old.Obj_state.alive
              | None -> false
            in
            Community.register_object c o;
            set_stage id ~was_alive alive
        | E_register id ->
            if Community.find_object c id = None then
              Community.register_object c (Obj_state.create id (template id))
        | E_unregister id ->
            (match Community.find_object c id with
            | Some o when o.Obj_state.alive -> Community.extension_remove c id
            | _ -> ());
            Community.remove_object c id
        | E_life (id, alive, dead) ->
            let o = obj id in
            let was_alive = o.Obj_state.alive in
            o.Obj_state.alive <- alive;
            o.Obj_state.dead <- dead;
            set_stage id ~was_alive alive
        | E_attr (id, name, v) ->
            let o = obj id in
            let tpl = o.Obj_state.template in
            (match Template.find_attr tpl name with
            | Some a when not (Value.fits a.Template.at_type v) ->
                fail "attribute %s.%s: %s does not fit %s" tpl.Template.t_name
                  name (Value.to_string v)
                  (Vtype.to_string a.Template.at_type)
            | _ -> ());
            Obj_state.set_attr o name v
        | E_perm_closed (id, idx, bits) -> (
            let o = obj id in
            match perm_compiled o idx with
            | `Closed compiled ->
                o.Obj_state.perm_states.(idx) <-
                  Obj_state.PS_closed
                    (Option.map (monitor_state_for compiled) bits)
            | `Indexed _ -> fail "closed state for indexed guard")
        | E_perm_indexed (id, idx, insts) | E_perm_upsert (id, idx, insts) -> (
            let o = obj id in
            match perm_compiled o idx with
            | `Indexed compiled ->
                let insts =
                  List.map
                    (fun (k, bits) -> (k, monitor_state_for compiled bits))
                    insts
                in
                o.Obj_state.perm_states.(idx) <-
                  Obj_state.PS_indexed
                    (match (eff, o.Obj_state.perm_states.(idx)) with
                    | E_perm_upsert _, Obj_state.PS_indexed tbl ->
                        Param_table.upsert tbl insts
                    | _ -> Param_table.of_bindings insts)
            | `Closed _ -> fail "instance table for closed guard")
        | E_constr (id, idx, bits) ->
            let o = obj id in
            o.Obj_state.constr_states.(idx) <-
              Option.map (monitor_state_for (constr_compiled o idx)) bits
        | E_steps (id, n) -> (obj id).Obj_state.steps <- n)
      effs;
    Ok ()
  with
  | Bad m -> Error m
  | Failure m -> Error m
  | Runtime_error.Error r -> Error (Runtime_error.reason_to_string r)
