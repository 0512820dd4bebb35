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
    ({!Monitor.state_to_bools}), exactly like {!Persist}.

    The codec is line-based NDJSON-style text (one effect per line,
    [|]-separated, values via {!Value_codec}), grouped under [obj]
    context lines; see [docs/PERSISTENCE.md]. *)

(** One committed, replayable mutation.  Identities carry their class,
    so a record is self-contained. *)
type eff =
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
    so replay re-derives extension changes from [E_life], exactly as
    {!Persist.load} re-derives them from the dumped life-cycle stage. *)
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
  | E_register id | E_unregister id | E_life (id, _, _) | E_attr (id, _, _)
  | E_perm_closed (id, _, _) | E_perm_indexed (id, _, _)
  | E_perm_upsert (id, _, _) | E_constr (id, _, _) | E_steps (id, _) ->
      id

(** Serialise one effect into [buf], maintaining the [obj] context line
    across calls through [current].  Direct buffer writes throughout —
    this runs on every commit, and [Printf]'s format interpretation
    dominated the WAL's append cost (E16). *)
let add_int = Value_codec.add_int

let add_bits buf bits =
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) bits

let encode_eff buf (current : Ident.t option ref) eff =
  let add s = Buffer.add_string buf s in
  let addc ch = Buffer.add_char buf ch in
  let add_int n = add_int buf n in
  let add_bits bits = add_bits buf bits in
  let id = ident_of eff in
  (* pointer test only: all effects of one object carry the same
     identity record, and a false negative merely repeats a context
     line (the decoder is indifferent) *)
  let same = match !current with Some i -> i == id | None -> false in
  match eff with
  | E_steps (_, n) when not same ->
      (* a steps effect opening an object's group rides on the context
         line itself — the commonest per-object line pair collapsed *)
      add "obj|";
      add id.Ident.cls;
      addc '|';
      Value_codec.encode_buf buf id.Ident.key;
      addc '|';
      add_int n;
      addc '\n';
      current := Some id
  | _ -> (
  if not same then begin
    add "obj|";
    add id.Ident.cls;
    addc '|';
    Value_codec.encode_buf buf id.Ident.key;
    addc '\n';
    current := Some id
  end;
  match eff with
  | E_register _ -> add "reg\n"
  | E_unregister _ -> add "unreg\n"
  | E_life (_, alive, dead) ->
      add "life|";
      add (string_of_bool alive);
      addc '|';
      add (string_of_bool dead);
      addc '\n'
  | E_attr (_, name, v) ->
      add "attr|";
      add name;
      addc '|';
      Value_codec.encode_buf buf v;
      addc '\n'
  | E_perm_closed (_, idx, None) ->
      add "perm|";
      add_int idx;
      add "|none\n"
  | E_perm_closed (_, idx, Some bits) ->
      add "perm|";
      add_int idx;
      add "|closed|";
      add_bits bits;
      addc '\n'
  | E_perm_indexed (_, idx, insts) | E_perm_upsert (_, idx, insts) ->
      add "perm|";
      add_int idx;
      add
        (match eff with E_perm_upsert _ -> "|upsert|" | _ -> "|indexed|");
      add_int (List.length insts);
      addc '\n';
      List.iter
        (fun (key, bits) ->
          add "inst|";
          Value_codec.encode_buf buf (Value.List key);
          addc '|';
          add_bits bits;
          addc '\n')
        insts
  | E_constr (_, idx, None) ->
      add "constr|";
      add_int idx;
      add "|none\n"
  | E_constr (_, idx, Some bits) ->
      add "constr|";
      add_int idx;
      addc '|';
      add_bits bits;
      addc '\n'
  | E_steps (_, n) ->
      add "steps|";
      add_int n;
      addc '\n')

(** Serialise an effect list.  Effects are grouped under [obj] context
    lines (class + key), mirroring the {!Persist} format. *)
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

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let decode_value s =
  match Value_codec.decode s with Ok v -> v | Error m -> fail "bad value: %s" m

let bits_of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> fail "bad bit %c" c)

let decode (payload : string) : (eff list, string) result =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' payload)
  in
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
      let idx = int_of_string idx and n = int_of_string n in
      if n = 0 then acc := make (id (), idx, []) :: !acc
      else pending_inst := Some (make, idx, n, [])
    in
    List.iter
      (fun line ->
        match String.split_on_char '|' line with
        | [ "inst"; key; bits ] -> (
            match !pending_inst with
            | Some (make, idx, n, insts) when n > 0 ->
                let key =
                  match decode_value key with
                  | Value.List l -> l
                  | _ -> fail "instance key is not a list"
                in
                let p =
                  Some (make, idx, n - 1, (key, bits_of_string bits) :: insts)
                in
                pending_inst := p;
                if n - 1 = 0 then flush_inst ()
            | _ -> fail "inst line outside an indexed block")
        | fields -> (
            flush_inst ();
            match fields with
            | [ "obj"; cls; key ] ->
                current := Some (Ident.make cls (decode_value key))
            | [ "obj"; cls; key; n ] ->
                (* context line with the object's folded step counter *)
                let id = Ident.make cls (decode_value key) in
                current := Some id;
                acc := E_steps (id, int_of_string n) :: !acc
            | [ "reg" ] -> acc := E_register (id ()) :: !acc
            | [ "unreg" ] -> acc := E_unregister (id ()) :: !acc
            | [ "life"; alive; dead ] ->
                acc :=
                  E_life (id (), bool_of_string alive, bool_of_string dead)
                  :: !acc
            | [ "attr"; name; v ] ->
                acc := E_attr (id (), name, decode_value v) :: !acc
            | [ "perm"; idx; "none" ] ->
                acc := E_perm_closed (id (), int_of_string idx, None) :: !acc
            | [ "perm"; idx; "closed"; bits ] ->
                acc :=
                  E_perm_closed
                    (id (), int_of_string idx, Some (bits_of_string bits))
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
                acc := E_constr (id (), int_of_string idx, None) :: !acc
            | [ "constr"; idx; bits ] ->
                acc :=
                  E_constr (id (), int_of_string idx, Some (bits_of_string bits))
                  :: !acc
            | [ "steps"; n ] -> acc := E_steps (id (), int_of_string n) :: !acc
            | _ -> fail "malformed effect line: %s" line))
      lines;
    flush_inst ();
    Ok (List.rev !acc)
  with
  | Bad m -> Error m
  | Failure m -> Error m

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let perm_compiled (o : Obj_state.t) idx =
  match List.nth_opt o.Obj_state.template.Template.t_perms idx with
  | Some pm -> (
      match pm.Template.pm_guard with
      | Template.PG_closed (_, compiled) -> `Closed compiled
      | Template.PG_indexed { ix_compiled; _ } -> `Indexed ix_compiled
      | Template.PG_quant { q_compiled; _ } -> `Indexed q_compiled
      | Template.PG_state _ -> fail "monitor effect for a state guard")
  | None -> fail "permission index out of range"

let constr_compiled (o : Obj_state.t) idx =
  let temporal =
    List.filter_map
      (function
        | Template.K_temporal (_, compiled, _) -> Some compiled
        | Template.K_static _ -> None)
      o.Obj_state.template.Template.t_constraints
  in
  match List.nth_opt temporal idx with
  | Some compiled -> compiled
  | None -> fail "constraint index out of range"

let monitor_state_for compiled bits =
  match Monitor.state_of_bools compiled bits with
  | Some s -> s
  | None -> fail "monitor state does not match the specification's formula"

(** Replay a decoded effect list against a community compiled from the
    same specification.  Must be called without an open journal; class
    extensions are re-derived from the [E_life] transitions.  Replay is
    idempotent for state-image effects and tolerates re-registration, so
    replaying a suffix that partially overlaps the current state (e.g.
    WAL records at or before a snapshot) converges to the same result. *)
let apply (c : Community.t) (effs : eff list) : (unit, string) result =
  try
    let obj id =
      match Community.find_object c id with
      | Some o -> o
      | None -> fail "effect for unknown object %s" (Ident.to_string id)
    in
    List.iter
      (fun eff ->
        match eff with
        | E_register id ->
            if Community.find_object c id = None then begin
              let tpl = Community.template_exn c id.Ident.cls in
              Community.register_object c (Obj_state.create id tpl)
            end
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
            if alive && not was_alive then Community.extension_add c id
            else if was_alive && not alive then Community.extension_remove c id
        | E_attr (id, name, v) -> Obj_state.set_attr (obj id) name v
        | E_perm_closed (id, idx, bits) -> (
            let o = obj id in
            if idx < 0 || idx >= Array.length o.Obj_state.perm_states then
              fail "permission index out of range";
            match perm_compiled o idx with
            | `Closed compiled ->
                o.Obj_state.perm_states.(idx) <-
                  Obj_state.PS_closed
                    (Option.map (monitor_state_for compiled) bits)
            | `Indexed _ -> fail "closed state for indexed guard")
        | E_perm_indexed (id, idx, insts) | E_perm_upsert (id, idx, insts) -> (
            let o = obj id in
            if idx < 0 || idx >= Array.length o.Obj_state.perm_states then
              fail "permission index out of range";
            match (perm_compiled o idx, o.Obj_state.perm_states.(idx)) with
            | `Indexed compiled, ps ->
                let insts =
                  List.map
                    (fun (k, bits) -> (k, monitor_state_for compiled bits))
                    insts
                in
                o.Obj_state.perm_states.(idx) <-
                  Obj_state.PS_indexed
                    (match (eff, ps) with
                    | E_perm_upsert _, Obj_state.PS_indexed tbl ->
                        Param_table.upsert tbl insts
                    | _ -> Param_table.of_bindings insts)
            | `Closed _, _ -> fail "instance table for closed guard")
        | E_constr (id, idx, bits) ->
            let o = obj id in
            if idx < 0 || idx >= Array.length o.Obj_state.constr_states then
              fail "constraint index out of range";
            o.Obj_state.constr_states.(idx) <-
              Option.map (monitor_state_for (constr_compiled o idx)) bits
        | E_steps (id, n) -> (obj id).Obj_state.steps <- n)
      effs;
    Ok ()
  with
  | Bad m -> Error m
  | Failure m -> Error m
  | Runtime_error.Error r -> Error (Runtime_error.reason_to_string r)
