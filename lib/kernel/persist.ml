(** Persistence of object bases.

    TROLL systems are "dynamic object bases … supporting structured and
    persistent database objects" (§1); this module makes the animator's
    communities persistent: {!save} dumps the complete dynamic state —
    attribute maps, life-cycle stage, permission- and constraint-monitor
    states — to a line-based text format, and {!load} restores it into a
    community compiled from the *same specification*.  Templates
    (the static part) are not serialised: the specification text is the
    schema, the dump is the instance level.

    Not serialised: recorded histories (opt-in debugging data; reload
    starts with an empty history) — all permission decisions survive
    regardless, because they live in the monitor states.

    Format: a header line, then one block per object in identity order
    ([|]-separated fields, values via {!Value_codec}, read by their
    length prefixes, so a string in a key or an attribute may contain
    [|] or a newline):

    {v
      troll-state 1
      object|<class>|<key>|<alive>|<dead>|<steps>
      attr|<name>|<value>
      perm|<index>|closed|<bits>
      perm|<index>|indexed|<n>
      inst|<key values…>|<bits>
      constr|<index>|<bits>
    v}

    After the header a dump is an {!Effect_log} record, written with
    its line writers and read back by its decoder (see the interface).

    The output bytes are part of the contract (state digests, snapshots
    and golden files compare them): [test_storage]'s "dump bytes pinned"
    case checks {!save} against a fixed text that has every record
    kind. *)

let header = "troll-state 1"

(* --- saving --------------------------------------------------------- *)

(* Every line goes straight into the one buffer: a state digest
   ({!View.state_digest}) is an MD5 of this dump, taken for every state
   pair a refinement check visits. *)

let save_object buf (o : Obj_state.t) =
  Effect_log.add_object buf o.Obj_state.id ~alive:o.Obj_state.alive
    ~dead:o.Obj_state.dead ~steps:o.Obj_state.steps;
  List.iter
    (fun (name, v) -> Effect_log.add_attr buf name v)
    (Obj_state.bindings o);
  Array.iteri
    (fun idx ps ->
      match ps with
      | Obj_state.PS_none | Obj_state.PS_closed None -> ()
      | Obj_state.PS_closed (Some s) ->
          Effect_log.add_perm_closed buf idx (Monitor.state_to_bools s)
      | Obj_state.PS_indexed tbl ->
          Effect_log.add_perm_indexed buf idx (Param_table.cardinal tbl);
          (* the dump orders instances by encoded key, as it always has,
             so dumps stay comparable byte for byte across versions *)
          let encoded =
            List.map
              (fun (key, s) -> (Value_codec.encode (Value.List key), s))
              (Param_table.bindings tbl)
          in
          List.iter
            (fun (key, s) ->
              Effect_log.add_inst buf Buffer.add_string key
                (Monitor.state_to_bools s))
            (List.sort (fun (a, _) (b, _) -> String.compare a b) encoded))
    o.Obj_state.perm_states;
  Array.iteri
    (fun idx cs ->
      match cs with
      | None -> ()
      | Some s -> Effect_log.add_constr buf idx (Monitor.state_to_bools s))
    o.Obj_state.constr_states

(** Serialise the dynamic state of a community. *)
let save (c : Community.t) : string =
  (* 1 KiB stays below the minor heap's largest block, so a small dump
     never allocates in the major heap; larger ones grow by doubling *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  (* the ordered index yields objects in identity order directly *)
  List.iter (save_object buf) (Community.objects_sorted c);
  Buffer.contents buf

(** Crash-safe file write: the contents go to a temp file in the same
    directory (same filesystem, so the rename is atomic), are fsynced,
    and replace [path] by rename; the directory is then fsynced so the
    rename itself survives a crash.  A reader never sees a truncated
    file — either the old contents or the new. *)
let write_file_atomic (path : string) (contents : string) =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  (try
     let oc = open_out_bin tmp in
     output_string oc contents;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc;
     Unix.rename tmp path
   with e ->
     cleanup ();
     raise e);
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (* directory fsync is best-effort: some filesystems refuse it *)
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(** A whole file.  The channel is closed on every path: a read that
    raises (a directory, a file truncated under the reader) must not
    leak its descriptor into a long-running daemon. *)
let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_file (c : Community.t) (path : string) =
  write_file_atomic path (save c)

(* --- installing ----------------------------------------------------- *)

(** A dump's effects: its header line, then an {!Effect_log} record. *)
let decode (dump : string) : (Effect_log.eff list, string) result =
  let stop =
    Option.value (String.index_opt dump '\n') ~default:(String.length dump)
  in
  if stop = String.length header && String.starts_with ~prefix:header dump
  then Effect_log.decode ~pos:stop dump
  else Error (Printf.sprintf "unknown header %S" (String.sub dump 0 stop))

let apply_dump scratch dump =
  Result.bind (decode dump) (Effect_log.apply scratch)

(* All or nothing: [replay] installs into a scratch community with
   [c]'s schema — empty when [fresh], else a copy of [c]'s objects —
   and [c] adopts the scratch's objects only when the whole replay
   succeeded.  So a refused input leaves [c] exactly as it was. *)
let via_scratch c ~fresh replay =
  let scratch = Community.clone ~objects:(not fresh) c in
  Result.map (fun () -> Community.adopt c scratch) (replay scratch)

(** Replace every object of [c] by the union of the dumps' objects. *)
let merge (c : Community.t) (dumps : string list) : (unit, string) result =
  via_scratch c ~fresh:true (fun scratch ->
      List.fold_left
        (fun acc dump -> Result.bind acc (fun () -> apply_dump scratch dump))
        (Ok ()) dumps)

let load (c : Community.t) (dump : string) : (unit, string) result =
  merge c [ dump ]

(** [base] (a dump), when given, replaces every object; the records
    ({!Effect_log} payloads) are then replayed in order. *)
let restore (c : Community.t) ?base (records : string list) :
    (unit, [ `Base of string | `Record of int * string ]) result =
  via_scratch c ~fresh:(Option.is_some base) (fun scratch ->
      let rec replay i = function
        | [] -> Ok ()
        | r :: rest -> (
            match
              Result.bind (Effect_log.decode r) (Effect_log.apply scratch)
            with
            | Ok () -> replay (i + 1) rest
            | Error m -> Error (`Record (i, m)))
      in
      match base with
      | None -> replay 0 records
      | Some dump -> (
          match apply_dump scratch dump with
          | Ok () -> replay 0 records
          | Error m -> Error (`Base m)))

let load_file (c : Community.t) (path : string) : (unit, string) result =
  load c (read_file path)
