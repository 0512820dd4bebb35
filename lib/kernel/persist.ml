(** Persistence of object bases.

    TROLL systems are "dynamic object bases … supporting structured and
    persistent database objects" (§1); this module makes the animator's
    communities persistent: {!save} dumps the complete dynamic state —
    attribute maps, life-cycle stage, permission- and constraint-monitor
    states — to a line-based text format, and {!load} restores it into a
    fresh community compiled from the *same specification*.  Templates
    (the static part) are not serialised: the specification text is the
    schema, the dump is the instance level.

    Not serialised: recorded histories (opt-in debugging data; reload
    starts with an empty history) — all permission decisions survive
    regardless, because they live in the monitor states.

    Format (one record per line, [|]-separated, values via
    {!Value_codec}; {!load} reads a value by its length prefixes, so a
    string in a key or an attribute may contain [|] or a newline):

    {v
      troll-state 1
      object|<class>|<key>|<alive>|<dead>|<steps>
      attr|<name>|<value>
      perm|<index>|closed|<bits>
      perm|<index>|indexed|<n>
      inst|<key values…>|<bits>
      constr|<index>|<bits>
    v}

    The output bytes are part of the contract (state digests, snapshots
    and golden files compare them): [test_storage]'s "dump bytes pinned"
    case checks {!save} against a fixed text that has every record
    kind. *)

let header = "troll-state 1"

(* --- saving --------------------------------------------------------- *)

(* Every field goes straight into the one buffer, with no [Printf] and
   no intermediate strings: a state digest ({!View.state_digest}) is an
   MD5 of this dump, taken for every state pair a refinement check
   visits. *)

let add_field buf s =
  Buffer.add_char buf '|';
  Buffer.add_string buf s

let add_int_field buf n =
  Buffer.add_char buf '|';
  Value_codec.add_int buf n

let add_value_field buf v =
  Buffer.add_char buf '|';
  Value_codec.encode_buf buf v

let add_bits_field buf s =
  Buffer.add_char buf '|';
  Array.iter
    (fun b -> Buffer.add_char buf (if b then '1' else '0'))
    (Monitor.state_to_bools s)

let save_object buf (o : Obj_state.t) =
  Buffer.add_string buf "object";
  add_field buf o.Obj_state.id.Ident.cls;
  add_value_field buf o.Obj_state.id.Ident.key;
  add_field buf (string_of_bool o.Obj_state.alive);
  add_field buf (string_of_bool o.Obj_state.dead);
  add_int_field buf o.Obj_state.steps;
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf "attr";
      add_field buf name;
      add_value_field buf v;
      Buffer.add_char buf '\n')
    (Obj_state.bindings o);
  Array.iteri
    (fun idx ps ->
      match ps with
      | Obj_state.PS_none | Obj_state.PS_closed None -> ()
      | Obj_state.PS_closed (Some s) ->
          Buffer.add_string buf "perm";
          add_int_field buf idx;
          Buffer.add_string buf "|closed";
          add_bits_field buf s;
          Buffer.add_char buf '\n'
      | Obj_state.PS_indexed tbl ->
          Buffer.add_string buf "perm";
          add_int_field buf idx;
          Buffer.add_string buf "|indexed";
          add_int_field buf (Param_table.cardinal tbl);
          Buffer.add_char buf '\n';
          (* the dump orders instances by encoded key, as it always has,
             so dumps stay comparable byte for byte across versions *)
          let encoded =
            List.map
              (fun (key, s) -> (Value_codec.encode (Value.List key), s))
              (Param_table.bindings tbl)
          in
          List.iter
            (fun (key, s) ->
              Buffer.add_string buf "inst";
              add_field buf key;
              add_bits_field buf s;
              Buffer.add_char buf '\n')
            (List.sort (fun (a, _) (b, _) -> String.compare a b) encoded))
    o.Obj_state.perm_states;
  Array.iteri
    (fun idx cs ->
      match cs with
      | None -> ()
      | Some s ->
          Buffer.add_string buf "constr";
          add_int_field buf idx;
          add_bits_field buf s;
          Buffer.add_char buf '\n')
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

let save_file (c : Community.t) (path : string) =
  write_file_atomic path (save c)

(* --- loading -------------------------------------------------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let bits_to_array s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> fail "bad bit %c" c)

let monitor_state_for compiled bits =
  match Monitor.state_of_bools compiled (bits_to_array bits) with
  | Some s -> s
  | None -> fail "monitor state does not match the specification's formula"

(** Restore a state dump into a community compiled from the same
    specification.  Existing objects are discarded unless [reset] is
    [false], which merges the dump's objects into the current state —
    the shard layer unions disjoint per-shard dumps this way. *)
let load ?(reset = true) (c : Community.t) (dump : string) :
    (unit, string) result =
  let r = Record.create dump in
  if not (Record.next r) then Error "empty dump"
  else if not (String.equal (Record.line r) header) then
    Error (Printf.sprintf "unknown header %S" (Record.line r))
  else (
      try
        ignore (Record.tag r);
        ignore (Record.rest r);
        if reset then Community.reset_instance_state c;
        let current : Obj_state.t option ref = ref None in
        let pending_indexed :
            (int * int * (Value.t list * Monitor.state) list) option ref =
          ref None
        in
        let flush_indexed () =
          match (!pending_indexed, !current) with
          | Some (idx, expected, insts), Some o ->
              if List.length insts <> expected then
                fail "indexed monitor count mismatch";
              o.Obj_state.perm_states.(idx) <-
                Obj_state.PS_indexed (Param_table.of_bindings (List.rev insts));
              pending_indexed := None
          | Some _, None -> fail "instance lines outside an object"
          | None, _ -> ()
        in
        let perm_compiled (o : Obj_state.t) idx =
          match List.nth_opt o.Obj_state.template.Template.t_perms idx with
          | Some pm -> (
              match pm.Template.pm_guard with
              | Template.PG_closed (_, compiled) -> `Closed compiled
              | Template.PG_indexed { ix_compiled; _ } -> `Indexed ix_compiled
              | Template.PG_quant { q_compiled; _ } -> `Indexed q_compiled
              | Template.PG_state _ -> fail "monitor for a state guard")
          | None -> fail "permission index out of range"
        in
        (* a value field is read by its length prefixes (it may hold
           '|' or a newline), the raw fields after it as a list *)
        let record = function
          | "object" -> (
              let cls = Record.field r in
              let key = Record.value r in
              match Record.rest r with
              | [ alive; dead; steps ] ->
                  flush_indexed ();
                  let tpl = Community.template_exn c cls in
                  let id = Ident.make cls key in
                  let o = Obj_state.create id tpl in
                  o.Obj_state.alive <- bool_of_string alive;
                  o.Obj_state.dead <- bool_of_string dead;
                  o.Obj_state.steps <- int_of_string steps;
                  Community.register_object c o;
                  if o.Obj_state.alive then Community.extension_add c id;
                  current := Some o
              | _ -> raise Record.Malformed)
          | "attr" -> (
              let name = Record.field r in
              let value = Record.value r in
              if Record.rest r <> [] then raise Record.Malformed;
              match !current with
              | Some o -> Obj_state.set_attr o name value
              | None -> fail "attr line outside an object")
          | "inst" -> (
              let key = Record.value r in
              match Record.rest r with
              | [ bits ] -> (
                  match (!pending_indexed, !current) with
                  | Some (idx, n, insts), Some o ->
                      let compiled =
                        match perm_compiled o idx with
                        | `Indexed compiled -> compiled
                        | `Closed _ -> fail "instance for closed guard"
                      in
                      let key =
                        match key with
                        | Value.List l -> l
                        | _ -> fail "instance key is not a list"
                      in
                      pending_indexed :=
                        Some
                          (idx, n, (key, monitor_state_for compiled bits) :: insts)
                  | _ -> fail "inst line outside an indexed block")
              | _ -> raise Record.Malformed)
          | tag -> (
            match tag :: Record.rest r with
            | [ "perm"; idx; "closed"; bits ] -> (
                flush_indexed ();
                match !current with
                | Some o -> (
                    let idx = int_of_string idx in
                    match perm_compiled o idx with
                    | `Closed compiled ->
                        o.Obj_state.perm_states.(idx) <-
                          Obj_state.PS_closed
                            (Some (monitor_state_for compiled bits))
                    | `Indexed _ -> fail "closed state for indexed guard")
                | None -> fail "perm line outside an object")
            | [ "perm"; idx; "indexed"; n ] ->
                flush_indexed ();
                pending_indexed :=
                  Some (int_of_string idx, int_of_string n, [])
            | [ "constr"; idx; bits ] -> (
                flush_indexed ();
                match !current with
                | Some o ->
                    let idx = int_of_string idx in
                    let compiled =
                      let temporal =
                        List.filter_map
                          (function
                            | Template.K_temporal (_, compiled, _) ->
                                Some compiled
                            | Template.K_static _ -> None)
                          o.Obj_state.template.Template.t_constraints
                      in
                      match List.nth_opt temporal idx with
                      | Some compiled -> compiled
                      | None -> fail "constraint index out of range"
                    in
                    o.Obj_state.constr_states.(idx) <-
                      Some (monitor_state_for compiled bits)
                | None -> fail "constr line outside an object")
            | _ -> raise Record.Malformed)
        in
        while Record.next r do
          record (Record.tag r)
        done;
        flush_indexed ();
        Ok ()
      with
      | Bad m -> Error m
      | Record.Malformed ->
          Error (Printf.sprintf "malformed line: %s" (Record.line r))
      | Record.Bad_value m -> Error (Printf.sprintf "bad value: %s" m)
      | Failure m -> Error m
      | Runtime_error.Error r -> Error (Runtime_error.reason_to_string r))

let load_file (c : Community.t) (path : string) : (unit, string) result =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let dump = really_input_string ic n in
  close_in ic;
  load c dump
