(** Refinement certificates: the simulation relation as a checkable
    artifact.

    {!Refinement.check} answers yes/no; a certificate reifies *why* — the
    explicit simulation relation in the style of Boogie's [refMap] and
    seL4's state-correspondence relations: hashed (abstract, concrete)
    state-pair nodes ({!View.state_digest} on both communities), one edge
    per (pair, candidate event) with the both-sides verdict and the §5.2
    obligation it discharges, plus everything a validator needs to replay
    the evidence from scratch (both specification sources, the class /
    key / creation-argument coordinates, the implementation mapping and
    the candidate alphabet).

    The node table doubles as the checker's memo table: {!enter} skips a
    pair already explored at the same or greater remaining depth, and
    {!save_memo}/{!load_memo} persist the (node, edge) graph keyed by a
    digest of the whole problem instance, so a re-check only explores the
    frontier beyond what an earlier run already certified.

    Serialization follows the house text-codec pattern
    ([effect_log.ml]/[wal.ml]): [|]-separated single-line records, a
    byte-length + CRC-32 framed body, {!Value_codec} for values, and a
    [Bad]-exception decoder surfaced as a [result]. *)

type pair = { p_abs : string; p_conc : string }

type everdict =
  | E_ok of pair  (** jointly accepted, observations agree; the post pair *)
  | E_stuck  (** jointly rejected: permission preserved on this case *)
  | E_missing of string  (** abstract accepts, implementation rejects *)
  | E_escape of string  (** implementation accepts what the spec forbids *)
  | E_obs of string  (** jointly accepted but an observation differs *)

type edge = {
  e_pre : pair;
  e_event : string;  (** abstract event name *)
  e_args : Value.t list;
  e_oblig : string;  (** obligation id this edge discharges or violates *)
  e_verdict : everdict;
}

type t = {
  abs_src : string;
  conc_src : string;
  abs_class : string;
  conc_class : string;
  abs_key : Value.t;
  conc_key : Value.t;
  abs_args : Value.t list;
  conc_args : Value.t list;
  event_map : (string * string) list;
  attr_map : (string * string) list;
  hidden : string list;
  depth : int;
  alphabet : (string * Value.t list) list;
  root : pair;
  nodes : (pair * int) list;  (** max remaining depth each pair was explored at *)
  edges : edge list;
  holds : bool;
  fail_reason : string option;
}

(* ------------------------------------------------------------------ *)
(* Field escaping                                                      *)
(* ------------------------------------------------------------------ *)

(* Value_codec strings are length-counted raw bytes, and counterexample
   reasons are free text — either may contain the record separators.
   Canonical percent-escaping of exactly the four metacharacters keeps
   every field single-line and pipe-free, and emit∘parse bit-identical. *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let esc (s : string) : string =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '%' -> Buffer.add_string b "%25"
      | '|' -> Buffer.add_string b "%7C"
      | '\n' -> Buffer.add_string b "%0A"
      | '\r' -> Buffer.add_string b "%0D"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* almost every field is metacharacter-free and is returned as is *)
let esc s =
  if String.exists (function '%' | '|' | '\n' | '\r' -> true | _ -> false) s
  then esc s
  else s

let unesc (s : string) : string =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' then
       if !i + 2 < n then begin
         (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
         | Some c -> Buffer.add_char b (Char.chr c)
         | None -> fail "bad escape in %S" s);
         i := !i + 2
       end
       else fail "truncated escape in %S" s
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let unesc s = if String.contains s '%' then unesc s else s

let enc_value v = esc (Value_codec.encode v)

let dec_value s =
  match Value_codec.decode (unesc s) with
  | Ok v -> v
  | Error m -> fail "bad value: %s" m

let enc_args args = enc_value (Value.List args)

let dec_args s =
  match dec_value s with
  | Value.List l -> l
  | _ -> fail "argument field is not a list"

(* ------------------------------------------------------------------ *)
(* Canonical keys and ordering                                         *)
(* ------------------------------------------------------------------ *)

(* An edge key is its pre-pair's node key followed by its event key. *)
let node_key p = p.p_abs ^ "," ^ p.p_conc
let event_key name args = String.concat "," [ ""; name; enc_args args ]

(* [args] is [enc_args e.e_args], when the caller already has it *)
let edge_key_enc (e : edge) ~args =
  String.concat "," [ e.e_pre.p_abs; e.e_pre.p_conc; e.e_event; args ]

let edge_key (e : edge) = edge_key_enc e ~args:(enc_args e.e_args)

(* Ordering by a precomputed key: each entry's key is built once, never
   inside the comparator (an edge key costs a value encoding). *)
let by_key (entries : (string * 'a) list) : (string * 'a) list =
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

(* a builder table's entries, in the order of the keys they are stored
   under *)
let sorted_table (tbl : (string, 'a) Hashtbl.t) : 'a list =
  List.map snd (by_key (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

(** The obligation id an edge with this verdict discharges (or violates)
    — {!Refinement.check} marks exactly these ids, and the validator
    recomputes them independently. *)
let oblig_of_verdict (event : string) = function
  | E_ok _ | E_obs _ -> "effect-" ^ event
  | E_stuck | E_escape _ -> "perm-" ^ event
  | E_missing _ -> "enabled-" ^ event

(* ------------------------------------------------------------------ *)
(* Emit                                                                *)
(* ------------------------------------------------------------------ *)

(* [tag|field|…|field\n] straight into the output buffer; the fields
   are already escaped or encoded *)
let add_record buf tag fields =
  Buffer.add_string buf tag;
  List.iter
    (fun f ->
      Buffer.add_char buf '|';
      Buffer.add_string buf f)
    fields;
  Buffer.add_char buf '\n'

let emit_node buf (p, d) =
  add_record buf "node" [ p.p_abs; p.p_conc; string_of_int d ]

(* [args] is [enc_args e.e_args], computed by the caller *)
let emit_edge buf (e : edge) ~args =
  let verdict =
    match e.e_verdict with
    | E_ok post -> [ "ok"; post.p_abs; post.p_conc ]
    | E_stuck -> [ "stuck" ]
    | E_missing r -> [ "missing"; esc r ]
    | E_escape r -> [ "escape"; esc r ]
    | E_obs r -> [ "obs"; esc r ]
  in
  add_record buf "edge"
    (e.e_pre.p_abs :: e.e_pre.p_conc :: esc e.e_event :: args
   :: esc e.e_oblig :: verdict)

(* the sorted node and edge records of a graph; [edges] carry their
   encoded arguments *)
let emit_graph buf nodes (edges : (string * edge) list) =
  List.iter (emit_node buf) nodes;
  List.iter (fun (args, e) -> emit_edge buf e ~args) edges

let frame magic body =
  Printf.sprintf "%s|%d|%08x\n%s" magic (String.length body)
    (Wal.crc32 body land 0xffffffff)
    body

let cert_magic = "troll-cert 1"
let memo_magic = "troll-memo 1"

let encode (t : t) : string =
  (* decorate, sort, undecorate: one key per entry, and an edge's
     encoded arguments serve both its key and its record *)
  let nodes =
    List.map snd
      (by_key (List.map (fun ((p, _) as n) -> (node_key p, n)) t.nodes))
  in
  let edges =
    List.map snd
      (by_key
         (List.map
            (fun (e : edge) ->
              let args = enc_args e.e_args in
              (edge_key_enc e ~args, (args, e)))
            t.edges))
  in
  (* sized for the sources plus ~256 bytes per record, so the buffer
     seldom has to grow *)
  let buf =
    Buffer.create
      (String.length t.abs_src + String.length t.conc_src
      + (256 * (List.length nodes + List.length edges)))
  in
  add_record buf "impl"
    [
      esc t.abs_class;
      esc t.conc_class;
      enc_value t.abs_key;
      enc_value t.conc_key;
      enc_args t.abs_args;
      enc_args t.conc_args;
      string_of_int t.depth;
      (if t.holds then "1" else "0");
    ];
  Option.iter (fun r -> add_record buf "fail" [ esc r ]) t.fail_reason;
  List.iter (fun (a, c) -> add_record buf "emap" [ esc a; esc c ]) t.event_map;
  List.iter (fun (a, c) -> add_record buf "amap" [ esc a; esc c ]) t.attr_map;
  List.iter (fun a -> add_record buf "hide" [ esc a ]) t.hidden;
  List.iter
    (fun (n, args) -> add_record buf "cand" [ esc n; enc_args args ])
    t.alphabet;
  let add_block tag src =
    add_record buf tag [ string_of_int (String.length src) ];
    Buffer.add_string buf src;
    Buffer.add_char buf '\n'
  in
  add_block "abs-src" t.abs_src;
  add_block "conc-src" t.conc_src;
  add_record buf "root" [ t.root.p_abs; t.root.p_conc ];
  emit_graph buf nodes edges;
  frame cert_magic (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

(** A cursor over the body: plain line reads plus exact-byte block reads
    for the embedded sources (which line splitting would mangle). *)
type cursor = { src : string; mutable pos : int }

let at_end cur = cur.pos >= String.length cur.src

let read_line cur =
  if at_end cur then fail "unexpected end of certificate";
  let nl =
    match String.index_from_opt cur.src cur.pos '\n' with
    | Some i -> i
    | None -> fail "unterminated line"
  in
  let line = String.sub cur.src cur.pos (nl - cur.pos) in
  cur.pos <- nl + 1;
  line

let read_block cur n =
  if n < 0 then fail "negative source block length %d" n;
  if cur.pos + n + 1 > String.length cur.src then fail "truncated source block";
  let s = String.sub cur.src cur.pos n in
  if cur.src.[cur.pos + n] <> '\n' then fail "source block not newline-terminated";
  cur.pos <- cur.pos + n + 1;
  s

let int_of s =
  match int_of_string_opt s with Some n -> n | None -> fail "bad integer %S" s

let parse_pair da dc = { p_abs = da; p_conc = dc }

let parse_edge_fields = function
  | da :: dc :: name :: args :: oblig :: code :: rest ->
      let verdict =
        match (code, rest) with
        | "ok", [ pa; pc ] -> E_ok (parse_pair pa pc)
        | "stuck", [] -> E_stuck
        | "missing", [ r ] -> E_missing (unesc r)
        | "escape", [ r ] -> E_escape (unesc r)
        | "obs", [ r ] -> E_obs (unesc r)
        | _ -> fail "bad edge verdict %S" code
      in
      {
        e_pre = parse_pair da dc;
        e_event = unesc name;
        e_args = dec_args args;
        e_oblig = unesc oblig;
        e_verdict = verdict;
      }
  | _ -> fail "malformed edge line"

let unframe magic (s : string) : string =
  let nl =
    match String.index_opt s '\n' with
    | Some i -> i
    | None -> fail "missing header line"
  in
  match String.split_on_char '|' (String.sub s 0 nl) with
  | [ m; len; crc ] when String.equal m magic ->
      let body = String.sub s (nl + 1) (String.length s - nl - 1) in
      if String.length body <> int_of len then
        fail "body length differs from header";
      if Printf.sprintf "%08x" (Wal.crc32 body land 0xffffffff) <> crc then
        fail "CRC mismatch";
      body
  | m :: _ -> fail "unknown header %S (wanted %s)" m magic
  | [] -> fail "empty header"

let decode (s : string) : (t, string) result =
  try
    let cur = { src = unframe cert_magic s; pos = 0 } in
    let abs_class, conc_class, abs_key, conc_key, abs_args, conc_args, depth,
        holds =
      match String.split_on_char '|' (read_line cur) with
      | [ "impl"; ac; cc; ak; ck; aa; ca; d; h ] ->
          ( unesc ac,
            unesc cc,
            dec_value ak,
            dec_value ck,
            dec_args aa,
            dec_args ca,
            int_of d,
            int_of h <> 0 )
      | _ -> fail "first record is not impl"
    in
    let fail_reason = ref None in
    let event_map = ref [] and attr_map = ref [] and hidden = ref [] in
    let alphabet = ref [] in
    let abs_src = ref None and conc_src = ref None in
    let root = ref None in
    let nodes = ref [] and edges = ref [] in
    while not (at_end cur) do
      match String.split_on_char '|' (read_line cur) with
      | [ "fail"; r ] -> fail_reason := Some (unesc r)
      | [ "emap"; a; c ] -> event_map := (unesc a, unesc c) :: !event_map
      | [ "amap"; a; c ] -> attr_map := (unesc a, unesc c) :: !attr_map
      | [ "hide"; a ] -> hidden := unesc a :: !hidden
      | [ "cand"; n; args ] -> alphabet := (unesc n, dec_args args) :: !alphabet
      | [ "abs-src"; n ] -> abs_src := Some (read_block cur (int_of n))
      | [ "conc-src"; n ] -> conc_src := Some (read_block cur (int_of n))
      | [ "root"; da; dc ] -> root := Some (parse_pair da dc)
      | [ "node"; da; dc; d ] ->
          nodes := (parse_pair da dc, int_of d) :: !nodes
      | "edge" :: rest -> edges := parse_edge_fields rest :: !edges
      | _ -> fail "malformed certificate line"
    done;
    let require what = function Some x -> x | None -> fail "missing %s" what in
    Ok
      {
        abs_src = require "abs-src" !abs_src;
        conc_src = require "conc-src" !conc_src;
        abs_class;
        conc_class;
        abs_key;
        conc_key;
        abs_args;
        conc_args;
        event_map = List.rev !event_map;
        attr_map = List.rev !attr_map;
        hidden = List.rev !hidden;
        depth;
        alphabet = List.rev !alphabet;
        root = require "root" !root;
        nodes = List.rev !nodes;
        edges = List.rev !edges;
        holds;
        fail_reason = !fail_reason;
      }
  with Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Builder: recording tables + memo                                   *)
(* ------------------------------------------------------------------ *)

type builder = {
  b_abs_src : string;
  b_conc_src : string;
  b_impl : Implementation.t;
  b_abs_key : Value.t;
  b_conc_key : Value.t;
  b_abs_args : Value.t list;
  b_conc_args : Value.t list;
  b_alphabet : (string * Value.t list) list;
  b_depth : int;
  b_nodes : (string, pair * int) Hashtbl.t;  (* node_key -> (pair, max depth) *)
  b_edges : (string, edge) Hashtbl.t;  (* edge_key -> edge *)
  mutable b_skips : int;
  mutable b_root : pair option;
  mutable b_fail : string option;
  mutable b_loaded : int;  (* pairs seeded from a persisted memo *)
}

let builder ~abs_src ~conc_src ~(impl : Implementation.t) ~abs_key ~conc_key
    ?(abs_args = []) ?(conc_args = []) ~alphabet ~depth () : builder =
  {
    b_abs_src = abs_src;
    b_conc_src = conc_src;
    b_impl = impl;
    b_abs_key = abs_key;
    b_conc_key = conc_key;
    b_abs_args = abs_args;
    b_conc_args = conc_args;
    b_alphabet = alphabet;
    b_depth = depth;
    b_nodes = Hashtbl.create 64;
    b_edges = Hashtbl.create 64;
    b_skips = 0;
    b_root = None;
    b_fail = None;
    b_loaded = 0;
  }

let enter b (p : pair) ~(depth : int) : bool =
  let k = node_key p in
  match Hashtbl.find_opt b.b_nodes k with
  | Some (_, d) when d >= depth ->
      b.b_skips <- b.b_skips + 1;
      false
  | _ ->
      (* record before exploring: a cycle back to [p] at lower remaining
         depth must skip, or the search would not terminate *)
      Hashtbl.replace b.b_nodes k (p, depth);
      true

let note_frontier b (p : pair) =
  let k = node_key p in
  if not (Hashtbl.mem b.b_nodes k) then Hashtbl.replace b.b_nodes k (p, 0)

let add_edge b (e : edge) =
  let k = edge_key e in
  if not (Hashtbl.mem b.b_edges k) then Hashtbl.replace b.b_edges k e

let skips b = b.b_skips

let note_root b p =
  b.b_root <- Some p;
  (* the root pair is a node even when depth = 0 *)
  note_frontier b p

let note_failed b reason = b.b_fail <- Some reason
let loaded_pairs b = b.b_loaded

let finish (b : builder) : t =
  let root =
    match b.b_root with
    | Some p -> p
    | None -> invalid_arg "Certificate.finish: no root recorded"
  in
  {
    abs_src = b.b_abs_src;
    conc_src = b.b_conc_src;
    abs_class = b.b_impl.Implementation.abs_class;
    conc_class = b.b_impl.Implementation.conc_class;
    abs_key = b.b_abs_key;
    conc_key = b.b_conc_key;
    abs_args = b.b_abs_args;
    conc_args = b.b_conc_args;
    event_map = b.b_impl.Implementation.event_map;
    attr_map = b.b_impl.Implementation.attr_map;
    hidden = b.b_impl.Implementation.hidden;
    depth = b.b_depth;
    alphabet = b.b_alphabet;
    root;
    nodes = sorted_table b.b_nodes;
    edges = sorted_table b.b_edges;
    holds = b.b_fail = None;
    fail_reason = b.b_fail;
  }

(* ------------------------------------------------------------------ *)
(* Persisted memo                                                      *)
(* ------------------------------------------------------------------ *)

(** Digest identifying the whole problem instance — both sources, the
    class/key/argument coordinates, the implementation mapping and the
    alphabet.  Depth is deliberately excluded: node entries carry their
    own explored depth, so a deeper re-check of the same instance can
    reuse a shallower run's table. *)
let spec_key (b : builder) : string =
  let buf = Buffer.create 1024 in
  let field s =
    Value_codec.add_int buf (String.length s);
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  field b.b_abs_src;
  field b.b_conc_src;
  field b.b_impl.Implementation.abs_class;
  field b.b_impl.Implementation.conc_class;
  field (Value_codec.encode b.b_abs_key);
  field (Value_codec.encode b.b_conc_key);
  field (Value_codec.encode (Value.List b.b_abs_args));
  field (Value_codec.encode (Value.List b.b_conc_args));
  List.iter
    (fun (a, c) ->
      field a;
      field c)
    b.b_impl.Implementation.event_map;
  List.iter
    (fun (a, c) ->
      field a;
      field c)
    b.b_impl.Implementation.attr_map;
  List.iter field b.b_impl.Implementation.hidden;
  List.iter
    (fun (n, args) ->
      field n;
      field (Value_codec.encode (Value.List args)))
    b.b_alphabet;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let memo_path ~dir ~key = Filename.concat dir (key ^ ".tmemo")

let save_memo (b : builder) ~(dir : string) : (unit, string) result =
  if b.b_fail <> None then
    (* a failed search stopped mid-node: its table does not certify
       "no violation below this pair" and must not seed later runs *)
    Ok ()
  else
    let key = spec_key b in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf key;
    Buffer.add_char buf '\n';
    emit_graph buf
      (sorted_table b.b_nodes)
      (List.map
         (fun (e : edge) -> (enc_args e.e_args, e))
         (sorted_table b.b_edges));
    try
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Persist.write_file_atomic (memo_path ~dir ~key)
        (frame memo_magic (Buffer.contents buf));
      Ok ()
    with Sys_error m | Unix.Unix_error (_, m, _) -> Error m

let load_memo (b : builder) ~(dir : string) : (int, string) result =
  let key = spec_key b in
  let path = memo_path ~dir ~key in
  if not (Sys.file_exists path) then Ok 0
  else
    try
      let src = unframe memo_magic (Persist.read_file path) in
      let cur = { src; pos = 0 } in
      if read_line cur <> key then Ok 0
      else begin
        let count = ref 0 in
        while not (at_end cur) do
          match String.split_on_char '|' (read_line cur) with
          | [ "node"; da; dc; d ] ->
              let p = parse_pair da dc in
              incr count;
              Hashtbl.replace b.b_nodes (node_key p) (p, int_of d)
          | "edge" :: rest ->
              let e = parse_edge_fields rest in
              Hashtbl.replace b.b_edges (edge_key e) e
          | _ -> fail "malformed memo line"
        done;
        b.b_loaded <- !count;
        Ok !count
      end
    with
    | Bad m -> Error m
    | Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Pretty                                                              *)
(* ------------------------------------------------------------------ *)

let pp_summary ppf (t : t) =
  Format.fprintf ppf
    "certificate: %s refined by %s, depth %d, %s@,  nodes %d@,  edges %d"
    t.abs_class t.conc_class t.depth
    (if t.holds then "holds" else "FAILS")
    (List.length t.nodes) (List.length t.edges)
