(** Refinement certificates: the simulation relation {!Refinement.check}
    discovers, reified as a checkable artifact (§5.2 made first-class).

    A certificate is a graph over hashed (abstract, concrete) state
    pairs ({!View.state_digest} of both communities): one node per pair
    visited, carrying the maximum remaining depth it was explored at,
    and one edge per (pair, candidate event) carrying the both-sides
    verdict and the proof obligation it discharges.  The specification
    sources, class/key/creation coordinates, implementation mapping and
    candidate alphabet are embedded, so {!Validator.validate} can replay
    every edge from nothing but the certificate.

    The node table doubles as the checker's memo table, and
    {!save_memo}/{!load_memo} persist it (keyed by {!spec_key}) so a
    re-check of the same problem instance only explores the frontier an
    earlier run did not certify.

    Serialized in the house CRC-framed text-codec style
    ([effect_log.ml]/[wal.ml]): a [troll-cert 1|<bytes>|<crc32>] header
    line framing [|]-separated single-line records, values via
    {!Value_codec}, sources as byte-counted blocks.  {!encode} is
    canonical (nodes and edges sorted), so emit → {!decode} → emit is
    bit-identical. *)

type pair = { p_abs : string; p_conc : string }
(** State digests of the two sides, {!View.state_digest} hex. *)

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
  nodes : (pair * int) list;
      (** max remaining depth each pair was explored at; 0 = frontier *)
  edges : edge list;
  holds : bool;
  fail_reason : string option;
}

val encode : t -> string
val decode : string -> (t, string) result

val oblig_of_verdict : string -> everdict -> string
(** The obligation id an edge on the given abstract event discharges —
    the checker records it, the validator recomputes it. *)

val node_key : pair -> string
val edge_key : edge -> string
(** Canonical table keys, used for deduplication and as the sort keys of
    {!encode}, {!finish} and {!save_memo}.  Each is computed once per
    entry: the builder stores every node and edge under its key as it is
    recorded, {!finish} and {!save_memo} sort by those stored keys, and
    {!encode} builds one key per entry before it sorts (an edge key costs
    a {!Value_codec} encoding of the arguments). *)

val event_key : string -> Value.t list -> string
(** [edge_key e = node_key e.e_pre ^ event_key e.e_event e.e_args]: a
    caller that looks up one event at many pairs encodes its arguments
    once. *)

(** {1 Recording}

    A [builder] accumulates the graph while {!Refinement.check}'s
    depth-first search runs; its node table is also the search's memo. *)

type builder

val builder :
  abs_src:string ->
  conc_src:string ->
  impl:Implementation.t ->
  abs_key:Value.t ->
  conc_key:Value.t ->
  ?abs_args:Value.t list ->
  ?conc_args:Value.t list ->
  alphabet:(string * Value.t list) list ->
  depth:int ->
  unit ->
  builder

val enter : builder -> pair -> depth:int -> bool
(** [true]: first visit at this remaining depth budget (or a deeper
    budget than any before) — explore, the node is recorded.  [false]:
    the pair was already explored at an equal or greater remaining
    depth — skip the whole subtree.  Recording happens on entry, so
    state-graph cycles terminate. *)

val note_frontier : builder -> pair -> unit
(** Record a pair reached with no remaining depth budget (at depth 0,
    if absent) so accepted edges never reference a missing node. *)

val add_edge : builder -> edge -> unit
val skips : builder -> int
(** Subtrees skipped by {!enter} (memo hits). *)

val note_root : builder -> pair -> unit
val note_failed : builder -> string -> unit
val finish : builder -> t

(** {1 Persisted memo} *)

val spec_key : builder -> string
(** Digest of the whole problem instance (sources, classes, keys,
    creation arguments, mapping, alphabet — everything except the
    depth).  Keys the persisted memo file; any edit to either
    specification changes it, so a stale table is never reused. *)

val memo_path : dir:string -> key:string -> string

val load_memo : builder -> dir:string -> (int, string) result
(** Seed the builder's tables from [dir]'s memo for this {!spec_key}.
    [Ok n]: [n] pairs loaded ([0] when no file matches — including a
    file written for a different problem instance).  [Error]: the file
    exists for this key but is corrupt. *)

val save_memo : builder -> dir:string -> (unit, string) result
(** Persist the tables (atomic write, directory created if missing).
    A failed search saves nothing: its table stops mid-node and does
    not certify "no violation below this pair". *)

val loaded_pairs : builder -> int

val pp_summary : Format.formatter -> t -> unit
