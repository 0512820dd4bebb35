(** TROLL — the umbrella API.

    The pipeline is
    {v source —parse→ Ast.spec —check→ diagnostics
              —compile→ Community (+ views) —animate→ Engine v}
    and every lower layer stays accessible ([Parser], [Typecheck],
    [Compile], [Engine], [Community], [Interface], [Refinement],
    [Schema], [Society], [Persist], …).

    The primary API is {!Session}: a handle over a loaded system with
    structured errors ({!Error.t}) and the single animation entry point
    {!step} (every firing shape is a {!Step.t}).  A session is one
    community; following the paper's §6 modularization into societies
    connected only by event import, a shard of a partitioned society is
    a session of its own ({!Session.load_shard_cell}), and
    {!Shard.coordinate} or the shard router ([lib/server]) routes steps
    over the cells. *)

type system = {
  spec : Ast.spec;
  community : Community.t;
  views : (string * Interface.t) list;  (** interface classes by name *)
  diagnostics : Check_error.t list;  (** warnings from checking *)
}

(** {1 Structured errors} *)

module Error : sig
  (** Everything the facade can report, with structure preserved:
      parse errors keep their source location, checking errors their
      diagnostic, engine rejections their {!Runtime_error.reason}. *)

  type t =
    | Parse of Parse_error.t  (** syntax error, with location *)
    | Check of Check_error.t  (** static checking error, with location *)
    | Link of string list  (** society linking diagnostics *)
    | Runtime of Runtime_error.reason  (** rejection or engine error *)
    | Io of string  (** file system trouble *)

  val code : t -> string
  (** Stable machine-facing code: ["parse_error"], ["check_error"],
      ["link_error"], ["io_error"], or the {!Runtime_error.code} of the
      wrapped reason (["permission_denied"], …). *)

  val message : t -> string
  (** The human-facing text, without location prefix. *)

  val loc : t -> Loc.t option
  (** Source location, when the error carries one. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(** {1 Sessions}

    A session is the unit of service: one loaded specification, its
    community and views, animated through {!step}.  The society server
    ([lib/server]) holds exactly one session and decodes every wire
    request against it. *)

module Session : sig
  type t

  val load : ?config:Community.config -> string -> (t, Error.t) result
  (** Parse, check and compile; single objects with parameterless birth
      events are instantiated, interface classes become ready views, and
      module declarations are linked through the society layer.
      Checking errors abort; warnings are carried in
      [diagnostics]. *)

  val load_file : ?config:Community.config -> string -> (t, Error.t) result

  val of_system : system -> t
  (** Wrap an already-loaded system (e.g. one built by hand through
      [Compile]). *)

  val load_shard_cell :
    ?config:Community.config ->
    map:string ->
    shard:int ->
    string ->
    (t, Error.t) result
  (** One shard's slice as a plain single-engine session: the full
      schema, but single objects instantiated only when shard [shard]
      owns them under [map] (a partition map in {!Shard.to_string}'s
      wire form, validated against the specification; errors report as
      [Error.Link]).  Each shard server process of [trollc shard] runs
      one behind the NDJSON protocol; {!Shard.coordinate} routes steps
      over their communities in process. *)

  val system : t -> system
  val community : t -> Community.t

  val spec : t -> Ast.spec
  val diagnostics : t -> Check_error.t list

  (** {2 Animation} *)

  val step : t -> Step.t -> Engine.step_result
  (** Execute one step request as one atomic transaction — the single
      entry point, {!Engine.step}, for every firing shape and for
      creation and destruction. *)

  val attr : t -> Ident.t -> string -> (Value.t, Error.t) result
  (** Observe an attribute (derived attributes are computed; inherited
      ones delegate to base aspects). *)

  val eval : t -> string -> (Value.t, Error.t) result
  (** Evaluate an expression in global scope, e.g.
      [{|DEPT("d").manager|}]. *)

  val extension : t -> string -> Ident.t list
  (** Living members of a class. *)

  val run_active : ?fuel:int -> t -> Event.t list
  (** Fire enabled active events to quiescence; returns them in
      order. *)

  val save : t -> string
  (** {!Persist.save} of the session's state.  The dumps of a
      partitioned society's cells are disjoint and ordered by object
      identity, so their {!Persist.merge} saves bit-identically to the
      dump of one community run through the same steps. *)

  val view : t -> string -> Interface.t option
  val views : t -> (string * Interface.t) list
end

val parse_spec : string -> (Ast.spec, Error.t) result
(** Parse a specification source text, keeping the error location. *)

val step : Session.t -> Step.t -> Engine.step_result
(** = {!Session.step}. *)

(** {1 Front end} *)

val check : Ast.spec -> Check_error.t list
(** Static diagnostics (errors and warnings). *)

val pretty : Ast.spec -> string
(** Canonical concrete syntax (re-parseable). *)

val ident : string -> Value.t -> Ident.t
