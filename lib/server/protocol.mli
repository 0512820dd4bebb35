(** The society server's wire protocol: request and response schemas
    over {!Frame}s, and the codecs between them and the engine's types.

    Mutating requests ([create], [fire], [batch], [sync], [txn],
    [destroy]) all decode to the engine's one step request type
    {!Step.t} — the wire protocol and the in-process API share the
    entry point ({!Troll.step}).  Queries ([attr], [eval], [extension],
    [view]) and administration ([save], [restore], [stats], [ping],
    [shutdown]) are their own forms.

    See docs/PROTOCOL.md for the full request/response field tables. *)

(** {1 Value codec}

    Scalars map to JSON scalars; every other constructor is a
    single-key ["$tag"] object, so decoding is unambiguous.
    [Undefined] is [null]. *)

val value_to_json : Value.t -> Json.t

val value_of_json : Json.t -> (Value.t, string) result
(** Collections are re-canonicalised ([Value.set]/[Value.map]), so a
    decoded value is always canonical. *)

val ident_to_json : Ident.t -> Json.t
(** [{"cls": …, "key": …}]. *)

val ident_of_json : Json.t -> (Ident.t, string) result

val event_to_json : Event.t -> Json.t
(** [{"cls": …, "key": …, "event": …, "args": […]}]. *)

val event_of_json : Json.t -> (Event.t, string) result

(** {1 Structured error frames} *)

module Wire_error : sig
  (** The wire shape of every failure: a stable [code] clients dispatch
      on, human-readable [message], and the source location when the
      error carries one.  {!of_error} flattens a {!Troll.Error.t}
      losslessly with respect to these three. *)

  type t = {
    code : string;
    message : string;
    loc : (int * int) option;  (** line, column *)
  }

  val make : ?loc:int * int -> code:string -> string -> t
  val of_error : Troll.Error.t -> t
  val of_reason : Runtime_error.reason -> t
  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result
  val equal : t -> t -> bool
end

(** {1 Requests} *)

type view_query = Rows | Members

val version : int
(** Protocol version spoken by this build.  A [hello] request carrying
    a different version is answered with a [version_mismatch] error. *)

type request =
  | Ping
  | Hello of { version : int; caps : string list }
      (** handshake: the client announces its protocol version and the
          capabilities it wants ([wal] subscribes the connection to
          shipped WAL records); answered with the server's version and
          capability flags *)
  | Step of Step.t  (** create / destroy / fire / batch / sync / txn *)
  | Steps of Step.t list
      (** a batch of step requests ([{"op": "steps",
          "steps": [{…}, …]}], each entry step-shaped), answered with a
          per-step result list; each entry is its own transaction,
          executed in order — exactly as sending the steps one by
          one *)
  | Prepare of Step.t
      (** first phase of a distributed commit: run the step inside a
          transaction but leave it open; the tentative outcome is
          returned and the server blocks other work until [commit] or
          [abort] *)
  | Commit  (** second phase: commit the prepared transaction *)
  | Abort  (** roll the prepared transaction back (idempotent) *)
  | Catchup of { base : string option; records : string list }
      (** replace the community state with the [base] dump (when given)
          and replay shipped WAL record payloads on top; used to bring a
          restarted shard back in sync *)
  | Attr of { target : Ident.t; attr : string }
  | Eval of string
  | Extension of string
  | Enabled of Ident.t
      (** currently enabled parameterless events of the object —
          probed in place, or over a frozen view when the server's
          domain pool fans the probes out *)
  | Candidates of Ident.t
      (** all non-birth events of the object's class with parameter
          types and (for parameterless ones) enabledness *)
  | View of { view : string; what : view_query }
  | Save of string option  (** write to path, or return the dump inline *)
  | Restore of { path : string option; state : string option }
  | Snapshot
      (** force a WAL compaction (snapshot + log rotation); answered
          with [no_wal] when the server runs without a WAL *)
  | Stats
  | Shutdown

type envelope = {
  req_id : Json.t;  (** echoed back verbatim; [Null] when absent *)
  deadline_ms : int option;
  request : (request, string) result;
      (** [Error] = malformed request (bad_request on the wire) *)
}

val decode : Json.t -> envelope

val op_name : request -> string
(** The operation label, for per-op statistics. *)

val request_of_step : id:Json.t -> Step.t -> Json.t
(** Encode a step as a request document ([decode] inverts it).  Used by
    the shard router to ship decomposed sub-steps to their owners. *)

(** {1 Responses} *)

val wal_frame : (int * string) list -> Json.t
(** [{"wal": [{"seq": n, "payload": s}, …]}] — an unsolicited shipment
    of WAL records, pushed to connections that negotiated the [wal]
    capability in [hello].  The frame has no ["id"]. *)

val ok_frame : id:Json.t -> Json.t -> Json.t
(** [{"id": …, "ok": true, "result": …}]. *)

val error_frame : id:Json.t -> Wire_error.t -> Json.t
(** [{"id": …, "ok": false, "error": {…}}]. *)

val outcome_to_json : Engine.outcome -> Json.t
(** [{"committed": [[event…]…], "created": […], "destroyed": […]}]. *)

val outcome_of_json : Json.t -> (Engine.outcome, string) result
(** Inverts {!outcome_to_json}: the shard router reads its shards'
    prepared outcomes with it. *)

val enabled_to_json : string list -> Json.t
(** The [enabled] result: [{"events": [name…]}]. *)

val candidates_to_json : (string * Vtype.t list * bool option) list -> Json.t
(** The [candidates] result:
    [{"candidates": [{"event": …, "params": [type…], "enabled"?: …}…]}],
    ["enabled"] present exactly where the verdict is [Some]. *)
