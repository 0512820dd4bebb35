(** Runtime errors and event-rejection reasons of the animator.

    *Rejections* are attempts the specification forbids (permission or
    constraint violations, conflicting valuations) — they leave the
    community unchanged.  *Errors* indicate API misuse or an ill-formed
    specification (unknown class, event on a dead object). *)

type reason =
  | Unknown_class of string
  | Unknown_object of Ident.t
  | Unknown_event of string * string  (** class, event *)
  | Unknown_attribute of string * string  (** class, attribute *)
  | Already_alive of Ident.t
  | Not_alive of Ident.t
  | Not_birth of Event.t  (** creating an object with a non-birth event *)
  | Permission_denied of Event.t * string  (** event, guard text *)
  | Constraint_violated of Ident.t * string
  | Valuation_conflict of Ident.t * string * Value.t * Value.t
      (** two events of one synchronous step write different values *)
  | Eval_error of string
  | Unsupported of string
  | Unknown_shard of int
      (** a routed step named a shard outside the partition map *)
  | Shard_unavailable of int
      (** the owning shard process is down (mid-protocol death) *)

exception Error of reason

val fail : reason -> 'a
(** Raise {!Error}. *)

val pp_reason : Format.formatter -> reason -> unit
val reason_to_string : reason -> string

val code : reason -> string
(** A stable snake_case code naming the constructor
    (["permission_denied"], ["unknown_class"], …) — the machine-facing
    half of a rejection, used by structured error frames on the wire;
    {!reason_to_string} is the human-facing half. *)

val code_rank : string -> int
(** Which engine phase (run over the whole synchronous set) an error
    code belongs to: 0 routing/availability, 1 life cycles and name
    resolution, 2 execution rejections (permissions, valuations,
    constraints, evaluation) and any code that is not a {!reason}'s.
    {!Shard.two_phase}, merging sub-step failures from several shards,
    reports the minimum-rank error so the same class of error surfaces
    as in a single engine; attribution within one rank stays
    decomposition-dependent. *)

val phase_rank : reason -> int
(** [code_rank (code r)]. *)
