(** Runtime errors and event-rejection reasons of the animator.

    The engine distinguishes *rejections* — an attempted step that the
    specification forbids (permission violated, constraint violated,
    conflicting valuations), which leaves the community unchanged — from
    *errors*, which indicate an ill-formed specification or API misuse
    (unknown class, event on a dead object, type mismatch at run time). *)

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

let fail reason = raise (Error reason)

let pp_reason ppf = function
  | Unknown_class c -> Format.fprintf ppf "unknown class %s" c
  | Unknown_object i -> Format.fprintf ppf "unknown object %a" Ident.pp i
  | Unknown_event (c, e) -> Format.fprintf ppf "class %s has no event %s" c e
  | Unknown_attribute (c, a) ->
      Format.fprintf ppf "class %s has no attribute %s" c a
  | Already_alive i ->
      Format.fprintf ppf "object %a is already alive" Ident.pp i
  | Not_alive i -> Format.fprintf ppf "object %a is not alive" Ident.pp i
  | Not_birth e ->
      Format.fprintf ppf "event %a is not a birth event" Event.pp e
  | Permission_denied (e, g) ->
      Format.fprintf ppf "permission denied for %a: guard %s does not hold"
        Event.pp e g
  | Constraint_violated (i, k) ->
      Format.fprintf ppf "constraint violated on %a: %s" Ident.pp i k
  | Valuation_conflict (i, a, v1, v2) ->
      Format.fprintf ppf
        "conflicting valuations for %a.%s in one step: %a vs %a" Ident.pp i a
        Value.pp v1 Value.pp v2
  | Eval_error m -> Format.fprintf ppf "evaluation error: %s" m
  | Unsupported m -> Format.fprintf ppf "unsupported construct: %s" m
  | Unknown_shard k -> Format.fprintf ppf "no shard %d in the partition map" k
  | Shard_unavailable k -> Format.fprintf ppf "shard %d is unavailable" k

let reason_to_string r = Format.asprintf "%a" pp_reason r

(* stable wire codes: one per constructor, never reworded (clients
   dispatch on them) *)
let code = function
  | Unknown_class _ -> "unknown_class"
  | Unknown_object _ -> "unknown_object"
  | Unknown_event _ -> "unknown_event"
  | Unknown_attribute _ -> "unknown_attribute"
  | Already_alive _ -> "already_alive"
  | Not_alive _ -> "not_alive"
  | Not_birth _ -> "not_birth"
  | Permission_denied _ -> "permission_denied"
  | Constraint_violated _ -> "constraint_violated"
  | Valuation_conflict _ -> "valuation_conflict"
  | Eval_error _ -> "eval_error"
  | Unsupported _ -> "unsupported"
  | Unknown_shard _ -> "unknown_shard"
  | Shard_unavailable _ -> "shard_unavailable"

(* The engine runs its phases over the WHOLE synchronous set: life
   cycles and name resolution for every event first, only then
   permissions, valuations and constraints.  When a step is decomposed
   across shards, each shard reports its own first failure; ranking
   them by phase lets a coordinator surface the same CLASS of error a
   single engine would.  Attribution within one phase class stays
   decomposition-dependent (each shard sees only its own events). *)
let code_rank = function
  | "unknown_shard" | "shard_unavailable" -> 0
  | "unknown_class" | "unknown_object" | "unknown_event" | "unknown_attribute"
  | "already_alive" | "not_alive" | "not_birth" ->
      1
  | _ -> 2

let phase_rank r = code_rank (code r)
