(** The value universe.

    Collections are kept canonical — sets sorted and duplicate-free, map
    bindings sorted by key — so structural equality coincides with
    semantic equality, and values can serve directly as object
    identities (the paper models identities "as values of an arbitrary
    abstract data type"). *)

type t =
  | Bool of bool
  | Int of int
  | String of string
  | Date of Date_adt.t
  | Money of Money.t
  | Enum of string * string  (** enumeration name, constant literal *)
  | Id of string * t  (** class name, key value: a surrogate *)
  | Set of t list  (** canonical: strictly increasing *)
  | List of t list
  | Map of (t * t) list  (** canonical: strictly increasing keys *)
  | Tuple of (string * t) list  (** field order as declared *)
  | Undefined
      (** the unobservable value: attributes before initialisation,
          failed lookups; propagates through strict operations *)

val compare : t -> t -> int
(** A total order (used for canonical collections).  Physically equal
    values compare 0 without a walk, which is exact because no value
    holds a float. *)

val equal : t -> t -> bool

val set : t list -> t
(** Canonical set constructor: sorts and deduplicates. *)

val map : (t * t) list -> t
(** Canonical map constructor; later bindings for the same key win. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val type_of : t -> Vtype.t
(** Dynamic type; collections infer the join of their element types
    ([Any] when empty). *)

val is_undefined : t -> bool

val fits : Vtype.t -> t -> bool
(** [fits ty v]: [v] may fill a slot of type [ty] as far as its
    constructor shows.  [Undefined] fits every type; a base type
    (bool, integer, nat, string, date, money) takes only its own
    constructor (any integer for nat); compound, identity and
    enumeration types are not checked. *)

val to_bool_opt : t -> bool option

val field : string -> t -> t
(** Tuple field selection; [Undefined] on missing fields or
    non-tuples. *)
