(** Object identities (surrogates): a class name paired with a key value
    built from the class's [identification] section.  Aspects of one
    object (a PERSON and its MANAGER role) share the key and differ in
    the class name; {!same_key} is the relation inheritance morphisms
    preserve.

    An identity carries its hash, computed once from [(cls, key)] by
    every constructor below.  The hash is a pure function of the class
    and the key, so equal identities have equal hashes, and polymorphic
    equality, comparison and [Hashtbl.hash] keep their meaning on
    identities. *)

type t = private { cls : string; key : Value.t; hash : int }

val make : string -> Value.t -> t

val singleton : string -> t
(** The identity of a single named object ([object TheCompany …]). *)

val compare : t -> t -> int
(** Class name first, then key ([Value.compare]): the order of
    {!Map}, {!Set}, state dumps and the storage index. *)

val equal : t -> t -> bool
(** Physical equality, then the cached hashes, then class and key. *)

val hash : t -> int
(** The cached hash.  [equal a b] implies [hash a = hash b]; identities
    whose keys differ only beyond what [Hashtbl.hash] reads share a
    hash and are told apart by {!equal}. *)

val same_key : t -> t -> bool
(** Do two identities denote aspects of the same underlying object? *)

val to_value : t -> Value.t
(** The identity as a surrogate value, for attributes and event
    arguments. *)

val of_value : Value.t -> t option

val as_class : string -> t -> t
(** The aspect of the same object seen as another class. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by identity: they use the cached hash and
    {!equal}, so a lookup hashes nothing. *)
