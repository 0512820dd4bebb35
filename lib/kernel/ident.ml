(** Object identities (surrogates).

    An identity is a class name paired with a key value built from the
    class's [identification] section — the paper models identities "as
    values of an arbitrary abstract data type".  Aspects of the same
    object (a PERSON and its MANAGER role) share the *key* but carry
    different class names; {!same_key} is the relation that inheritance
    morphisms preserve.

    Every identity carries its hash, computed once from [(cls, key)]
    where it is built, so the object table and other identity-keyed
    tables never re-hash a key, and {!equal} rejects most unequal pairs
    on one int comparison. *)

type t = { cls : string; key : Value.t; hash : int }

(* Hashing the pair gives a {!Tbl} the buckets, and so the iteration
   order, of a polymorphic table keyed by [(cls, key)]: whatever walks
   the object table in its own order (the active-object scheduler does)
   sees the same order under either. *)
let make cls key = { cls; key; hash = Hashtbl.hash (cls, key) }

(** Identity of a single named object (no identification section). *)
let singleton cls = make cls (Value.Tuple [])

let compare a b =
  if a == b then 0
  else
    let c = String.compare a.cls b.cls in
    if c <> 0 then c else Value.compare a.key b.key

let equal a b =
  a == b
  || a.hash = b.hash && String.equal a.cls b.cls && Value.equal a.key b.key

let hash t = t.hash

(** Do two identities denote aspects of the same underlying object? *)
let same_key a b = Value.equal a.key b.key

(** The identity as a value, for use in attributes and event arguments. *)
let to_value { cls; key; _ } = Value.Id (cls, key)

let of_value = function Value.Id (cls, key) -> Some (make cls key) | _ -> None

(** Re-root an identity at another class (the aspect of the same object
    seen through an inheritance morphism). *)
let as_class cls t = make cls t.key

let pp ppf { cls; key; _ } = Format.fprintf ppf "%s(%a)" cls Value.pp key
let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
