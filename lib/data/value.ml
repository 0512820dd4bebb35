(** The value universe.

    Values populate the data types of {!Vtype}.  Collections are kept in
    canonical form — sets are sorted and duplicate-free, maps are sorted
    by key — so that structural equality coincides with semantic equality
    and values can serve as object identities (surrogates) directly, as
    the paper requires ("object identities are modelled as values of an
    arbitrary abstract data type"). *)

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
      (** the unobservable value: attributes before initialisation, failed
          lookups; propagates through strict operations *)

let tag = function
  | Bool _ -> 0 | Int _ -> 1 | String _ -> 2 | Date _ -> 3 | Money _ -> 4
  | Enum _ -> 5 | Id _ -> 6 | Set _ -> 7 | List _ -> 8 | Map _ -> 9
  | Tuple _ -> 10 | Undefined -> 11

(* Physically equal values compare 0 at once.  The shortcut is exact
   because a value holds no float (a NaN is not equal to itself), and it
   is what makes comparing a shared identity or key against itself
   cheap. *)
let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Bool x, Bool y -> Bool.compare x y
    | Int x, Int y -> Int.compare x y
    | String x, String y -> String.compare x y
    | Date x, Date y -> Date_adt.compare x y
    | Money x, Money y -> Money.compare x y
    | Enum (n1, c1), Enum (n2, c2) ->
        let c = String.compare n1 n2 in
        if c <> 0 then c else String.compare c1 c2
    | Id (c1, k1), Id (c2, k2) ->
        let c = String.compare c1 c2 in
        if c <> 0 then c else compare k1 k2
    | Set x, Set y | List x, List y -> compare_list x y
    | Map x, Map y -> compare_pairs x y
    | Tuple x, Tuple y ->
        let cmp (n1, v1) (n2, v2) =
          let c = String.compare n1 n2 in
          if c <> 0 then c else compare v1 v2
        in
        List.compare cmp x y
    | Undefined, Undefined -> 0
    | _ -> Int.compare (tag a) (tag b)

and compare_list x y = List.compare compare x y

and compare_pairs x y =
  let cmp (k1, v1) (k2, v2) =
    let c = compare k1 k2 in
    if c <> 0 then c else compare v1 v2
  in
  List.compare cmp x y

let equal a b = compare a b = 0

(** Canonical set constructor: sorts and removes duplicates. *)
let set elements = Set (List.sort_uniq compare elements)

(** Canonical map constructor: later bindings for the same key win. *)
let map bindings =
  let tbl = List.fold_left (fun acc (k, v) -> (k, v) :: acc) [] bindings in
  let dedup =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
      [] tbl
  in
  Map (List.sort (fun (k1, _) (k2, _) -> compare k1 k2) dedup)

let rec pp ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | String s -> Format.fprintf ppf "%S" s
  | Date d -> Date_adt.pp ppf d
  | Money m -> Money.pp ppf m
  | Enum (_, c) -> Format.pp_print_string ppf c
  | Id (cls, key) -> Format.fprintf ppf "%s(%a)" cls pp key
  | Set vs ->
      Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:comma pp) vs
  | List vs ->
      Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:comma pp) vs
  | Map kvs ->
      let pp_kv ppf (k, v) = Format.fprintf ppf "%a->%a" pp k pp v in
      Format.fprintf ppf "map{%a}"
        (Format.pp_print_list ~pp_sep:comma pp_kv)
        kvs
  | Tuple fields ->
      let pp_f ppf (n, v) = Format.fprintf ppf "%s:%a" n pp v in
      Format.fprintf ppf "tuple(%a)"
        (Format.pp_print_list ~pp_sep:comma pp_f)
        fields
  | Undefined -> Format.pp_print_string ppf "undefined"

and comma ppf () = Format.pp_print_string ppf ", "

let to_string v = Format.asprintf "%a" pp v

(** Dynamic type of a value.  Enumerations report an [Enum] with only the
    constants that are certain (the single literal), so checking uses the
    declared type where available; collections infer the join of their
    element types, defaulting to [Any] when empty. *)
let rec type_of = function
  | Bool _ -> Vtype.Bool
  | Int _ -> Vtype.Int
  | String _ -> Vtype.String
  | Date _ -> Vtype.Date
  | Money _ -> Vtype.Money
  | Enum (name, c) -> Vtype.Enum (name, [ c ])
  | Id (cls, _) -> Vtype.Id cls
  | Set vs -> Vtype.Set (join_types vs)
  | List vs -> Vtype.List (join_types vs)
  | Map kvs ->
      Vtype.Map (join_types (List.map fst kvs), join_types (List.map snd kvs))
  | Tuple fields -> Vtype.Tuple (List.map (fun (n, v) -> (n, type_of v)) fields)
  | Undefined -> Vtype.Any

and join_types vs =
  List.fold_left
    (fun acc v ->
      match Vtype.join acc (type_of v) with Some t -> t | None -> Vtype.Any)
    Vtype.Any vs

let is_undefined = function Undefined -> true | _ -> false

let fits (ty : Vtype.t) v =
  match (ty, v) with
  | _, Undefined
  | Vtype.Bool, Bool _
  | (Vtype.Int | Vtype.Nat), Int _
  | Vtype.String, String _
  | Vtype.Date, Date _
  | Vtype.Money, Money _ ->
      true
  | (Vtype.Bool | Vtype.Int | Vtype.Nat | Vtype.String | Vtype.Date
    | Vtype.Money), _ ->
      false
  | _ -> true

(** Truthiness for permission guards: only [Bool true] is true;
    [Undefined] counts as false (a guard over an unobservable state does
    not license the event). *)
let to_bool_opt = function Bool b -> Some b | _ -> None

let field name = function
  | Tuple fields -> ( match List.assoc_opt name fields with
      | Some v -> v
      | None -> Undefined)
  | _ -> Undefined
