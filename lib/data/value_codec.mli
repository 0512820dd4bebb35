(** A compact, total, self-delimiting text codec for {!Value.t}, used by
    the persistence layer.  [decode (encode v) = Ok v] for every
    canonical value (property-tested). *)

val encode : Value.t -> string

val encode_buf : Buffer.t -> Value.t -> unit
(** [encode] into an existing buffer — the allocation-free form the
    WAL's commit path streams through. *)

val add_int : Buffer.t -> int -> unit
(** Append an integer's decimal digits without the [string_of_int]
    allocation (shared by the effect-log and WAL framers and the JSON
    printer). *)

val decode : string -> (Value.t, string) result
(** Rejects malformed and trailing input. *)

val decode_at : string -> int -> (Value.t * int, string) result
(** Decode the value that starts at the given position: [Ok (v, next)],
    [next] one past its last byte.  What follows is the caller's — the
    value is read by its length prefixes, so a string in it may hold any
    byte, the record separators of {!Persist} and the effect log
    included. *)
