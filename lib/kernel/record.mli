(** A cursor over the records of {!Persist} dumps and {!Effect_log}
    payloads: one record per line, its fields separated by ['|'].  A raw
    field (a tag, a name, a number, a bit vector) holds neither ['|'] nor
    a newline.  A value field is a {!Value_codec} encoding and is read by
    its length prefixes, so a string value may hold both: a reader asks
    for a record's fields in order, and for a value field by its kind. *)

type t

exception Malformed
(** The record does not have the shape asked for. *)

exception Bad_value of string
(** A value field does not decode; the codec's message. *)

val create : string -> t

val next : t -> bool
(** Start the next record, skipping blank lines; [false] at the end of
    the input. *)

val line : t -> string
(** The current record's first line, for error messages. *)

val tag : t -> string
(** The record's first field. *)

val field : t -> string
(** The next raw field. *)

val value : t -> Value.t
(** The next field, a value. *)

val rest : t -> string list
(** The record's remaining fields, all raw; the record ends there. *)
