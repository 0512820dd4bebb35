(** Minimal JSON: the tree, a strict parser and a compact printer.

    Self-contained (the build image carries no JSON package) and small
    on purpose: just what the newline-delimited wire protocol needs.
    Numbers parse to [Int] when they are exact OCaml integers and to
    [Float] otherwise; printing never emits raw newlines, so one
    document always fits one frame. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line, valid UTF-8 pass-through with the mandatory
    escapes. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Print the document (compactly, as {!to_string}) into a caller
    buffer — the allocation-free half of batched frame encoding. *)

val of_string : string -> (t, string) result
(** Strict parse of one document; rejects trailing garbage.  The scanner
    indexes the source in place: a string without escapes costs one
    copy, an integer of up to 18 digits none.  Error messages are part
    of the wire contract (they reach clients in [bad_request] frames). *)

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** [of_string (String.sub s pos len)] without the copy — how
    {!Inbuf} decodes a frame where it lies in the read buffer.  The
    result shares no bytes with [s]. *)

val equal : t -> t -> bool

(** {1 Accessors} — total, for decoding requests *)

val member : string -> t -> t
(** Field of an object (the first, if the key repeats); [Null] when
    absent or not an object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_list : t -> t list
(** The elements of a [List]; [[]] otherwise. *)
