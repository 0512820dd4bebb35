(** Newline-delimited JSON framing.

    One frame is one JSON document on one line, terminated by ['\n'].
    The stream is self-resynchronising: a malformed line damages only
    its own frame, and the reader simply continues with the next line.
    Frames longer than {!max_frame_bytes} are rejected without being
    parsed (a guard against unbounded buffering on a hostile client). *)

val max_frame_bytes : int
(** 4 MiB. *)

type read = Frame of Json.t | Malformed of string | Eof

val too_long : string
(** ["frame longer than 4194304 bytes"]: the message of a frame (or an
    unterminated tail) past {!max_frame_bytes}. *)

val decode_line : string -> read option
(** Decode one line (without its terminator; a trailing ['\r'] is
    tolerated).  [None] for blank lines. *)

val decode_sub : string -> pos:int -> len:int -> read option
(** {!decode_line} of the line [String.sub s pos len], decoded where it
    lies. *)

val read : in_channel -> read
(** Read the next frame from a channel.  Blank lines are skipped. *)

val write : out_channel -> Json.t -> unit
(** Write one frame and flush.  The document is printed compactly, so it
    never contains a raw newline. *)

val to_line : Json.t -> string
(** The frame as a line, terminator included. *)

val add_line : Buffer.t -> Json.t -> unit
(** Append the frame (terminator included) to a caller buffer, so a
    whole turn's responses encode into one output buffer without
    intermediate strings. *)
