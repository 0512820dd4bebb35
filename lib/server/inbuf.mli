(** Per-connection input buffering — the read half of a {!Conn}
    connection ({!Outbuf} is the write half).

    An [Inbuf.t] is one byte buffer, reused for the life of the
    connection.  A read lands in its free tail; every complete line is
    then decoded where it lies ({!Frame.decode_sub}) and consumed, so a
    read allocates nothing and no wakeup copies the pending input.  The
    unterminated tail — a frame still arriving — stays put and is
    compacted to the front only when the tail runs out of room; a
    newline search never re-scans bytes it has already passed.  The
    buffer grows (by doubling) only to hold a frame or a drained burst,
    and shrinks back once a large one has been consumed. *)

type t

val create : unit -> t

type status =
  | Open  (** the peer may send more *)
  | Eof  (** end of input, or a read error: nothing more will arrive *)
  | Overlong
      (** the unterminated tail is longer than {!Frame.max_frame_bytes}:
          a frame the reader would never accept; see {!Conn}'s
          frame-error rule. *)

val read : t -> Unix.file_descr -> (Frame.read -> unit) -> status
(** Read the (nonblocking) descriptor until a read comes back short, so
    everything the kernel holds is framed in this wakeup (the server's
    decode-ahead), then hand every complete line to the callback in
    order — blank lines are skipped; a trailing ['\r'] is dropped.
    [EAGAIN] ends the read; [EINTR] retries it.  Lines read before an
    end of input are still framed. *)
