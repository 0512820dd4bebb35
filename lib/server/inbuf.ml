(** Per-connection input buffering — see the interface for the contract. *)

type t = {
  mutable data : Bytes.t;
  mutable start : int;  (** first unconsumed byte *)
  mutable len : int;  (** unconsumed byte count *)
  mutable scanned : int;
      (** leading unconsumed bytes already known to hold no newline *)
}

type status = Open | Eof | Overlong

let initial_capacity = 16 * 1024

(* the least free space a read is offered *)
let min_room = 4 * 1024

(* Once consumed, a buffer that ballooned past this (a long frame, a
   drained burst) is reallocated small again. *)
let shrink_above = 256 * 1024

let create () =
  { data = Bytes.create initial_capacity; start = 0; len = 0; scanned = 0 }

(* At least [min_room] free bytes after the unconsumed ones: rewind an
   empty buffer, compact a partial frame to the front, and grow only if
   that is still short. *)
let make_room t =
  if t.len = 0 then begin
    t.start <- 0;
    if Bytes.length t.data > shrink_above then
      t.data <- Bytes.create initial_capacity
  end;
  let cap = Bytes.length t.data in
  if cap - (t.start + t.len) < min_room then begin
    if t.start > 0 then begin
      Bytes.blit t.data t.start t.data 0 t.len;
      t.start <- 0
    end;
    if cap - t.len < min_room then begin
      let data = Bytes.create (max (2 * cap) (t.len + min_room)) in
      Bytes.blit t.data 0 data 0 t.len;
      t.data <- data
    end
  end

(* Read until a read comes back short; [false] at end of input or on a
   read error. *)
let rec fill t fd =
  make_room t;
  let off = t.start + t.len in
  let room = Bytes.length t.data - off in
  match Unix.read fd t.data off room with
  | 0 -> false
  | n ->
      t.len <- t.len + n;
      if n = room then fill t fd else true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill t fd
  | exception Unix.Unix_error (_, _, _) -> false

let rec newline data i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get data i = '\n' then i
  else newline data (i + 1) stop

(* The line is consumed before the callback runs, so the buffer is
   consistent whatever the callback does. *)
let rec frames t on_frame =
  let nl = newline t.data (t.start + t.scanned) (t.start + t.len) in
  if nl < 0 then t.scanned <- t.len
  else begin
    let pos = t.start in
    t.start <- nl + 1;
    t.len <- t.len - (nl + 1 - pos);
    t.scanned <- 0;
    (match
       Frame.decode_sub (Bytes.unsafe_to_string t.data) ~pos ~len:(nl - pos)
     with
    | None -> ()
    | Some r -> on_frame r);
    frames t on_frame
  end

let read t fd on_frame =
  let open_ = fill t fd in
  frames t on_frame;
  if t.len > Frame.max_frame_bytes then Overlong
  else if open_ then Open
  else Eof
