(** Newline-delimited JSON framing — see the interface. *)

let max_frame_bytes = 4 * 1024 * 1024

type read = Frame of Json.t | Malformed of string | Eof

let too_long = Printf.sprintf "frame longer than %d bytes" max_frame_bytes

let decode_sub s ~pos ~len =
  (* tolerate CRLF clients *)
  let len = if len > 0 && s.[pos + len - 1] = '\r' then len - 1 else len in
  if len = 0 then None
  else if len > max_frame_bytes then Some (Malformed too_long)
  else
    match Json.of_substring s ~pos ~len with
    | Ok doc -> Some (Frame doc)
    | Error msg -> Some (Malformed msg)

let decode_line line = decode_sub line ~pos:0 ~len:(String.length line)

let rec read ic =
  match input_line ic with
  | exception End_of_file -> Eof
  | line -> ( match decode_line line with None -> read ic | Some r -> r)

let to_line doc = Json.to_string doc ^ "\n"

let add_line buf doc =
  Json.add_to_buffer buf doc;
  Buffer.add_char buf '\n'

let write oc doc =
  output_string oc (to_line doc);
  flush oc
