(** Record cursor — see the interface. *)

type t = {
  src : string;
  mutable pos : int;
  mutable start : int;  (** the current record's first byte *)
}

exception Malformed
exception Bad_value of string

let create src = { src; pos = 0; start = 0 }
let at r c = r.pos < String.length r.src && r.src.[r.pos] = c

let next r =
  while at r '\n' do
    r.pos <- r.pos + 1
  done;
  r.start <- r.pos;
  r.pos < String.length r.src

let line r =
  let stop =
    match String.index_from_opt r.src r.start '\n' with
    | Some e -> e
    | None -> String.length r.src
  in
  String.sub r.src r.start (stop - r.start)

let tag r =
  let first = r.pos in
  while r.pos < String.length r.src && not (at r '|' || at r '\n') do
    r.pos <- r.pos + 1
  done;
  String.sub r.src first (r.pos - first)

let bar r = if at r '|' then r.pos <- r.pos + 1 else raise Malformed

let field r =
  bar r;
  tag r

let value r =
  bar r;
  match Value_codec.decode_at r.src r.pos with
  | Ok (v, next) ->
      r.pos <- next;
      v
  | Error m -> raise (Bad_value m)

let rec rest r =
  if at r '|' then
    let f = field r in
    f :: rest r
  else if at r '\n' then begin
    r.pos <- r.pos + 1;
    []
  end
  else if r.pos < String.length r.src then raise Malformed
  else []
