(** A compact, total, self-delimiting text codec for {!Value.t}, used by
    the persistence layer.  The encoding is prefix-based:

    {v
      B0 B1          booleans          U        undefined
      I<n>;          integer           D<n>;    date (days)
      M<n>;          money (cents)     S<k>:…   string of k bytes
      E<k>:…<k>:…    enum (name, constant)
      J<k>:…<v>      surrogate (class name, key value)
      *<n>[v…]       set               L<n>[v…]  list
      P<n>[k v …]    map               T<n>[<k>:name v …]  tuple
    v}

    [decode (encode v) = Ok v] for every canonical value (checked by a
    qcheck property). *)

(* Direct buffer writes throughout — this codec sits on the WAL's
   commit path (one call per touched attribute), where [Printf]'s
   format interpretation dominated the encoding cost (E16). *)

(* [string_of_int] allocates a fresh string per call; writing the
   digits directly is measurable with dozens of integers per record. *)
let rec add_pos buf n =
  if n >= 10 then add_pos buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n) (* min_int-safe *)
  else add_pos buf n

let add_tagged_int buf tag n =
  Buffer.add_char buf tag;
  add_int buf n;
  Buffer.add_char buf ';'

let add_counted buf s =
  add_int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_sized buf tag n =
  Buffer.add_char buf tag;
  add_int buf n;
  Buffer.add_char buf '['

let rec encode_buf buf (v : Value.t) =
  match v with
  | Value.Bool false -> Buffer.add_string buf "B0"
  | Value.Bool true -> Buffer.add_string buf "B1"
  | Value.Int i -> add_tagged_int buf 'I' i
  | Value.Date d -> add_tagged_int buf 'D' d
  | Value.Money m -> add_tagged_int buf 'M' m
  | Value.String s ->
      Buffer.add_char buf 'S';
      add_counted buf s
  | Value.Enum (name, c) ->
      Buffer.add_char buf 'E';
      add_counted buf name;
      add_counted buf c
  | Value.Id (cls, key) ->
      Buffer.add_char buf 'J';
      add_counted buf cls;
      encode_buf buf key
  | Value.Set xs ->
      add_sized buf '*' (List.length xs);
      List.iter (encode_buf buf) xs;
      Buffer.add_char buf ']'
  | Value.List xs ->
      add_sized buf 'L' (List.length xs);
      List.iter (encode_buf buf) xs;
      Buffer.add_char buf ']'
  | Value.Map kvs ->
      add_sized buf 'P' (List.length kvs);
      List.iter
        (fun (k, v) ->
          encode_buf buf k;
          encode_buf buf v)
        kvs;
      Buffer.add_char buf ']'
  | Value.Tuple fields ->
      add_sized buf 'T' (List.length fields);
      List.iter
        (fun (n, v) ->
          add_counted buf n;
          encode_buf buf v)
        fields;
      Buffer.add_char buf ']'
  | Value.Undefined -> Buffer.add_char buf 'U'

let encode (v : Value.t) : string =
  let buf = Buffer.create 64 in
  encode_buf buf v;
  Buffer.contents buf

exception Bad of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> raise (Bad "unexpected end of input")

let expect c ch =
  let got = next c in
  if got <> ch then raise (Bad (Printf.sprintf "expected %c, got %c" ch got))

(* read digits (optionally signed) up to a terminator character, which is
   consumed *)
let read_int_until c term =
  let start = c.pos in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  while match peek c with Some ('0' .. '9') -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  let n =
    try int_of_string (String.sub c.s start (c.pos - start))
    with _ -> raise (Bad "malformed integer")
  in
  expect c term;
  n

let read_sized_string c =
  let k = read_int_until c ':' in
  if c.pos + k > String.length c.s then raise (Bad "truncated string");
  let s = String.sub c.s c.pos k in
  c.pos <- c.pos + k;
  s

let rec decode_cursor c : Value.t =
  match next c with
  | 'B' -> (
      match next c with
      | '0' -> Value.Bool false
      | '1' -> Value.Bool true
      | ch -> raise (Bad (Printf.sprintf "bad boolean %c" ch)))
  | 'I' -> Value.Int (read_int_until c ';')
  | 'D' -> Value.Date (read_int_until c ';')
  | 'M' -> Value.Money (read_int_until c ';')
  | 'S' -> Value.String (read_sized_string c)
  | 'E' ->
      let name = read_sized_string c in
      let const = read_sized_string c in
      Value.Enum (name, const)
  | 'J' ->
      let cls = read_sized_string c in
      Value.Id (cls, decode_cursor c)
  | '*' ->
      let n = read_int_until c '[' in
      let xs = List.init n (fun _ -> decode_cursor c) in
      expect c ']';
      Value.set xs
  | 'L' ->
      let n = read_int_until c '[' in
      let xs = List.init n (fun _ -> decode_cursor c) in
      expect c ']';
      Value.List xs
  | 'P' ->
      let n = read_int_until c '[' in
      let kvs =
        List.init n (fun _ ->
            let k = decode_cursor c in
            let v = decode_cursor c in
            (k, v))
      in
      expect c ']';
      Value.map kvs
  | 'T' ->
      let n = read_int_until c '[' in
      let fields =
        List.init n (fun _ ->
            let name = read_sized_string c in
            (name, decode_cursor c))
      in
      expect c ']';
      Value.Tuple fields
  | 'U' -> Value.Undefined
  | ch -> raise (Bad (Printf.sprintf "unknown tag %c" ch))

let decode (s : string) : (Value.t, string) result =
  let c = { s; pos = 0 } in
  match decode_cursor c with
  | v ->
      if c.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing input at %d" c.pos)
  | exception Bad m -> Error m

let decode_at (s : string) pos : (Value.t * int, string) result =
  let c = { s; pos } in
  match decode_cursor c with v -> Ok (v, c.pos) | exception Bad m -> Error m
