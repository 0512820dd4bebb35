(** Minimal JSON — see the interface for the contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Runs of bytes that need no escape are copied whole, so a typical key
   or value string is a single blit. *)
let rec escape_run buf s run i =
  if i = String.length s then Buffer.add_substring buf s run (i - run)
  else if needs_escape (String.unsafe_get s i) then begin
    Buffer.add_substring buf s run (i - run);
    add_escaped buf (String.unsafe_get s i);
    escape_run buf s (i + 1) (i + 1)
  end
  else escape_run buf s run (i + 1)

let escape_into buf s =
  Buffer.add_char buf '"';
  escape_run buf s 0 0;
  Buffer.add_char buf '"'

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Value_codec.add_int buf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape_into buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (v :: rest) ->
      Buffer.add_char buf '[';
      print_into buf v;
      print_items buf rest;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: rest) ->
      Buffer.add_char buf '{';
      print_field buf field;
      print_fields buf rest;
      Buffer.add_char buf '}'

and print_items buf = function
  | [] -> ()
  | v :: rest ->
      Buffer.add_char buf ',';
      print_into buf v;
      print_items buf rest

and print_field buf (k, v) =
  escape_into buf k;
  Buffer.add_char buf ':';
  print_into buf v

and print_fields buf = function
  | [] -> ()
  | field :: rest ->
      Buffer.add_char buf ',';
      print_field buf field;
      print_fields buf rest

let add_to_buffer buf v = print_into buf v

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

(* The scanner indexes the source directly: [pos] is the next byte and
   [stop] is one past the document's last, so a document can be parsed
   where it lies inside a larger buffer. *)
type cursor = { src : string; mutable pos : int; stop : int }

let at cur c = cur.pos < cur.stop && String.unsafe_get cur.src cur.pos = c

let skip_ws cur =
  while
    cur.pos < cur.stop
    &&
    match String.unsafe_get cur.src cur.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur ch =
  if cur.pos >= cur.stop then
    raise (Bad (Printf.sprintf "expected '%c', found end of input" ch))
  else
    let c = String.unsafe_get cur.src cur.pos in
    if c = ch then cur.pos <- cur.pos + 1
    else raise (Bad (Printf.sprintf "expected '%c', found '%c'" ch c))

let rec same_bytes src pos word i =
  i = String.length word
  || (src.[pos + i] = word.[i] && same_bytes src pos word (i + 1))

let parse_keyword cur word value =
  if
    cur.pos + String.length word <= cur.stop
    && same_bytes cur.src cur.pos word 0
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else raise (Bad (Printf.sprintf "invalid literal (expected %s)" word))

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* Four bytes read as [int_of_string ("0x" ^ them)] reads them: a hex
   digit, then hex digits or '_' separators (which it skips). *)
let parse_hex4 cur =
  if cur.pos + 4 > cur.stop then raise (Bad "truncated \\u escape");
  let p = cur.pos in
  cur.pos <- p + 4;
  let malformed () = raise (Bad "malformed \\u escape") in
  let rec go acc i =
    if i = p + 4 then acc
    else
      match cur.src.[i] with
      | '_' -> go acc (i + 1)
      | c ->
          let d = hex_digit c in
          if d < 0 then malformed () else go ((acc * 16) + d) (i + 1)
  in
  let d0 = hex_digit cur.src.[p] in
  if d0 < 0 then malformed () else go d0 (p + 1)

(* encode a Unicode scalar value as UTF-8 *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

(* The end of the literal run starting at [i]: the index of the first
   '"' or '\\'. *)
let rec literal_run cur i =
  if i >= cur.stop then raise (Bad "unterminated string")
  else
    match String.unsafe_get cur.src i with
    | '"' | '\\' -> i
    | c when Char.code c < 0x20 -> raise (Bad "control byte in string")
    | _ -> literal_run cur (i + 1)

(* one escape sequence, its backslash already consumed *)
let add_escape cur buf =
  if cur.pos >= cur.stop then raise (Bad "unterminated escape");
  let c = cur.src.[cur.pos] in
  cur.pos <- cur.pos + 1;
  match c with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'u' ->
      let u = parse_hex4 cur in
      (* surrogate pair *)
      if u >= 0xd800 && u <= 0xdbff then begin
        expect cur '\\';
        expect cur 'u';
        let lo = parse_hex4 cur in
        if lo < 0xdc00 || lo > 0xdfff then raise (Bad "invalid surrogate pair");
        add_utf8 buf (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
      end
      else add_utf8 buf u
  | c -> raise (Bad (Printf.sprintf "invalid escape '\\%c'" c))

(* After the opening quote.  A string without escapes is one
   [String.sub]; only one with escapes goes through a buffer. *)
let parse_string_body cur =
  let first = cur.pos in
  let i = literal_run cur first in
  if cur.src.[i] = '"' then begin
    cur.pos <- i + 1;
    String.sub cur.src first (i - first)
  end
  else begin
    let buf = Buffer.create (i - first + 16) in
    Buffer.add_substring buf cur.src first (i - first);
    let rec escapes i =
      (* [cur.src.[i]] is a backslash *)
      cur.pos <- i + 1;
      add_escape cur buf;
      let j = literal_run cur cur.pos in
      Buffer.add_substring buf cur.src cur.pos (j - cur.pos);
      if cur.src.[j] = '"' then cur.pos <- j + 1 else escapes j
    in
    escapes i;
    Buffer.contents buf
  end

(* Anything but a plain integer of at most 18 digits: the number's
   extent is every following byte that can occur in a number, read by
   [int_of_string] or, failing that, [float_of_string]. *)
let parse_number_text cur start =
  cur.pos <- start;
  let is_float = ref false in
  while
    cur.pos < cur.stop
    &&
    match String.unsafe_get cur.src cur.pos with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        is_float := true;
        true
    | _ -> false
  do
    cur.pos <- cur.pos + 1
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> raise (Bad (Printf.sprintf "malformed number %S" text))
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* integer literal beyond OCaml's int range *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> raise (Bad (Printf.sprintf "malformed number %S" text)))

(* A plain integer folds its digits straight into an [Int]: [first] is
   its first digit, [i] the next byte; 18 digits cannot overflow. *)
let rec parse_digits cur start first i acc =
  if i < cur.stop then
    match String.unsafe_get cur.src i with
    | '0' .. '9' as c ->
        parse_digits cur start first (i + 1) ((acc * 10) + Char.code c - 48)
    | '-' | '+' | '.' | 'e' | 'E' -> parse_number_text cur start
    | _ -> int_literal cur start first i acc
  else int_literal cur start first i acc

and int_literal cur start first i acc =
  if i = first || i - first > 18 then parse_number_text cur start
  else begin
    cur.pos <- i;
    Int (if first > start then -acc else acc)
  end

let parse_number cur =
  let start = cur.pos in
  let first = if cur.src.[start] = '-' then start + 1 else start in
  parse_digits cur start first first 0

let rec parse_value cur =
  skip_ws cur;
  if cur.pos >= cur.stop then raise (Bad "empty input");
  match String.unsafe_get cur.src cur.pos with
  | 'n' -> parse_keyword cur "null" Null
  | 't' -> parse_keyword cur "true" (Bool true)
  | 'f' -> parse_keyword cur "false" (Bool false)
  | '"' ->
      cur.pos <- cur.pos + 1;
      String (parse_string_body cur)
  | '-' | '0' .. '9' -> parse_number cur
  | '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else List (parse_items cur)
  | '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else Obj (parse_fields cur)
  | c -> raise (Bad (Printf.sprintf "unexpected character '%c'" c))

and parse_items cur =
  let v = parse_value cur in
  skip_ws cur;
  if at cur ',' then begin
    cur.pos <- cur.pos + 1;
    v :: parse_items cur
  end
  else begin
    expect cur ']';
    [ v ]
  end

and parse_fields cur =
  skip_ws cur;
  expect cur '"';
  let k = parse_string_body cur in
  skip_ws cur;
  expect cur ':';
  let field = (k, parse_value cur) in
  skip_ws cur;
  if at cur ',' then begin
    cur.pos <- cur.pos + 1;
    field :: parse_fields cur
  end
  else begin
    expect cur '}';
    [ field ]
  end

let of_substring s ~pos ~len =
  let cur = { src = s; pos; stop = pos + len } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos < cur.stop then Error "trailing garbage after document"
      else Ok v
  | exception Bad msg -> Error msg

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | String x, String y -> String.equal x y
  | List x, List y ->
      List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let rec assoc key = function
  | [] -> Null
  | (k, v) :: rest -> if String.equal k key then v else assoc key rest

let member key = function Obj fields -> assoc key fields | _ -> Null

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_list = function List l -> l | _ -> []
