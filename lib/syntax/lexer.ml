(** Hand-written lexer for TROLL.

    Lexical conventions (reconstructed from the paper's fragments, with
    the deviations documented in README §Grammar):

    - comments: [-- to end of line] and nested [(* … *)];
    - keywords are case-insensitive ([IDENTIFICATION] ≡ [identification]);
      identifiers keep their case;
    - money literals are decimal numbers: [12.50] is twelve units fifty
      cents, and the paper's German-style thousands grouping [5.000] (three
      fraction digits) is read as five thousand whole units;
    - date literals are written [d"1991-03-21"];
    - the Unicode symbols [⇒], [≥], [≤], [≠] are accepted for [=>], [>=],
      [<=], [<>]. *)

type error = { message : string; pos : Loc.pos }

exception Error of error

let error ~line ~col fmt =
  Format.kasprintf
    (fun message -> raise (Error { message; pos = { Loc.line; col } }))
    fmt

type lexeme = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
}

let make src = { src; off = 0; line = 1; col = 1 }

let peek_char st =
  if st.off < String.length st.src then Some st.src.[st.off] else None

let peek2 st =
  if st.off + 1 < String.length st.src then Some st.src.[st.off + 1] else None

let advance st =
  (match peek_char st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.off <- st.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_'

let rec skip_ws st =
  match peek_char st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | Some '-' when peek2 st = Some '-' ->
      let rec to_eol () =
        match peek_char st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_ws st
  | Some '(' when peek2 st = Some '*' ->
      let start_line = st.line and start_col = st.col in
      advance st;
      advance st;
      let rec skip_comment depth =
        match (peek_char st, peek2 st) with
        | Some '*', Some ')' ->
            advance st;
            advance st;
            if depth > 1 then skip_comment (depth - 1)
        | Some '(', Some '*' ->
            advance st;
            advance st;
            skip_comment (depth + 1)
        | Some _, _ ->
            advance st;
            skip_comment depth
        | None, _ ->
            error ~line:start_line ~col:start_col "unterminated comment"
      in
      skip_comment 1;
      skip_ws st
  | _ -> ()

let lex_string st =
  (* opening quote already seen *)
  let start_line = st.line and start_col = st.col - 1 in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek_char st with
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance st;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance st;
            go ()
        | Some (('"' | '\\') as c) ->
            Buffer.add_char buf c;
            advance st;
            go ()
        | Some c ->
            error ~line:st.line ~col:st.col "invalid escape \\%c" c
        | None ->
            error ~line:start_line ~col:start_col "unterminated string")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
    | None -> error ~line:start_line ~col:start_col "unterminated string"
  in
  go ()

let lex_number st =
  let start = st.off and line = st.line and col = st.col in
  let too_large () =
    error ~line ~col "numeric literal %s is out of range"
      (String.sub st.src start (st.off - start))
  in
  (* [a * m + b] for non-negative operands, refusing to wrap *)
  let scale a m b = if a > (max_int - b) / m then too_large () else (a * m) + b in
  while (match peek_char st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let int_part = String.sub st.src start (st.off - start) in
  let units () =
    match int_of_string_opt int_part with Some n -> n | None -> too_large ()
  in
  (* A '.' followed by a digit makes it a money literal; a '.' followed
     by anything else (field selection, end of sentence) stays with the
     integer. *)
  match (peek_char st, peek2 st) with
  | Some '.', Some c when is_digit c ->
      advance st;
      let fstart = st.off in
      while (match peek_char st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      let frac = String.sub st.src fstart (st.off - fstart) in
      let cents =
        match String.length frac with
        | 1 -> scale (units ()) 100 (int_of_string frac * 10)
        | 2 -> scale (units ()) 100 (int_of_string frac)
        | 3 ->
            (* thousands grouping, e.g. the paper's [5.000] *)
            scale (scale (units ()) 1000 (int_of_string frac)) 100 0
        | n ->
            error ~line:st.line ~col:st.col
              "money literal with %d fraction digits (use 1-3)" n
      in
      Token.MONEY cents
  | _ -> Token.INT (units ())

let lex_ident_or_keyword st =
  let start = st.off in
  while
    match peek_char st with Some c -> is_ident_char c | None -> false
  do
    advance st
  done;
  let word = String.sub st.src start (st.off - start) in
  (* Date literal [d"…"] *)
  if String.equal word "d" && peek_char st = Some '"' then begin
    advance st;
    let s = lex_string st in
    match Date_adt.of_string s with
    | Some d -> Token.DATE d
    | None -> error ~line:st.line ~col:st.col "invalid date literal %S" s
  end
  else
    match Token.keyword word with
    | Some kw -> Token.KW kw
    | None -> Token.IDENT word

(* Unicode operators the paper typesets: ⇒ (E2 87 92), ≥ (E2 89 A5),
   ≤ (E2 89 A4), ≠ (E2 89 A0). *)
let try_unicode st =
  let s = st.src and i = st.off in
  if i + 2 < String.length s && Char.code s.[i] = 0xE2 then begin
    let b1 = Char.code s.[i + 1] and b2 = Char.code s.[i + 2] in
    let tok =
      match (b1, b2) with
      | 0x87, 0x92 -> Some Token.ARROW
      | 0x89, 0xA5 -> Some Token.GE
      | 0x89, 0xA4 -> Some Token.LE
      | 0x89, 0xA0 -> Some Token.NEQ
      | _ -> None
    in
    match tok with
    | Some t ->
        advance st;
        advance st;
        advance st;
        Some t
    | None -> None
  end
  else None

let next_token st : lexeme =
  skip_ws st;
  let start_pos = { Loc.line = st.line; col = st.col } in
  let finish tok =
    { tok; loc = Loc.make start_pos { Loc.line = st.line; col = st.col } }
  in
  match peek_char st with
  | None -> finish Token.EOF
  | Some c -> (
      match c with
      | '(' ->
          advance st;
          finish Token.LPAREN
      | ')' ->
          advance st;
          finish Token.RPAREN
      | '{' ->
          advance st;
          finish Token.LBRACE
      | '}' ->
          advance st;
          finish Token.RBRACE
      | '[' ->
          advance st;
          finish Token.LBRACKET
      | ']' ->
          advance st;
          finish Token.RBRACKET
      | '|' ->
          advance st;
          finish Token.BAR
      | ',' ->
          advance st;
          finish Token.COMMA
      | ';' ->
          advance st;
          finish Token.SEMI
      | ':' ->
          advance st;
          finish Token.COLON
      | '.' ->
          advance st;
          finish Token.DOT
      | '=' ->
          advance st;
          if peek_char st = Some '>' then (
            advance st;
            finish Token.ARROW)
          else finish Token.EQ
      | '<' -> (
          advance st;
          match peek_char st with
          | Some '>' ->
              advance st;
              finish Token.NEQ
          | Some '=' ->
              advance st;
              finish Token.LE
          | Some '-' ->
              advance st;
              finish Token.BORNBY
          | _ -> finish Token.LT)
      | '>' -> (
          advance st;
          match peek_char st with
          | Some '=' ->
              advance st;
              finish Token.GE
          | Some '>' ->
              advance st;
              finish Token.CALLS
          | _ -> finish Token.GT)
      | '+' ->
          advance st;
          if peek_char st = Some '+' then (
            advance st;
            finish Token.CONCAT)
          else finish Token.PLUS
      | '-' ->
          advance st;
          finish Token.MINUS
      | '*' ->
          advance st;
          finish Token.STAR
      | '"' ->
          advance st;
          finish (Token.STRING (lex_string st))
      | c when is_digit c -> finish (lex_number st)
      | c when is_alpha c || c = '_' -> finish (lex_ident_or_keyword st)
      | c -> (
          match try_unicode st with
          | Some tok -> finish tok
          | None ->
              error ~line:st.line ~col:st.col "unexpected character %C" c))

(** Tokenize a whole source string. *)
let tokenize src =
  let st = make src in
  let rec go acc =
    let lx = next_token st in
    if Token.equal lx.tok Token.EOF then List.rev (lx :: acc)
    else go (lx :: acc)
  in
  go []
