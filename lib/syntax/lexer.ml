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

(* The lexer reads the source by index and cuts each token's text out
   of it once: peeking allocates nothing, and neither does scanning a
   number, a comment or an escape-free string. *)
type state = {
  src : string;
  len : int;
  mutable off : int;
  mutable line : int;
  mutable col : int;
}

let make src = { src; len = String.length src; off = 0; line = 1; col = 1 }
let at_end st = st.off >= st.len

(* The character [k] places ahead, or ['\000'] past the end.  Only a
   test for a specific character (never NUL) or class may rely on the
   filler; wherever "any character" and "end of input" differ, the
   caller asks {!at_end} first. *)
let peek_at st k =
  let i = st.off + k in
  if i < st.len then String.unsafe_get st.src i else '\000'

let advance st =
  if st.off < st.len then begin
    if String.unsafe_get st.src st.off = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1
  end;
  st.off <- st.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_'

let rec to_eol st =
  if not (at_end st || peek_at st 0 = '\n') then begin
    advance st;
    to_eol st
  end

(* Inside [depth] nested block comments, the outermost opened at
   [line]:[col]. *)
let rec skip_comment st ~line ~col depth =
  if at_end st then error ~line ~col "unterminated comment"
  else
    match (peek_at st 0, peek_at st 1) with
    | '*', ')' ->
        advance st;
        advance st;
        if depth > 1 then skip_comment st ~line ~col (depth - 1)
    | '(', '*' ->
        advance st;
        advance st;
        skip_comment st ~line ~col (depth + 1)
    | _ ->
        advance st;
        skip_comment st ~line ~col depth

let rec skip_ws st =
  match peek_at st 0 with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_ws st
  | '-' when peek_at st 1 = '-' ->
      to_eol st;
      skip_ws st
  | '(' when peek_at st 1 = '*' ->
      let line = st.line and col = st.col in
      advance st;
      advance st;
      skip_comment st ~line ~col 1;
      skip_ws st
  | _ -> ()

(* The rest of a string literal opened at [line]:[col], once an escape
   has made it differ from its source text. *)
let rec lex_escaped st buf ~line ~col =
  if at_end st then error ~line ~col "unterminated string"
  else
    match peek_at st 0 with
    | '"' ->
        advance st;
        Buffer.contents buf
    | '\\' ->
        advance st;
        if at_end st then error ~line ~col "unterminated string";
        (match peek_at st 0 with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | ('"' | '\\') as c -> Buffer.add_char buf c
        | c -> error ~line:st.line ~col:st.col "invalid escape \\%c" c);
        advance st;
        lex_escaped st buf ~line ~col
    | c ->
        Buffer.add_char buf c;
        advance st;
        lex_escaped st buf ~line ~col

let lex_string st =
  (* opening quote already seen *)
  let line = st.line and col = st.col - 1 in
  let start = st.off in
  let rec plain () =
    if at_end st then error ~line ~col "unterminated string"
    else
      match peek_at st 0 with
      | '"' ->
          let s = String.sub st.src start (st.off - start) in
          advance st;
          s
      | '\\' ->
          let buf = Buffer.create (st.off - start + 16) in
          Buffer.add_substring buf st.src start (st.off - start);
          lex_escaped st buf ~line ~col
      | _ ->
          advance st;
          plain ()
  in
  plain ()

(* The value of the decimal digits [src.[i .. j - 1]], or [-1] past
   [max_int]. *)
let digits_value src i j =
  let rec go acc i =
    if i >= j then acc
    else
      let d = Char.code src.[i] - Char.code '0' in
      if acc > (max_int - d) / 10 then -1 else go ((acc * 10) + d) (i + 1)
  in
  go 0 i

(* [a * m + b] for non-negative operands, or [-1] when [a] is [-1] or
   the result would wrap *)
let scale a m b = if a < 0 || a > (max_int - b) / m then -1 else (a * m) + b

let lex_number st =
  let start = st.off and line = st.line and col = st.col in
  let checked n =
    if n >= 0 then n
    else
      error ~line ~col "numeric literal %s is out of range"
        (String.sub st.src start (st.off - start))
  in
  while is_digit (peek_at st 0) do
    advance st
  done;
  let units = digits_value st.src start st.off in
  (* A '.' followed by a digit makes it a money literal; a '.' followed
     by anything else (field selection, end of sentence) stays with the
     integer. *)
  if peek_at st 0 = '.' && is_digit (peek_at st 1) then begin
    advance st;
    let fstart = st.off in
    while is_digit (peek_at st 0) do
      advance st
    done;
    let frac = digits_value st.src fstart st.off in
    let cents =
      match st.off - fstart with
      | 1 -> scale units 100 (frac * 10)
      | 2 -> scale units 100 frac
      | 3 ->
          (* thousands grouping, e.g. the paper's [5.000] *)
          scale (scale units 1000 frac) 100 0
      | n ->
          error ~line:st.line ~col:st.col
            "money literal with %d fraction digits (use 1-3)" n
    in
    Token.MONEY (checked cents)
  end
  else Token.INT (checked units)

let lex_ident_or_keyword st =
  let start = st.off in
  while is_ident_char (peek_at st 0) do
    advance st
  done;
  let len = st.off - start in
  (* Date literal [d"…"] *)
  if len = 1 && st.src.[start] = 'd' && peek_at st 0 = '"' then begin
    advance st;
    let s = lex_string st in
    match Date_adt.of_string s with
    | Some d -> Token.DATE d
    | None -> error ~line:st.line ~col:st.col "invalid date literal %S" s
  end
  else
    let word = String.sub st.src start len in
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

let finish st start_pos tok =
  { tok; loc = Loc.make start_pos { Loc.line = st.line; col = st.col } }

let next_token st : lexeme =
  skip_ws st;
  let start_pos = { Loc.line = st.line; col = st.col } in
  if at_end st then finish st start_pos Token.EOF
  else
    match peek_at st 0 with
    | '(' ->
        advance st;
        finish st start_pos Token.LPAREN
    | ')' ->
        advance st;
        finish st start_pos Token.RPAREN
    | '{' ->
        advance st;
        finish st start_pos Token.LBRACE
    | '}' ->
        advance st;
        finish st start_pos Token.RBRACE
    | '[' ->
        advance st;
        finish st start_pos Token.LBRACKET
    | ']' ->
        advance st;
        finish st start_pos Token.RBRACKET
    | '|' ->
        advance st;
        finish st start_pos Token.BAR
    | ',' ->
        advance st;
        finish st start_pos Token.COMMA
    | ';' ->
        advance st;
        finish st start_pos Token.SEMI
    | ':' ->
        advance st;
        finish st start_pos Token.COLON
    | '.' ->
        advance st;
        finish st start_pos Token.DOT
    | '=' ->
        advance st;
        if peek_at st 0 = '>' then (
          advance st;
          finish st start_pos Token.ARROW)
        else finish st start_pos Token.EQ
    | '<' -> (
        advance st;
        match peek_at st 0 with
        | '>' ->
            advance st;
            finish st start_pos Token.NEQ
        | '=' ->
            advance st;
            finish st start_pos Token.LE
        | '-' ->
            advance st;
            finish st start_pos Token.BORNBY
        | _ -> finish st start_pos Token.LT)
    | '>' -> (
        advance st;
        match peek_at st 0 with
        | '=' ->
            advance st;
            finish st start_pos Token.GE
        | '>' ->
            advance st;
            finish st start_pos Token.CALLS
        | _ -> finish st start_pos Token.GT)
    | '+' ->
        advance st;
        if peek_at st 0 = '+' then (
          advance st;
          finish st start_pos Token.CONCAT)
        else finish st start_pos Token.PLUS
    | '-' ->
        advance st;
        finish st start_pos Token.MINUS
    | '*' ->
        advance st;
        finish st start_pos Token.STAR
    | '"' ->
        advance st;
        finish st start_pos (Token.STRING (lex_string st))
    | c when is_digit c -> finish st start_pos (lex_number st)
    | c when is_alpha c || c = '_' ->
        finish st start_pos (lex_ident_or_keyword st)
    | c -> (
        match try_unicode st with
        | Some tok -> finish st start_pos tok
        | None ->
            error ~line:st.line ~col:st.col "unexpected character %C" c)

(** Tokenize a whole source string. *)
let tokenize src =
  let st = make src in
  let rec go acc =
    let lx = next_token st in
    match lx.tok with
    | Token.EOF -> List.rev (lx :: acc)
    | _ -> go (lx :: acc)
  in
  go []
