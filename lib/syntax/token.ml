(** Tokens of the TROLL concrete syntax. *)

type t =
  | IDENT of string  (** identifiers, including class names *)
  | INT of int
  | MONEY of int  (** cents *)
  | STRING of string
  | DATE of int  (** days since epoch, lexed from [d"YYYY-MM-DD"] *)
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | BAR  (** [|] — identity types *)
  | COMMA
  | SEMI
  | COLON
  | DOT
  | EQ
  | NEQ  (** [<>] *)
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | CONCAT  (** [++] *)
  | ARROW  (** [=>] or [⇒]: implication / guarded rule *)
  | CALLS  (** [>>]: event calling *)
  | BORNBY  (** [<-]: phase birth by base event *)
  (* keywords *)
  | KW of string
      (** lower-cased keyword: [object], [class], [template], … *)
  | EOF

(* Keywords are case-insensitive in section headers the paper writes both
   [identification] and [IDENTIFICATION]-style; we normalise to lower
   case.  Identifiers keep their case. *)
let keywords =
  [
    "object"; "class"; "end"; "template"; "identification"; "data"; "types";
    "type"; "attributes"; "events"; "valuation"; "permissions"; "constraints";
    "variables"; "birth"; "death"; "active"; "derived"; "constant";
    "components"; "interaction"; "calling"; "derivation"; "rules";
    "inheriting"; "as"; "view"; "of"; "specialization"; "interface";
    "encapsulating"; "selection"; "where"; "global"; "interactions";
    "module"; "import"; "conceptual"; "internal"; "external"; "schema";
    "static"; "and"; "or"; "not"; "xor"; "implies"; "in"; "div"; "mod";
    "sometime"; "always"; "after"; "previous"; "since"; "for"; "all";
    "exists"; "forall"; "true"; "false"; "undefined"; "self"; "if"; "then";
    "else"; "fi"; "set"; "list"; "map"; "tuple"; "select"; "project";
  ]

(* Keywords match case-insensitively, so the table hashes and compares
   words with their case folded in place rather than on a lower-cased
   copy. *)
module Ci_table = Hashtbl.Make (struct
  type t = string

  let equal a b =
    let n = String.length a in
    let rec go i =
      i = n
      || Char.equal (Char.lowercase_ascii a.[i]) (Char.lowercase_ascii b.[i])
         && go (i + 1)
    in
    n = String.length b && go 0

  let hash s =
    let rec go h i =
      if i = String.length s then h
      else go ((h * 31) + Char.code (Char.lowercase_ascii s.[i])) (i + 1)
    in
    go 0 0
end)

let keyword_table =
  let t = Ci_table.create 128 in
  List.iter (fun k -> Ci_table.replace t k k) keywords;
  t

(** [keyword word]: the lower-cased keyword [word] spells, if it spells
    one (case-insensitively).  One hash lookup per identifier — the
    lexer asks this of every word it reads. *)
let keyword word = Ci_table.find_opt keyword_table word

let pp ppf = function
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | INT i -> Format.fprintf ppf "integer %d" i
  | MONEY c -> Format.fprintf ppf "money %d.%02d" (c / 100) (abs c mod 100)
  | STRING s -> Format.fprintf ppf "string %S" s
  | DATE d -> Format.fprintf ppf "date %s" (Date_adt.to_string d)
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | LBRACE -> Format.pp_print_string ppf "{"
  | RBRACE -> Format.pp_print_string ppf "}"
  | LBRACKET -> Format.pp_print_string ppf "["
  | RBRACKET -> Format.pp_print_string ppf "]"
  | BAR -> Format.pp_print_string ppf "|"
  | COMMA -> Format.pp_print_string ppf ","
  | SEMI -> Format.pp_print_string ppf ";"
  | COLON -> Format.pp_print_string ppf ":"
  | DOT -> Format.pp_print_string ppf "."
  | EQ -> Format.pp_print_string ppf "="
  | NEQ -> Format.pp_print_string ppf "<>"
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
  | PLUS -> Format.pp_print_string ppf "+"
  | MINUS -> Format.pp_print_string ppf "-"
  | STAR -> Format.pp_print_string ppf "*"
  | CONCAT -> Format.pp_print_string ppf "++"
  | ARROW -> Format.pp_print_string ppf "=>"
  | CALLS -> Format.pp_print_string ppf ">>"
  | BORNBY -> Format.pp_print_string ppf "<-"
  | KW s -> Format.fprintf ppf "keyword %s" s
  | EOF -> Format.pp_print_string ppf "end of input"

let to_string t = Format.asprintf "%a" pp t

let equal (a : t) (b : t) = a = b
