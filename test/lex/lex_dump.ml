(* Print the token stream of each specification named on the command
   line, in sorted order: a "== FILE" header, then one line per lexeme
   with its start and end position and its printed token. *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  List.iter
    (fun path ->
      let src = In_channel.with_open_bin path In_channel.input_all in
      print_endline ("== " ^ Filename.basename path);
      List.iter
        (fun (l : Lexer.lexeme) ->
          let s = l.Lexer.loc.Loc.start_pos and e = l.Lexer.loc.Loc.end_pos in
          Printf.printf "%d:%d-%d:%d %s\n" s.Loc.line s.Loc.col e.Loc.line
            e.Loc.col (Token.to_string l.Lexer.tok))
        (Lexer.tokenize src))
    files
