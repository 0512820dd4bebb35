let spec_marker = "== SPEC =="
let trace_marker = "== TRACE =="
let end_marker = "== END =="

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let write ~path ~seed ~iter ~oracle ~detail ~src ~trace =
  let oc = open_out_bin path in
  Printf.fprintf oc "-- troll-fuzz counterexample\n";
  Printf.fprintf oc "-- seed: %d iter: %d oracle: %s\n" seed iter oracle;
  Printf.fprintf oc "-- detail: %s\n" (one_line detail);
  Printf.fprintf oc "%s\n%s" spec_marker src;
  if src <> "" && src.[String.length src - 1] <> '\n' then output_char oc '\n';
  Printf.fprintf oc "%s\n" trace_marker;
  List.iteri
    (fun i st ->
      Printf.fprintf oc "%s\n"
        (Json.to_string (Protocol.request_of_step ~id:(Json.Int i) st)))
    trace;
  Printf.fprintf oc "%s\n" end_marker;
  close_out oc

let read path =
  let lines = String.split_on_char '\n' (Persist.read_file path) in
  let rec skip_header = function
    | l :: rest when l = spec_marker -> Ok rest
    | _ :: rest -> skip_header rest
    | [] -> Error (path ^ ": no " ^ spec_marker ^ " marker")
  in
  match skip_header lines with
  | Error _ as e -> e
  | Ok rest ->
      let rec split_spec acc = function
        | l :: rest when l = trace_marker -> Ok (List.rev acc, rest)
        | l :: rest -> split_spec (l :: acc) rest
        | [] -> Error (path ^ ": no " ^ trace_marker ^ " marker")
      in
      (match split_spec [] rest with
      | Error _ as e -> e
      | Ok (spec_lines, rest) ->
          let src = String.concat "\n" spec_lines ^ "\n" in
          let rec parse_steps acc = function
            | l :: _ when l = end_marker -> Ok (List.rev acc)
            | "" :: rest -> parse_steps acc rest
            | l :: rest -> (
                match Json.of_string l with
                | Error e -> Error (Printf.sprintf "%s: bad frame %S: %s" path l e)
                | Ok j -> (
                    match (Protocol.decode j).Protocol.request with
                    | Ok (Protocol.Step st) -> parse_steps (st :: acc) rest
                    | Ok _ -> Error (path ^ ": frame is not a step request: " ^ l)
                    | Error e ->
                        Error (Printf.sprintf "%s: undecodable request %S: %s" path l e)))
            | [] -> Error (path ^ ": no " ^ end_marker ^ " marker")
          in
          (match parse_steps [] rest with
          | Error _ as e -> e
          | Ok steps -> Ok (src, steps)))
