(* Spans recorded by the benchmark around its calls into the program's
   public functions.  A span has a name, start and end, the span that
   encloses it and the id of the operation it belongs to.  Spans are
   kept in memory (the first [keep] of them verbatim, all of them in
   per-name aggregates) and written out when the run ends.  A span's
   self time is its duration minus the time its child spans cover.

   Off by default: with tracing off, [enter]/[leave] are one branch
   each, so the untraced run measures the same code. *)

let on = ref false
let keep = 50_000

(* name registry *)
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_of := Array.append !name_of [| s |];
      i

(* per-name aggregates, indexed by name id *)
let count = ref (Array.make 64 0)
let total_ns = ref (Array.make 64 0)
let self_ns = ref (Array.make 64 0)

(* open spans *)
let max_depth = 64
let st_id = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0
let next_id = ref 0
let op = ref 0

(* closed spans kept verbatim: id, parent, op, name, start, end *)
let kept = ref 0
let k_id = ref [||]
let k_parent = ref [||]
let k_op = ref [||]
let k_name = ref [||]
let k_t0 = ref [||]
let k_t1 = ref [||]

(** Turn tracing on, allocating the span store on first use (so an
    untraced run carries none of it in its resident set). *)
let start () =
  if Array.length !k_id = 0 then
    List.iter
      (fun a -> a := Array.make keep 0)
      [ k_id; k_parent; k_op; k_name; k_t0; k_t1 ];
  on := true

let stop () = on := false

let reset () =
  let n = Array.length !count in
  count := Array.make n 0;
  total_ns := Array.make n 0;
  self_ns := Array.make n 0;
  depth := 0;
  next_id := 0;
  kept := 0

let set_op i = op := i

let enter () =
  if !on then begin
    let d = !depth in
    if d >= max_depth then failwith "tracer: spans nested too deeply";
    st_id.(d) <- !next_id;
    incr next_id;
    st_child.(d) <- 0;
    depth := d + 1;
    st_t0.(d) <- Common.now_ns ()
  end

let grow n =
  if n >= Array.length !count then begin
    let ext a = Array.append a (Array.make (Array.length a) 0) in
    count := ext !count;
    total_ns := ext !total_ns;
    self_ns := ext !self_ns
  end

(** Close the innermost open span under the name [n] (chosen at close
    time, so a call can be filed by its outcome). *)
let leave n =
  if !on then begin
    let t1 = Common.now_ns () in
    let d = !depth - 1 in
    depth := d;
    let dur = t1 - st_t0.(d) in
    grow n;
    !count.(n) <- !count.(n) + 1;
    !total_ns.(n) <- !total_ns.(n) + dur;
    !self_ns.(n) <- !self_ns.(n) + dur - st_child.(d);
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    if !kept < keep then begin
      let k = !kept in
      !k_id.(k) <- st_id.(d);
      !k_parent.(k) <- (if d > 0 then st_id.(d - 1) else -1);
      !k_op.(k) <- !op;
      !k_name.(k) <- n;
      !k_t0.(k) <- st_t0.(d);
      !k_t1.(k) <- t1;
      kept := k + 1
    end
  end

let span n f =
  enter ();
  match f () with
  | v ->
      leave n;
      v
  | exception e ->
      leave n;
      raise e

(** [(calls, mean self time in us)] of one span name. *)
let self_us n =
  if n >= Array.length !count || !count.(n) = 0 then (0, 0.)
  else (!count.(n), float_of_int !self_ns.(n) /. float_of_int !count.(n) /. 1e3)

(** Every span name with calls, total and self time in microseconds. *)
let summary () =
  List.filter_map
    (fun (s, n) ->
      if n < Array.length !count && !count.(n) > 0 then
        Some
          ( s,
            !count.(n),
            float_of_int !total_ns.(n) /. 1e3,
            float_of_int !self_ns.(n) /. 1e3 )
      else None)
    (List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) names []))

(** Write the kept spans as JSON lines (times in ns, relative to the
    first kept span). *)
let dump path =
  let oc = open_out path in
  let base = if !kept > 0 then !k_t0.(0) else 0 in
  for k = 0 to !kept - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
      !k_id.(k) !k_parent.(k) !k_op.(k) !name_of.(!k_name.(k))
      (!k_t0.(k) - base) (!k_t1.(k) - base)
  done;
  close_out oc
