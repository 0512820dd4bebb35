(** Synthetic workload generators for the experiment suite (DESIGN.md §5).

    The paper has no evaluation section, so these workloads are the
    substitutes documented in DESIGN.md: each produces a system of the
    shape the paper's examples describe (DEPT-style information-system
    classes), scaled by a size parameter.  The provenance stamps every
    BENCH_*.json emitter writes live here too. *)

(* ------------------------------------------------------------------ *)
(* Provenance stamps for the BENCH_*.json emitters                     *)
(* ------------------------------------------------------------------ *)

(** The first line a shell command prints, when it exits 0. *)
let command_line cmd =
  match Unix.open_process_in cmd with
  | exception _ -> None
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with _ -> None in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None)

(** The checkout's short commit hash, suffixed [-dirty] when the working
    tree differs from it: a number measured on uncommitted code must
    not name the commit it was not measured on. *)
let git_rev () =
  match command_line "git rev-parse --short HEAD 2>/dev/null" with
  | None -> "unknown"
  | Some rev ->
      if Sys.command "git diff --quiet HEAD 2>/dev/null" = 0 then rev
      else rev ^ "-dirty"

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(** Load a specification through the session API, failing loudly — the
    benches never expect a load error. *)
let load_system_exn src : Troll.system =
  match Troll.Session.load src with
  | Ok s -> Troll.Session.system s
  | Error e -> failwith (Troll.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* E1/E2: specification texts of n classes                             *)
(* ------------------------------------------------------------------ *)

(** A DEPT-like class: attributes, events, valuation rules, a state
    permission and a temporal permission. *)
let class_text i =
  Printf.sprintf
    {|
object class DEPT%d
  identification id: string;
  template
    attributes
      est_date: date;
      budget: money;
      headcount: integer;
      employees: set(string);
    events
      birth establishment(date);
      death closure;
      hire(string);
      fire(string);
      fund(money);
    valuation
      variables P: string; d: date; m: money;
      [establishment(d)] est_date = d;
      [establishment(d)] employees = {};
      [establishment(d)] headcount = 0;
      [establishment(d)] budget = 0.00;
      [hire(P)] employees = insert(P, employees);
      [hire(P)] headcount = headcount + 1;
      [fire(P)] employees = remove(P, employees);
      [fire(P)] headcount = headcount - 1;
      [fund(m)] budget = budget + m;
    permissions
      variables P: string;
      { not(P in employees) } hire(P);
      { sometime(after(hire(P))) } fire(P);
    constraints
      static headcount >= 0;
end object class DEPT%d;
|}
    i i

(** A specification with [n] classes (for parser/checker scaling). *)
let spec_text n = String.concat "\n" (List.init n class_text)

(* ------------------------------------------------------------------ *)
(* E3/E8: communities                                                  *)
(* ------------------------------------------------------------------ *)

(** One DEPT-like class, no class-quantified permission: per-event cost
    is meant to be independent of community size. *)
let dept_spec = class_text 0

(** The same class plus a class-quantified closure permission (the cost
    of parametric quantified monitors grows with the extension). *)
let dept_quantified_spec =
  {|
object class PERSON
  identification pname: string;
  template
    events birth born;
end object class PERSON;
|}
  ^ String.concat "\n"
      (String.split_on_char '\n'
         (Printf.sprintf
            {|
object class QDEPT
  identification id: string;
  template
    attributes
      employees: set(|PERSON|);
    events
      birth establishment;
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [hire(P)] employees = insert(P, employees);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { for all (P: PERSON : sometime(P in employees) => sometime(after(fire(P)))) } closure;
end object class QDEPT;
|}))

let load_exn ?config src =
  match Compile.load ?config src with
  | Ok (c, _) -> c
  | Error e -> failwith ("workload load: " ^ e)

(** A community with [m] living DEPT0 objects, each with one employee
    hired.  Returns the community and the object identities.  [config]
    selects e.g. compiled versus interpreted dispatch. *)
let dept_community ?config m =
  let c = load_exn ?config dept_spec in
  let ids =
    Array.init m (fun i ->
        let key = Value.String (Printf.sprintf "d%d" i) in
        (match
           Engine.create c ~cls:"DEPT0" ~key ~args:[ Value.Date 0 ] ()
         with
        | Ok _ -> ()
        | Error r -> failwith (Runtime_error.reason_to_string r));
        let id = Ident.make "DEPT0" key in
        (match
           Engine.fire c (Event.make id "hire" [ Value.String "emp" ])
         with
        | Ok _ -> ()
        | Error r -> failwith (Runtime_error.reason_to_string r));
        id)
  in
  (c, ids)

(** Like {!dept_community} but with the quantified-permission variant
    and [m] PERSON objects in the extension. *)
let qdept_community m =
  let c = load_exn dept_quantified_spec in
  let persons =
    Array.init m (fun i ->
        let key = Value.String (Printf.sprintf "p%d" i) in
        (match Engine.create c ~cls:"PERSON" ~key () with
        | Ok _ -> ()
        | Error r -> failwith (Runtime_error.reason_to_string r));
        Ident.make "PERSON" key)
  in
  let key = Value.String "q" in
  (match Engine.create c ~cls:"QDEPT" ~key () with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r));
  (c, Ident.make "QDEPT" key, persons)

(** E3p: the §3 company with one DEPT whose [fire(P)] permission
    ([sometime(after(hire(P)))]) has seen [n] PERSONs — each hired and
    fired once, so the permission's instance table holds [n] instances.
    Returns the community, the DEPT and the PERSON references. *)
let parametric_dept_community n =
  let c = load_exn Paper_specs.company in
  let ok = function
    | Ok (_ : Engine.outcome) -> ()
    | Error r -> failwith (Runtime_error.reason_to_string r)
  in
  let persons =
    Array.init n (fun i ->
        let key =
          Value.Tuple
            [ ("Name", Value.String (Printf.sprintf "p%04d" i));
              ("Birthdate", Value.Date i) ]
        in
        ok
          (Engine.create c ~cls:"PERSON" ~key
             ~args:[ Value.Money 100_000; Value.String "Research" ]
             ());
        Ident.to_value (Ident.make "PERSON" key))
  in
  ok (Engine.create c ~cls:"DEPT" ~key:(Value.String "D") ());
  let dept = Ident.make "DEPT" (Value.String "D") in
  Array.iter
    (fun p ->
      ok (Engine.fire c (Event.make dept "hire" [ p ]));
      ok (Engine.fire c (Event.make dept "fire" [ p ])))
    persons;
  (c, dept, persons)

(** A chain of [d] objects linked by calling rules (E8). *)
let cascade_spec =
  {|
object class NODE
  identification id: string;
  template
    attributes next: |NODE|; hits: integer;
    events birth init(|NODE|); pulse;
    valuation
      variables N: |NODE|;
      [init(N)] next = N;
      [init(N)] hits = 0;
      [pulse] hits = hits + 1;
    calling
      { defined(next) } pulse >> NODE(next).pulse;
end object class NODE;
|}

let cascade_community d =
  let c = load_exn cascade_spec in
  let id i = Ident.make "NODE" (Value.String (Printf.sprintf "n%d" i)) in
  for i = d - 1 downto 0 do
    let next =
      if i = d - 1 then Value.Undefined else Ident.to_value (id (i + 1))
    in
    match
      Engine.create c ~cls:"NODE"
        ~key:(Value.String (Printf.sprintf "n%d" i))
        ~args:[ next ] ()
    with
    | Ok _ -> ()
    | Error r -> failwith (Runtime_error.reason_to_string r)
  done;
  (c, id 0)

(* ------------------------------------------------------------------ *)
(* E4: monitored vs naive permission checking                          *)
(* ------------------------------------------------------------------ *)

(** A DEPT0 object with history recording, driven through [len] steps
    (alternating funding events so the history grows without changing
    the permission-relevant state much).  Returns what the two checkers
    need: community, object, the indexed permission's body, and its
    index. *)
let history_object len =
  let config =
    { Community.default_config with Community.record_history = true }
  in
  let c =
    match Compile.load ~config dept_spec with
    | Ok (x, _) -> x
    | Error e -> failwith e
  in
  let key = Value.String "d" in
  (match Engine.create c ~cls:"DEPT0" ~key ~args:[ Value.Date 0 ] () with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r));
  let id = Ident.make "DEPT0" key in
  (match Engine.fire c (Event.make id "hire" [ Value.String "emp" ]) with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r));
  for _ = 1 to len do
    match Engine.fire c (Event.make id "fund" [ Value.Money 100 ]) with
    | Ok _ -> ()
    | Error r -> failwith (Runtime_error.reason_to_string r)
  done;
  let o = Community.object_exn c id in
  let tpl = Community.template_exn c "DEPT0" in
  let idx, pm =
    let rec find i = function
      | [] -> failwith "no indexed permission"
      | (p : Template.permission) :: rest -> (
          match p.Template.pm_guard with
          | Template.PG_indexed _ -> (i, p)
          | _ -> find (i + 1) rest)
    in
    find 0 tpl.Template.t_perms
  in
  let body =
    match pm.Template.pm_guard with
    | Template.PG_indexed { ix_body; _ } -> ix_body
    | _ -> assert false
  in
  (c, o, idx, pm, body)

(* ------------------------------------------------------------------ *)
(* E9: relations                                                       *)
(* ------------------------------------------------------------------ *)

let relation r =
  Algebra.of_tuples
    (List.init r (fun i ->
         [ ("ename", Value.String (Printf.sprintf "e%d" i));
           ("esalary", Value.Int (i mod 977));
           ("dept", Value.String (Printf.sprintf "d%d" (i mod 13))) ]))

let dept_relation () =
  Algebra.of_tuples
    (List.init 13 (fun i ->
         [ ("dept", Value.String (Printf.sprintf "d%d" i));
           ("floor", Value.Int i) ]))

(* ------------------------------------------------------------------ *)
(* E6: random inheritance schemas                                      *)
(* ------------------------------------------------------------------ *)

(** A layered DAG of [t] templates: each template gets up to two supers
    in the previous layer (deterministic pseudo-random shape). *)
let schema t =
  let s = Schema.create () in
  let tpl i =
    { Template.t_name = Printf.sprintf "T%d" i; t_kind = `Class;
      t_id_fields = []; t_view_of = None; t_spec_of = None; t_attrs = [];
      t_events = []; t_valuations = []; t_callings = []; t_perms = [];
      t_constraints = []; t_vars = []; t_slots = None; t_staged = None }
  in
  for i = 0 to t - 1 do
    Schema.add_template s (tpl i)
  done;
  for i = 1 to t - 1 do
    let super1 = (i * 7 + 3) mod i in
    Schema.add_edge s ~sub:(Printf.sprintf "T%d" i)
      ~super:(Printf.sprintf "T%d" super1) Sigmap.empty;
    let super2 = (i * 13 + 5) mod i in
    if super2 <> super1 then
      Schema.add_edge s ~sub:(Printf.sprintf "T%d" i)
        ~super:(Printf.sprintf "T%d" super2) Sigmap.empty
  done;
  s

(* ------------------------------------------------------------------ *)
(* E7: the employee refinement pair                                    *)
(* ------------------------------------------------------------------ *)

let employee_pair () =
  let key =
    Value.Tuple [ ("EmpName", Value.String "eve"); ("EmpBirth", Value.Date 0) ]
  in
  let abs =
    match Compile.load Paper_specs.employee_abstract with
    | Ok (c, _) -> c
    | Error e -> failwith e
  in
  let conc =
    match Compile.load Paper_specs.employee_implementation with
    | Ok (c, _) -> c
    | Error e -> failwith e
  in
  (match Engine.create abs ~cls:"EMPLOYEE" ~key () with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r));
  (match Engine.create conc ~cls:"EMPL_IMPL" ~key () with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r));
  ( { Refinement.community = abs; id = Ident.make "EMPLOYEE" key },
    { Refinement.community = conc; id = Ident.make "EMPL_IMPL" key } )

let refinement_alphabet =
  [
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 100 ] };
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 250 ] };
    { Refinement.ev_name = "FireEmployee"; ev_args = [] };
  ]

(* ------------------------------------------------------------------ *)
(* E5: company community with views                                    *)
(* ------------------------------------------------------------------ *)

let company_with_views () =
  let sys = load_system_exn Paper_specs.company in
  let key =
    Value.Tuple [ ("Name", Value.String "alice"); ("Birthdate", Value.Date 0) ]
  in
  (match
     Engine.create sys.Troll.community ~cls:"PERSON" ~key
       ~args:[ Value.Money (Money.of_units 6000); Value.String "Research" ]
       ()
   with
  | Ok _ -> ()
  | Error r -> failwith (Runtime_error.reason_to_string r));
  (sys, Ident.make "PERSON" key)

(* ------------------------------------------------------------------ *)
(* E14: generated communities + traces (the fuzzing generator reused)  *)
(* ------------------------------------------------------------------ *)

(** A seed-deterministic random community with a long mixed step
    workload (creates, fires, syncs, sequences, transactions,
    destroys) from [lib/gen] — the same generator the differential
    fuzzing suite uses, so the benchmark exercises spec shapes no
    hand-written workload covers (views, components, temporal
    permissions, calling cascades in one spec). *)
let generated_workload ?config seed ~len =
  let rng = Rng.make2 seed 0 in
  let model = Genspec.generate (Rng.split rng) in
  let src = Genspec.render model in
  let fresh () =
    match Compile.load ?config src with
    | Ok (c, _) -> c
    | Error e -> failwith ("generated spec rejected: " ^ e)
  in
  (* the trace generator biases toward accepted steps against a scratch
     community; replay targets a fresh one *)
  let scratch = fresh () in
  let steps = Array.of_list (Gentrace.generate rng model scratch ~len) in
  (fresh (), steps)
