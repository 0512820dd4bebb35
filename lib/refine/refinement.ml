(** Bounded refinement checking by lock-step simulation.

    The correctness criterion of §5.2 — every property of the abstract
    specification is derivable from the implementation — is made
    executable as bounded trace simulation: drive the abstract instance
    and its implementation with corresponding events, to a depth [k],
    over a finite candidate alphabet, and require

    - equal *enabledness*: an event accepted by the abstract object must
      be accepted by the implementation, and (for property preservation)
      an event rejected by the abstract object must be rejected by the
      implementation;
    - equal *observations*: after every accepted step, each observed
      abstract attribute equals its mapped concrete attribute.

    The exploration branches over every candidate event at every depth.
    Each branch runs speculatively under {!Txn.probe} and is
    journal-rolled back in place — O(touched state) per branch instead
    of the former per-branch [Community.clone].  The tree has at most
    |alphabet|^k branches, but only jointly-accepted steps recurse, and
    with a {!Certificate.builder} attached the visited-pair memo table
    collapses every trace that converges on an already-explored
    (abstract, concrete) state pair — cost is then bounded by the number
    of *distinct* reachable pairs times the alphabet, not by the trace
    count (experiment E7 measures the raw bounded growth, E19 the depth
    unlocked by memoization). *)

type candidate = { ev_name : string; ev_args : Value.t list }

type counterexample = {
  trace : candidate list;  (** accepted prefix *)
  failing : candidate;
  reason : string;
}

type report = {
  verdict : (unit, counterexample) result;
  cases : int;  (** (event, state) pairs examined *)
  accepted : int;  (** steps both sides accepted *)
  obligations : Obligation.t list;
}

let pp_candidate ppf c =
  if c.ev_args = [] then Format.pp_print_string ppf c.ev_name
  else
    Format.fprintf ppf "%s(%a)" c.ev_name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Value.pp)
      c.ev_args

let pp_counterexample ppf cx =
  Format.fprintf ppf "after [%a], event %a: %s"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_candidate)
    cx.trace pp_candidate cx.failing cx.reason

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)
(* ------------------------------------------------------------------ *)

(** Small value pools per type, for synthesising candidate events. *)
let rec default_pool (ty : Vtype.t) : Value.t list =
  match ty with
  | Vtype.Bool -> [ Value.Bool true; Value.Bool false ]
  | Vtype.Int | Vtype.Nat -> [ Value.Int 0; Value.Int 1; Value.Int 42 ]
  | Vtype.String -> [ Value.String "a"; Value.String "b" ]
  | Vtype.Date -> [ Value.Date 0; Value.Date 7305 ]
  | Vtype.Money -> [ Value.Money (Money.of_units 100) ]
  | Vtype.Enum (n, cs) -> List.map (fun c -> Value.Enum (n, c)) cs
  | Vtype.Id cls -> [ Value.Id (cls, Value.String "x") ]
  | Vtype.Set _ -> [ Value.Set [] ]
  | Vtype.List _ -> [ Value.List [] ]
  | Vtype.Map _ -> [ Value.map [] ]
  | Vtype.Tuple fields ->
      (* one representative tuple from the first pool element of each
         field *)
      let rec build = function
        | [] -> [ [] ]
        | (n, t) :: rest ->
            let vs =
              match default_pool t with v :: _ -> [ v ] | [] -> []
            in
            List.concat_map
              (fun v -> List.map (fun tl -> (n, v) :: tl) (build rest))
              vs
      in
      List.map (fun fs -> Value.Tuple fs) (build fields)
  | Vtype.Any -> [ Value.Int 0 ]

(** Candidate events of a template: every non-birth event, with argument
    combinations drawn from [pool] (the Cartesian product, capped at
    [max_per_event]). *)
let candidates ?(pool = default_pool) ?(max_per_event = 8)
    (tpl : Template.t) : candidate list =
  List.concat_map
    (fun (ed : Template.event_def) ->
      if ed.Template.ed_kind = Ast.Ev_birth then []
      else
        let rec combos = function
          | [] -> [ [] ]
          | ty :: rest ->
              List.concat_map
                (fun v -> List.map (fun tl -> v :: tl) (combos rest))
                (pool ty)
        in
        let all = combos ed.Template.ed_params in
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: r -> x :: take (n - 1) r
        in
        List.map
          (fun args -> { ev_name = ed.Template.ed_name; ev_args = args })
          (take max_per_event all))
    tpl.Template.t_events

(* ------------------------------------------------------------------ *)
(* Lock-step exploration                                               *)
(* ------------------------------------------------------------------ *)

type side = { community : Community.t; id : Ident.t }

let fire_candidate (s : side) ~(name : string) (c : candidate) =
  Engine.fire s.community (Event.make s.id name c.ev_args)

(** Check the implementation [impl] by bounded lock-step simulation.

    [abs]/[conc] give the communities and instance identities of the two
    sides (the instances must already be alive and in corresponding
    states).  [alphabet] lists the candidate events in abstract terms;
    each is mapped through [impl] for the concrete side.  [depth] bounds
    the trace length.  The exploration is one depth-first search in
    alphabet order; the first counterexample ends it.

    With [record], every visited (abstract, concrete) state pair and
    every examined case is recorded into the certificate builder, whose
    node table doubles as a memo: a pair already explored at an equal or
    greater remaining depth (in this run, or loaded from a persisted
    memo) is skipped, so converging traces are examined once. *)
let check ?(record : Certificate.builder option) ~(impl : Implementation.t)
    ~(abs : side) ~(conc : side) ~(alphabet : candidate list) ~(depth : int)
    () : report =
  let abs_tpl =
    Community.template_exn abs.community impl.Implementation.abs_class
  in
  let conc_tpl =
    Community.template_exn conc.community impl.Implementation.conc_class
  in
  let obligations = Obligation.generate impl ~abs_tpl ~conc_tpl in
  let exception Cex of counterexample in
  let observe_mismatch abs_c conc_c =
    (* life-cycle stage must agree; attribute observations are only
       meaningful while both sides are alive *)
    let alive c id =
      match Community.living c id with Some _ -> true | None -> false
    in
    let abs_alive = alive abs_c abs.id and conc_alive = alive conc_c conc.id in
    if abs_alive <> conc_alive then
      Some
        (Printf.sprintf "life cycle diverges: abstract %s, concrete %s"
           (if abs_alive then "alive" else "not alive")
           (if conc_alive then "alive" else "not alive"))
    else if not abs_alive then None
    else
    List.find_map
      (fun (abs_a, conc_a) ->
        let va =
          try
            Eval.read_attr abs_c (Community.object_exn abs_c abs.id) abs_a []
          with Runtime_error.Error _ -> Value.Undefined
        in
        let vc =
          try
            Eval.read_attr conc_c
              (Community.object_exn conc_c conc.id)
              conc_a []
          with Runtime_error.Error _ -> Value.Undefined
        in
        if Value.equal va vc then None
        else
          Some
            (Printf.sprintf "observation %s: abstract %s vs concrete %s"
               abs_a (Value.to_string va) (Value.to_string vc)))
      (Implementation.observed_attrs impl abs_tpl)
  in
  let cases = ref 0 and accepted = ref 0 in
  let mark_ex id = Obligation.mark_exercised obligations ~id in
  let mark_vi id reason = Obligation.mark_violated obligations ~id ~reason in
  let digest_pair () =
    {
      Certificate.p_abs = View.state_digest abs.community;
      p_conc = View.state_digest conc.community;
    }
  in
  (* [pre] is [Some] exactly when recording: the digest pair of the
     state the exploration currently sits in *)
  let record_edge pre (cand : candidate) verdict =
    match (record, pre) with
    | Some b, Some p ->
        Certificate.add_edge b
          {
            Certificate.e_pre = p;
            e_event = cand.ev_name;
            e_args = cand.ev_args;
            e_oblig = Certificate.oblig_of_verdict cand.ev_name verdict;
            e_verdict = verdict;
          }
    | _ -> ()
  in
  let rec explore_cand pre trace d (cand : candidate) =
    incr cases;
    (* each branch — the two speculative firings plus the whole subtree
       below them — runs under nested probe scopes and is
       journal-rolled back in place before the next candidate; a
       counterexample propagates out through the rollbacks *)
    Txn.probe abs.community (fun () ->
        Txn.probe conc.community (fun () ->
            let abs_r = fire_candidate abs ~name:cand.ev_name cand in
            let conc_name = Implementation.map_event impl cand.ev_name in
            let conc_r = fire_candidate conc ~name:conc_name cand in
            match (abs_r, conc_r) with
            | Ok _, Ok _ -> (
                incr accepted;
                mark_ex (Printf.sprintf "enabled-%s" cand.ev_name);
                match observe_mismatch abs.community conc.community with
                | Some reason ->
                    record_edge pre cand (Certificate.E_obs reason);
                    mark_vi (Printf.sprintf "effect-%s" cand.ev_name) reason;
                    raise
                      (Cex { trace = List.rev trace; failing = cand; reason })
                | None ->
                    let post =
                      match pre with
                      | Some _ ->
                          let post = digest_pair () in
                          record_edge pre cand (Certificate.E_ok post);
                          Some post
                      | None -> None
                    in
                    mark_ex (Printf.sprintf "effect-%s" cand.ev_name);
                    explore post (cand :: trace) (d - 1))
            | Ok _, Error r ->
                let reason =
                  Printf.sprintf
                    "abstract side accepts but implementation rejects (%s)"
                    (Runtime_error.reason_to_string r)
                in
                record_edge pre cand (Certificate.E_missing reason);
                mark_vi (Printf.sprintf "enabled-%s" cand.ev_name) reason;
                raise (Cex { trace = List.rev trace; failing = cand; reason })
            | Error r, Ok _ ->
                let reason =
                  Printf.sprintf
                    "implementation accepts an event the specification \
                     forbids (abstract rejection: %s)"
                    (Runtime_error.reason_to_string r)
                in
                record_edge pre cand (Certificate.E_escape reason);
                mark_vi (Printf.sprintf "perm-%s" cand.ev_name) reason;
                raise (Cex { trace = List.rev trace; failing = cand; reason })
            | Error _, Error _ ->
                (* both reject: permission preserved on this case *)
                record_edge pre cand Certificate.E_stuck;
                mark_ex (Printf.sprintf "perm-%s" cand.ev_name)))
  and explore pre trace d =
    match (record, pre) with
    | Some b, Some p when d <= 0 ->
        (* frontier pair: still a certificate node, or accepted edges at
           the last level would reference a node that was never
           recorded *)
        Certificate.note_frontier b p
    | _ when d <= 0 -> ()
    | Some b, Some p when not (Certificate.enter b p ~depth:d) -> ()
    | _ -> List.iter (explore_cand pre trace d) alphabet
  in
  let root_pair =
    Option.map
      (fun b ->
        let p = digest_pair () in
        Certificate.note_root b p;
        p)
      record
  in
  let verdict =
    match explore root_pair [] depth with
    | () -> Ok ()
    | exception Cex cx ->
        Option.iter
          (fun b ->
            Certificate.note_failed b
              (Format.asprintf "%a" pp_counterexample cx))
          record;
        Error cx
  in
  { verdict; cases = !cases; accepted = !accepted; obligations }

let pp_report ppf r =
  (match r.verdict with
  | Ok () ->
      Format.fprintf ppf
        "refinement holds up to bound (%d cases, %d accepted steps)@,"
        r.cases r.accepted
  | Error cx ->
      Format.fprintf ppf "refinement FAILS: %a@," pp_counterexample cx);
  List.iter (fun ob -> Format.fprintf ppf "  %a@," Obligation.pp ob)
    r.obligations
