(** Independent certificate validation.

    {!Refinement.check} searches; this module only *replays*.  Starting
    from nothing but the certificate — which embeds both specification
    sources, the instance coordinates, the implementation mapping and
    the candidate alphabet — it recompiles the two communities, recreates
    the probe instances, and replays every recorded edge under nested
    {!Txn.probe} scopes, checking that state digests, enabledness on
    both sides, observation agreement and the discharged obligation all
    match the certificate's claims.  Structural checks force the claimed
    depth coverage (root explored to the stated bound, every non-frontier
    node carrying one edge per candidate, every accepted edge landing on
    a node explored at most one level shallower), so a wrong checker —
    or a tampered certificate: a flipped verdict, a corrupted digest, a
    dropped edge — can no longer silently answer yes. *)

type stats = {
  v_nodes : int;  (** state-pair nodes visited during replay *)
  v_edges : int;  (** edges replayed under probes *)
}

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let short p = try String.sub p 0 8 with Invalid_argument _ -> p

let pp_pair (p : Certificate.pair) =
  Printf.sprintf "(%s,%s)" (short p.Certificate.p_abs)
    (short p.Certificate.p_conc)

(* mirrors Refinement's observation comparison — deliberately
   re-implemented here so the validator shares no verdict-forming code
   with the search *)
let observe_mismatch ~(impl : Implementation.t) ~abs_tpl abs_c abs_id conc_c
    conc_id =
  let alive c id =
    match Community.living c id with Some _ -> true | None -> false
  in
  let abs_alive = alive abs_c abs_id and conc_alive = alive conc_c conc_id in
  if abs_alive <> conc_alive then Some "life cycle diverges"
  else if not abs_alive then None
  else
    List.find_map
      (fun (abs_a, conc_a) ->
        let read c id a =
          try Eval.read_attr c (Community.object_exn c id) a []
          with Runtime_error.Error _ -> Value.Undefined
        in
        let va = read abs_c abs_id abs_a and vc = read conc_c conc_id conc_a in
        if Value.equal va vc then None else Some abs_a)
      (Implementation.observed_attrs impl abs_tpl)

let validate (cert : Certificate.t) : (stats, string) result =
  try
    let impl =
      Implementation.make ~event_map:cert.Certificate.event_map
        ~attr_map:cert.Certificate.attr_map ~hidden:cert.Certificate.hidden
        ~abs_class:cert.Certificate.abs_class
        ~conc_class:cert.Certificate.conc_class ()
    in
    (* ---- structure -------------------------------------------------- *)
    let nodes : (string, Certificate.pair * int) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun (p, d) ->
        let k = Certificate.node_key p in
        if Hashtbl.mem nodes k then reject "duplicate node %s" (pp_pair p);
        if d < 0 then reject "negative depth on node %s" (pp_pair p);
        Hashtbl.replace nodes k (p, d))
      cert.Certificate.nodes;
    let edges : (string, Certificate.edge) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (e : Certificate.edge) ->
        let k = Certificate.edge_key e in
        if Hashtbl.mem edges k then reject "duplicate edge %s" k;
        if not (Hashtbl.mem nodes (Certificate.node_key e.Certificate.e_pre))
        then
          reject "edge from unknown node %s" (pp_pair e.Certificate.e_pre);
        if
          not
            (List.exists
               (fun (n, args) ->
                 String.equal n e.Certificate.e_event
                 && List.length args = List.length e.Certificate.e_args
                 && List.for_all2 Value.equal args e.Certificate.e_args)
               cert.Certificate.alphabet)
        then reject "edge event %s outside the alphabet" e.Certificate.e_event;
        Hashtbl.replace edges k e)
      cert.Certificate.edges;
    (* the alphabet with each candidate's event key, encoded once: the
       coverage check and the replay look every candidate up at every
       node *)
    let alphabet =
      List.map
        (fun (n, args) -> (n, Certificate.event_key n args))
        cert.Certificate.alphabet
    in
    let find_edge node_key ek = Hashtbl.find_opt edges (node_key ^ ek) in
    let node_depth p =
      match Hashtbl.find_opt nodes (Certificate.node_key p) with
      | Some (_, d) -> d
      | None -> reject "pair %s is not a node" (pp_pair p)
    in
    let root_depth = node_depth cert.Certificate.root in
    if cert.Certificate.holds then begin
      if root_depth < cert.Certificate.depth then
        reject "root explored to depth %d, certificate claims %d" root_depth
          cert.Certificate.depth;
      (* every non-frontier node must discharge every candidate, and
         every accepted edge must land at most one level shallower —
         together these force the claimed depth coverage from the root
         down, so dropping an edge or demoting a node is caught here *)
      Hashtbl.iter
        (fun k (p, d) ->
          if d > 0 then
            List.iter
              (fun (n, ek) ->
                match find_edge k ek with
                | Some e -> (
                    match e.Certificate.e_verdict with
                    | Certificate.E_ok post ->
                        if node_depth post < d - 1 then
                          reject
                            "accepted edge from %s (depth %d) lands on %s \
                             explored only to %d"
                            (pp_pair p) d (pp_pair post) (node_depth post)
                    | Certificate.E_stuck -> ()
                    | Certificate.E_missing _ | Certificate.E_escape _
                    | Certificate.E_obs _ ->
                        reject
                          "certificate claims the refinement holds but edge \
                           %s/%s records a violation"
                          (pp_pair p) n)
                | None ->
                    reject "node %s (depth %d) has no edge for candidate %s"
                      (pp_pair p) d n)
              alphabet)
        nodes
    end
    else if cert.Certificate.fail_reason = None then
      reject "failing certificate carries no counterexample reason";
    (* ---- rebuild the two sides from the embedded sources ------------ *)
    let compile what src =
      match Compile.load src with
      | Ok (c, _) -> c
      | Error m -> reject "%s specification does not compile: %s" what m
    in
    let abs_c = compile "abstract" cert.Certificate.abs_src in
    let conc_c = compile "concrete" cert.Certificate.conc_src in
    let abs_tpl =
      match Community.find_template abs_c cert.Certificate.abs_class with
      | Some t -> t
      | None -> reject "unknown abstract class %s" cert.Certificate.abs_class
    in
    if Community.find_template conc_c cert.Certificate.conc_class = None then
      reject "unknown implementing class %s" cert.Certificate.conc_class;
    let create what c cls key args =
      match Engine.create c ~cls ~key ~args () with
      | Ok _ -> ()
      | Error r ->
          reject "cannot recreate the %s instance: %s" what
            (Runtime_error.reason_to_string r)
    in
    create "abstract" abs_c cert.Certificate.abs_class cert.Certificate.abs_key
      cert.Certificate.abs_args;
    create "concrete" conc_c cert.Certificate.conc_class
      cert.Certificate.conc_key cert.Certificate.conc_args;
    let abs_id =
      Ident.make cert.Certificate.abs_class cert.Certificate.abs_key
    and conc_id =
      Ident.make cert.Certificate.conc_class cert.Certificate.conc_key
    in
    let digest_pair () =
      {
        Certificate.p_abs = View.state_digest abs_c;
        p_conc = View.state_digest conc_c;
      }
    in
    let actual_root = digest_pair () in
    if actual_root <> cert.Certificate.root then
      reject "root digest mismatch: expected %s, replayed %s"
        (pp_pair cert.Certificate.root) (pp_pair actual_root);
    (* ---- replay ----------------------------------------------------- *)
    let visited : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let replayed = ref 0 in
    let rec walk (p : Certificate.pair) =
      let k = Certificate.node_key p in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        List.iter
          (fun (_, ek) ->
            match find_edge k ek with Some e -> replay p e | None -> ())
          alphabet
      end
    and replay (p : Certificate.pair) (e : Certificate.edge) =
      incr replayed;
      if
        not
          (String.equal e.Certificate.e_oblig
             (Certificate.oblig_of_verdict e.Certificate.e_event
                e.Certificate.e_verdict))
      then
        reject "edge %s/%s claims obligation %s, verdict discharges %s"
          (pp_pair p) e.Certificate.e_event e.Certificate.e_oblig
          (Certificate.oblig_of_verdict e.Certificate.e_event
             e.Certificate.e_verdict);
      Txn.probe abs_c (fun () ->
          Txn.probe conc_c (fun () ->
              let abs_r =
                Engine.step abs_c
                  (Step.Fire
                     (Event.make abs_id e.Certificate.e_event
                        e.Certificate.e_args))
              in
              let conc_r =
                Engine.step conc_c
                  (Step.Fire
                     (Event.make conc_id
                        (Implementation.map_event impl e.Certificate.e_event)
                        e.Certificate.e_args))
              in
              let claims what =
                reject "edge %s/%s claims %s but replay disagrees" (pp_pair p)
                  e.Certificate.e_event what
              in
              match (e.Certificate.e_verdict, abs_r, conc_r) with
              | Certificate.E_ok post, Ok _, Ok _ -> (
                  match
                    observe_mismatch ~impl ~abs_tpl abs_c abs_id conc_c
                      conc_id
                  with
                  | Some attr ->
                      reject
                        "edge %s/%s claims equal observations but %s differs"
                        (pp_pair p) e.Certificate.e_event attr
                  | None ->
                      let actual = digest_pair () in
                      if actual <> post then
                        reject
                          "post-state digest mismatch on edge %s/%s: \
                           certificate %s, replay %s"
                          (pp_pair p) e.Certificate.e_event (pp_pair post)
                          (pp_pair actual);
                      walk post)
              | Certificate.E_ok _, _, _ -> claims "joint acceptance"
              | Certificate.E_stuck, Error _, Error _ -> ()
              | Certificate.E_stuck, _, _ -> claims "joint rejection"
              | Certificate.E_missing _, Ok _, Error _ -> ()
              | Certificate.E_missing _, _, _ ->
                  claims "a rejection only on the implementation side"
              | Certificate.E_escape _, Error _, Ok _ -> ()
              | Certificate.E_escape _, _, _ ->
                  claims "an acceptance the specification forbids"
              | Certificate.E_obs _, Ok _, Ok _ -> (
                  match
                    observe_mismatch ~impl ~abs_tpl abs_c abs_id conc_c
                      conc_id
                  with
                  | Some _ -> ()
                  | None ->
                      claims "an observation mismatch (observations agree)")
              | Certificate.E_obs _, _, _ ->
                  claims "joint acceptance with differing observations"))
    in
    walk cert.Certificate.root;
    if Hashtbl.length visited <> Hashtbl.length nodes then
      reject "%d of %d nodes are unreachable from the root"
        (Hashtbl.length nodes - Hashtbl.length visited)
        (Hashtbl.length nodes);
    if !replayed <> Hashtbl.length edges then
      reject "%d of %d edges were never replayed"
        (Hashtbl.length edges - !replayed)
        (Hashtbl.length edges);
    Ok { v_nodes = Hashtbl.length visited; v_edges = !replayed }
  with
  | Reject m -> Error m
  | Runtime_error.Error r -> Error (Runtime_error.reason_to_string r)

let validate_string (s : string) : (stats, string) result =
  match Certificate.decode s with
  | Error m -> Error m
  | Ok cert -> validate cert
