(* refine-cert: in-process, what `trollc refine --cert` followed by
   `trollc validate-cert` do.  One operation is one certified check:

   1. Refinement.check ~record on the paper's EMPLOYEE / EMPL_IMPL pair
      (§5.2) at depth 4 over E19's alphabet plus IncreaseSalary(250);
   2. Certificate.finish and Certificate.encode;
   3. Validator.validate_string.

   Why: Txn is used the opposite way from animate-company — nested
   probes that always roll back, and nothing commits.  View.state_digest
   (a hashed Persist.save image per visited state pair), certificate
   encoding and the validator's recompilation of the embedded sources
   carry the load.

   Most work: Refinement, Certificate, Validator, View.state_digest,
   Txn probes and savepoint rollbacks, the front end (the validator
   recompiles both specifications every operation).  Little or none:
   Json, Protocol, Server, Outbuf, View freezes, Pool, Wal, Interface.

   The seed picks the employee identity the check runs on, so the
   certificate's bytes (not its shape) change with the seed. *)

open Common

let depth = 4

let alphabet =
  [
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 0 ] };
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 100 ] };
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 250 ] };
    { Refinement.ev_name = "FireEmployee"; ev_args = [] };
  ]

let impl = Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPL_IMPL" ()

type state = {
  abs_src : string;
  conc_src : string;
  key : Value.t;
  abs : Refinement.side;
  conc : Refinement.side;
  ledger : ledger;
  plant : bool;
  mutable seq : int;
  mutable reference : string option;  (** the first certificate's encoding *)
  mutable cases : int;
  mutable cert_bytes : int;
  load_ms : float;
}

let make_side src cls key =
  let t0 = now_ns () in
  let s = load_session src in
  let ms = float_of_int (now_ns () - t0) /. 1e6 in
  let c = Troll.Session.community s in
  (match Engine.create c ~cls ~key () with
  | Ok _ -> ()
  | Error r -> die "cannot create %s: %s" cls (Runtime_error.reason_to_string r));
  ({ Refinement.community = c; id = Ident.make cls key }, ms)

(** One certified check; returns its duration in ns.  The comparison
    with the reference certificate runs outside the timed calls. *)
let run_op st =
  st.seq <- st.seq + 1;
  Tracer.set_op st.seq;
  let t0 = now_ns () in
  let report, encoded, validated =
    Tracer.span Layers.s_op (fun () ->
        let b =
          Certificate.builder ~abs_src:st.abs_src ~conc_src:st.conc_src ~impl
            ~abs_key:st.key ~conc_key:st.key
            ~alphabet:(List.map (fun c -> (c.Refinement.ev_name, c.Refinement.ev_args)) alphabet)
            ~depth ()
        in
        let report =
          Tracer.span Layers.s_refine_check (fun () ->
              Refinement.check ~record:b ~impl ~abs:st.abs ~conc:st.conc ~alphabet ~depth ())
        in
        let cert = Tracer.span Layers.s_cert_finish (fun () -> Certificate.finish b) in
        let encoded = Tracer.span Layers.s_cert_encode (fun () -> Certificate.encode cert) in
        let validated =
          Tracer.span Layers.s_validate (fun () -> Validator.validate_string encoded)
        in
        (report, encoded, validated))
  in
  let dt = now_ns () - t0 in
  let l = st.ledger in
  l.attempted <- l.attempted + 1;
  st.cases <- st.cases + report.Refinement.cases;
  st.cert_bytes <- st.cert_bytes + String.length encoded;
  let reference =
    match st.reference with
    | Some r -> r
    | None ->
        st.reference <- Some encoded;
        encoded
  in
  let reference = if st.plant && st.seq = 1 then reference ^ "planted" else reference in
  (match (report.Refinement.verdict, validated) with
  | Error cx, _ ->
      mismatch l "check %d: refinement reported a counterexample: %s" st.seq
        (Format.asprintf "%a" Refinement.pp_counterexample cx)
  | Ok (), Error m -> mismatch l "check %d: certificate rejected: %s" st.seq m
  | Ok (), Ok _ ->
      if not (String.equal encoded reference) then
        mismatch l "check %d: certificate differs from the first one" st.seq);
  dt

let warmup_ops = 10

let setup (ctx : ctx) ledger =
  let rng = Random.State.make [| ctx.seed; 0x52 |] in
  let abs_src = read_file (spec_path ctx "employee_abstract.trl") in
  let conc_src = read_file (spec_path ctx "employee_implementation.trl") in
  let key =
    Value.Tuple
      [
        ("EmpName", Value.String (Printf.sprintf "emp%05d" (Random.State.int rng 100_000)));
        ("EmpBirth", Value.Date (Random.State.int rng 20000));
      ]
  in
  let abs, abs_ms = make_side abs_src "EMPLOYEE" key in
  let conc, conc_ms = make_side conc_src "EMPL_IMPL" key in
  let st =
    {
      abs_src; conc_src; key; abs; conc; ledger; plant = ctx.plant; seq = 0;
      reference = None; cases = 0; cert_bytes = 0; load_ms = (abs_ms +. conc_ms) /. 2.;
    }
  in
  for _ = 1 to warmup_ops do
    ignore (run_op st)
  done;
  st.cases <- 0;
  st.cert_bytes <- 0;
  st

(** The check leaves both communities untouched: every branch ran under
    a probe. *)
let finish _ = ()
let dispose _ = ()

(** Txn.probe around one Engine.step of each alphabet event on both
    sides, for the traced run's [txn.probe_us]. *)
let sample_probes st =
  for _ = 1 to 500 do
    List.iter
      (fun (side : Refinement.side) ->
        List.iter
          (fun (c : Refinement.candidate) ->
            let ev = Event.make side.Refinement.id c.Refinement.ev_name c.Refinement.ev_args in
            Tracer.span Layers.s_txn_probe (fun () ->
                ignore
                  (Txn.probe side.Refinement.community (fun () ->
                       Engine.step side.Refinement.community (Step.Fire ev)))))
          alphabet)
      [ st.abs; st.conc ]
  done

let setup_metrics st = [ ("compile.load_ms", st.load_ms) ]

(** Counts of the refinement layer over the operations of one pass. *)
let extra_metrics st ~ops =
  let calls, check_us = Tracer.self_us Layers.s_refine_check in
  let cases = ratio st.cases ops in
  [
    metric ~samples:ops "refinement.cases_per_check" "count" cases;
    metric ~samples:calls "refinement.us_per_case" "us"
      (if cases > 0. then check_us /. cases else 0.);
    metric ~samples:ops "certificate.bytes" "B" (ratio st.cert_bytes ops);
  ]
