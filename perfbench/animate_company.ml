(* animate-company: in-process, the per-command work of `trollc run` on
   examples/specs/company.trl; the traced run adds the WAL, as
   `trollc run --wal DIR --snapshot-every 4096` would.

   Why: the engine (event calling closure, parametric temporal monitors,
   phase constraints, set-valued attributes, transaction rollback) does
   nearly all the work; no server, wire codec or view-freeze code runs.
   With the WAL attached, each DEPT commit re-encodes the department's
   employee set and its whole `fire` monitor instance table, so the WAL
   append is the largest single cost (about half of an operation).

   Why the WAL is attached only in the traced run: the benchmark may
   write only inside its checkout, which is not RAM-backed, and the WAL
   appends ~5.5 kB per DEPT commit.  Measured on a 2-core box, 5 runs
   each, with the WAL on ext4: 17.6-23.6k ops/s, run-to-run spread 18%
   (p50 21%); on tmpfs: 27.2-30.1k ops/s, spread 8%.  So the end-to-end
   run measures the engine alone, and the traced run measures the
   durability layer (the wal metrics) and checks that a Wal.recover of
   the log dumps the final state.

   Most work: Engine / Dispatch / Monitor / Eval (step path), Txn
   commits, Interface, and in the traced run Effect_log / Wal.  Little
   or none: Json, Frame, Protocol, Server, Outbuf, View, Pool,
   Refinement, Certificate, Validator.

   The community has 256 PERSONs (a quarter earning at least 5,000) and
   8 DEPTs.  Set-up hires and fires every PERSON in a fixed, seeded half
   of the DEPTs, which fills each DEPT's parametric `fire` monitor to
   its final size before timing; `fire` on the other pairs stays
   refused because its permission is `sometime(after(hire(P)))`.  Set-up
   also re-hires a seeded half of those pairs and promotes every initial
   high earner to MANAGER, so the society starts in the state the mix
   keeps it in: a run measures the same society however far it gets.
   Every verdict and every value read is predicted by a shadow model
   kept by the benchmark, independently of the engine.

   The shadow model follows the engine's current behaviour in one place
   the paper would judge differently: a ChangeSalary that takes a
   MANAGER below 5,000 is accepted (the engine does not re-check the
   phase's static constraint on that step).  Should the engine start
   refusing it, the check reports the change as a mismatch. *)

open Common

let n_persons = 256
let n_depts = 8
let dept_names = [| "Research"; "Sales"; "Operations"; "Legal" |]
let manager_floor = Money.of_units 5000

type op =
  | Hire of int * int  (** dept, person *)
  | Fire of int * int
  | Change_salary of int * Money.t
  | Move of int * int  (** person, index into [dept_names] *)
  | New_manager of int * int  (** dept, person *)
  | Seq of op list  (** one transaction; a refused member rolls it back *)
  | Read_salary of int
  | Read_employees of int
  | Read_dept of int
  | Income of int  (** SAL_EMPLOYEE2.CurrentIncomePerYear (derived) *)
  | Raise of int  (** SAL_EMPLOYEE2.IncreaseSalary (derived event) *)
  | Probe_fire of int * int  (** Engine.enabled of DEPT.fire(P) *)

(* ------------------------------------------------------------------ *)
(* The shadow model                                                    *)
(* ------------------------------------------------------------------ *)

type shadow = {
  salary : Money.t array;
  dept : int array;
  manager : bool array;  (** has entered the MANAGER phase *)
  half : bool array;  (** [d * n_persons + p]: hired during set-up *)
  member : bool array;  (** [d * n_persons + p]: currently employed *)
}

let pair d p = (d * n_persons) + p

type verdict = Accepted | Refused of string

let rec predict sh = function
  | Hire _ | Change_salary _ | Move _ | Raise _ -> Accepted
  | Fire (d, p) -> if sh.half.(pair d p) then Accepted else Refused "permission_denied"
  | New_manager (_, p) ->
      if sh.manager.(p) || Money.compare sh.salary.(p) manager_floor >= 0 then
        Accepted
      else Refused "constraint_violated"
  | Seq members ->
      (* members touch disjoint state, so each is judged on the state
         before the transaction *)
      List.fold_left
        (fun v m -> match v with Accepted -> predict sh m | r -> r)
        Accepted members
  | Read_salary _ | Read_employees _ | Read_dept _ | Income _ | Probe_fire _ ->
      Accepted

let rec apply sh = function
  | Hire (d, p) -> sh.member.(pair d p) <- true
  | Fire (d, p) -> sh.member.(pair d p) <- false
  | Change_salary (p, m) -> sh.salary.(p) <- m
  | Move (p, k) -> sh.dept.(p) <- k
  | New_manager (_, p) -> sh.manager.(p) <- true
  | Raise p -> sh.salary.(p) <- Money.scale_decimal sh.salary.(p) ~mantissa:11 ~decimals:1
  | Seq members -> List.iter (apply sh) members
  | Read_salary _ | Read_employees _ | Read_dept _ | Income _ | Probe_fire _ -> ()

(* ------------------------------------------------------------------ *)
(* Identities and the seeded generator                                 *)
(* ------------------------------------------------------------------ *)

type ids = {
  person_key : Value.t array;
  person : Ident.t array;
  person_ref : Value.t array;
  dept : Ident.t array;
}

let make_ids rng =
  let person_key =
    Array.init n_persons (fun p ->
        Value.Tuple
          [
            ("Name", Value.String (Printf.sprintf "p%03d" p));
            ("Birthdate", Value.Date (Random.State.int rng 20000));
          ])
  in
  {
    person_key;
    person = Array.map (Ident.make "PERSON") person_key;
    person_ref = Array.map (fun k -> Value.Id ("PERSON", k)) person_key;
    dept =
      Array.init n_depts (fun d -> Ident.make "DEPT" (Value.String (Printf.sprintf "D%d" d)));
  }

let random_salary rng ~high =
  if high then Money.of_cents (500_000 + Random.State.int rng 400_000)
  else Money.of_cents (100_000 + Random.State.int rng 400_000)

(** Initial shadow: salaries (the first quarter of a seeded permutation
    earns at least 5,000) and each person's fixed half of the DEPTs. *)
let initial_shadow rng =
  let perm = Array.init n_persons Fun.id in
  for i = n_persons - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let salary = Array.make n_persons Money.zero in
  Array.iteri
    (fun rank p -> salary.(p) <- random_salary rng ~high:(rank < n_persons / 4))
    perm;
  let half = Array.make (n_depts * n_persons) false in
  for p = 0 to n_persons - 1 do
    let ds = Array.init n_depts Fun.id in
    for i = n_depts - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = ds.(i) in
      ds.(i) <- ds.(j);
      ds.(j) <- t
    done;
    for i = 0 to (n_depts / 2) - 1 do
      half.(pair ds.(i) p) <- true
    done
  done;
  {
    salary;
    dept = Array.init n_persons (fun _ -> Random.State.int rng (Array.length dept_names));
    manager = Array.make n_persons false;
    half;
    member = Array.make (n_depts * n_persons) false;
  }

let rec pick_pair rng sh ~in_half =
  let d = Random.State.int rng n_depts and p = Random.State.int rng n_persons in
  if sh.half.(pair d p) = in_half then (d, p) else pick_pair rng sh ~in_half

let toggle rng sh =
  let d, p = pick_pair rng sh ~in_half:true in
  if sh.member.(pair d p) then Fire (d, p) else Hire (d, p)

(** A [new_manager] target that keeps the set of MANAGER phases fixed
    after set-up: a manager (accepted: re-appointment) or a non-manager
    earning less than 5,000 (refused: the phase birth violates the
    MANAGER constraint), half and half.  Letting new phases be born
    would grow the society during the timed phase, so its throughput
    would depend on how far a run got. *)
let rec appointee rng sh =
  let p = Random.State.int rng n_persons in
  let want_manager = Random.State.bool rng in
  let rec find k =
    let q = (p + k) mod n_persons in
    if k = n_persons then appointee rng sh
    else if want_manager && sh.manager.(q) then q
    else if
      (not want_manager) && (not sh.manager.(q))
      && Money.compare sh.salary.(q) manager_floor < 0
    then q
    else find (k + 1)
  in
  find 0

(** The seeded steady mix (percent): 30 hire/fire toggles, 5 refused
    fires, 10 ChangeSalary, 5 move_dept, 5 new_manager, 5 seq
    transactions (half of them roll back), 20 attribute reads, 5
    derived-attribute reads and 5 derived events through the
    SAL_EMPLOYEE2 interface, 10 Engine.enabled probes. *)
let gen rng sh =
  let person () = Random.State.int rng n_persons in
  match Random.State.int rng 100 with
  | r when r < 30 -> toggle rng sh
  | r when r < 35 ->
      let d, p = pick_pair rng sh ~in_half:false in
      Fire (d, p)
  | r when r < 45 ->
      Change_salary (person (), random_salary rng ~high:(Random.State.bool rng))
  | r when r < 50 -> Move (person (), Random.State.int rng (Array.length dept_names))
  | r when r < 55 -> New_manager (Random.State.int rng n_depts, appointee rng sh)
  | r when r < 60 ->
      let last =
        if Random.State.bool rng then
          let d, p = pick_pair rng sh ~in_half:false in
          Fire (d, p)
        else Move (person (), Random.State.int rng (Array.length dept_names))
      in
      Seq [ toggle rng sh; Change_salary (person (), random_salary rng ~high:true); last ]
  | r when r < 70 -> Read_salary (person ())
  | r when r < 75 -> Read_employees (Random.State.int rng n_depts)
  | r when r < 80 -> Read_dept (person ())
  | r when r < 85 -> Income (person ())
  | r when r < 90 -> Raise (person ())
  | _ ->
      Probe_fire (Random.State.int rng n_depts, person ())

(* ------------------------------------------------------------------ *)
(* Execution against the program                                       *)
(* ------------------------------------------------------------------ *)

type observed =
  | Stepped of Engine.step_result
  | Read of (Value.t, string) result
  | Probed of bool

let rec event ids = function
  | Hire (d, p) -> Event.make ids.dept.(d) "hire" [ ids.person_ref.(p) ]
  | Fire (d, p) -> Event.make ids.dept.(d) "fire" [ ids.person_ref.(p) ]
  | Change_salary (p, m) -> Event.make ids.person.(p) "ChangeSalary" [ Value.Money m ]
  | Move (p, k) ->
      Event.make ids.person.(p) "move_dept" [ Value.String dept_names.(k) ]
  | New_manager (d, p) -> Event.make ids.dept.(d) "new_manager" [ ids.person_ref.(p) ]
  | op -> die "no single event for %s" (match op with Seq _ -> "seq" | _ -> "read")

and step_of ids = function
  | Seq members -> Step.Seq (List.map (event ids) members)
  | op -> Step.Fire (event ids op)

type state = {
  session : Troll.Session.t;
  community : Community.t;
  sal_view : Interface.t;
  wal : Wal.t option;  (** attached in traced runs only *)
  wal_dir : string;
  src : string;
  ids : ids;
  sh : shadow;
  rng : Random.State.t;
  ledger : ledger;
  mutable seq : int;  (** operations issued so far *)
  plant : bool;
  load_ms : float;
  attach_ms : float;
}

let timed_step st step =
  Tracer.enter ();
  let r = Troll.Session.step st.session step in
  Tracer.leave (match r with Ok _ -> Layers.s_step_accepted | Error _ -> Layers.s_step_rejected);
  Stepped r

let exec st op =
  match op with
  | Hire _ | Fire _ | Change_salary _ | Move _ | New_manager _ | Seq _ ->
      timed_step st (step_of st.ids op)
  | Read_salary p ->
      Tracer.span Layers.s_session_attr (fun () ->
          Read
            (Result.map_error Troll.Error.code
               (Troll.Session.attr st.session st.ids.person.(p) "Salary")))
  | Read_dept p ->
      Tracer.span Layers.s_session_attr (fun () ->
          Read
            (Result.map_error Troll.Error.code
               (Troll.Session.attr st.session st.ids.person.(p) "Dept")))
  | Read_employees d ->
      Tracer.span Layers.s_session_attr (fun () ->
          Read
            (Result.map_error Troll.Error.code
               (Troll.Session.attr st.session st.ids.dept.(d) "employees")))
  | Income p ->
      Tracer.span Layers.s_iface_attr (fun () ->
          Read
            (Result.map_error Runtime_error.code
               (Interface.attr st.sal_view [ ("PERSON", st.ids.person.(p)) ]
                  "CurrentIncomePerYear" [])))
  | Raise p ->
      Tracer.span Layers.s_iface_fire (fun () ->
          Stepped
            (Interface.fire st.sal_view [ ("PERSON", st.ids.person.(p)) ] "IncreaseSalary"
               []))
  | Probe_fire (d, p) ->
      Tracer.span Layers.s_enabled (fun () ->
          Probed
            (Engine.enabled st.community
               (Event.make st.ids.dept.(d) "fire" [ st.ids.person_ref.(p) ])))

let expected_value st = function
  | Read_salary p -> Value.Money st.sh.salary.(p)
  | Read_dept p -> Value.String dept_names.(st.sh.dept.(p))
  | Read_employees d ->
      let ms = ref [] in
      for p = n_persons - 1 downto 0 do
        if st.sh.member.(pair d p) then ms := st.ids.person_ref.(p) :: !ms
      done;
      Value.set !ms
  | Income p ->
      Value.Money (Money.scale_decimal st.sh.salary.(p) ~mantissa:135 ~decimals:1)
  | _ -> Value.Undefined

let describe op =
  match op with
  | Hire (d, p) -> Printf.sprintf "hire(D%d, p%03d)" d p
  | Fire (d, p) -> Printf.sprintf "fire(D%d, p%03d)" d p
  | Change_salary (p, m) -> Printf.sprintf "p%03d.ChangeSalary(%s)" p (Money.to_string m)
  | Move (p, k) -> Printf.sprintf "p%03d.move_dept(%s)" p dept_names.(k)
  | New_manager (d, p) -> Printf.sprintf "D%d.new_manager(p%03d)" d p
  | Seq ms -> Printf.sprintf "seq of %d" (List.length ms)
  | Read_salary p -> Printf.sprintf "p%03d.Salary" p
  | Read_employees d -> Printf.sprintf "D%d.employees" d
  | Read_dept p -> Printf.sprintf "p%03d.Dept" p
  | Income p -> Printf.sprintf "SAL_EMPLOYEE2(p%03d).CurrentIncomePerYear" p
  | Raise p -> Printf.sprintf "SAL_EMPLOYEE2(p%03d).IncreaseSalary" p
  | Probe_fire (d, p) -> Printf.sprintf "enabled D%d.fire(p%03d)" d p

(** Compare the observed outcome with the shadow's prediction, then
    advance the shadow.  [planted] flips the expectation of this one
    operation (the self-test's wrong expectation). *)
let check st op ~planted observed =
  let l = st.ledger in
  l.attempted <- l.attempted + 1;
  match observed with
  | Stepped r ->
      let want = predict st.sh op in
      let want =
        if planted then (match want with Accepted -> Refused "planted" | Refused _ -> Accepted)
        else want
      in
      (match (want, r) with
      | Accepted, Ok _ -> apply st.sh op
      | Refused code, Error reason when String.equal code (Runtime_error.code reason) ->
          l.refused <- l.refused + 1
      | Accepted, Error reason ->
          mismatch l "%s: refused (%s), shadow expected acceptance" (describe op)
            (Runtime_error.reason_to_string reason)
      | Refused code, Ok _ -> mismatch l "%s: accepted, shadow expected %s" (describe op) code
      | Refused code, Error reason ->
          mismatch l "%s: refused with %s, shadow expected %s" (describe op)
            (Runtime_error.code reason) code)
  | Read r -> (
      let want = expected_value st op in
      let want = if planted then Value.Undefined else want in
      match r with
      | Ok v when Value.equal v want -> ()
      | Ok v ->
          mismatch l "%s = %s, shadow expected %s" (describe op) (Value.to_string v)
            (Value.to_string want)
      | Error code -> mismatch l "%s failed: %s" (describe op) code)
  | Probed b ->
      let want = match op with Probe_fire (d, p) -> st.sh.half.(pair d p) | _ -> false in
      let want = if planted then not want else want in
      if b <> want then mismatch l "%s = %b, shadow expected %b" (describe op) b want

(** Issue, time and check one operation; returns its duration in ns.
    The checks run outside the timed call. *)
let run_op st =
  let op = gen st.rng st.sh in
  st.seq <- st.seq + 1;
  Tracer.set_op st.seq;
  let t0 = now_ns () in
  let observed = Tracer.span Layers.s_op (fun () -> exec st op) in
  let dt = now_ns () - t0 in
  check st op ~planted:(st.plant && st.seq = 1) observed;
  dt

(* ------------------------------------------------------------------ *)
(* Set-up, final checks                                                *)
(* ------------------------------------------------------------------ *)

let warmup_ops = 3000

(* `trollc run --wal DIR --snapshot-every 4096`: compaction bounds the
   log the final check recovers.  Without it, recovering a 10-second
   run replays ~100k DEPT records and peaks above 2 GB; with it the
   snapshot costs well under 1% of the operations. *)
let snapshot_every = 4096

let must st what = function
  | Ok _ -> ()
  | Error r -> mismatch st.ledger "set-up %s refused: %s" what (Runtime_error.reason_to_string r)

let setup (ctx : ctx) ledger =
  let rng = Random.State.make [| ctx.seed; 0x41 |] in
  let src = read_file (spec_path ctx "company.trl") in
  let t0 = now_ns () in
  let session = load_session src in
  let load_ms = float_of_int (now_ns () - t0) /. 1e6 in
  let community = Troll.Session.community session in
  let wal_dir = Filename.concat ctx.run_dir "animate-wal" in
  let t0 = now_ns () in
  let wal =
    if not ctx.trace then None
    else begin
      fresh_dir wal_dir;
      match
        Wal.attach ~dir:wal_dir ~spec_digest:(spec_digest src) ~fsync:`Never ~snapshot_every
          community
      with
      | Ok (w, _) ->
          Layers.time_wal_appends community;
          wal_attached := true;
          Some w
      | Error m -> die "wal attach: %s" m
    end
  in
  let attach_ms = float_of_int (now_ns () - t0) /. 1e6 in
  let sal_view =
    match Troll.Session.view session "SAL_EMPLOYEE2" with
    | Some v -> v
    | None -> die "company.trl has no SAL_EMPLOYEE2 interface"
  in
  let ids = make_ids rng in
  let sh = initial_shadow rng in
  let st =
    {
      session; community; sal_view; wal; wal_dir; src; ids; sh; rng; ledger; seq = 0;
      plant = ctx.plant; load_ms; attach_ms;
    }
  in
  Array.iter
    (fun id ->
      must st "DEPT birth"
        (Troll.Session.step session
           (Step.Create { cls = "DEPT"; key = id.Ident.key; event = None; args = [] })))
    ids.dept;
  Array.iteri
    (fun p key ->
      must st "PERSON birth"
        (Troll.Session.step session
           (Step.Create
              {
                cls = "PERSON";
                key;
                event = None;
                args = [ Value.Money sh.salary.(p); Value.String dept_names.(sh.dept.(p)) ];
              })))
    ids.person_key;
  (* every PERSON hired and fired in its half of the DEPTs, then
     re-hired in a seeded half of those: the membership the hire/fire
     toggles keep in balance, reached before timing *)
  let step op =
    must st (describe op) (Troll.Session.step session (step_of ids op));
    apply sh op
  in
  for p = 0 to n_persons - 1 do
    for d = 0 to n_depts - 1 do
      if sh.half.(pair d p) then begin
        step (Hire (d, p));
        step (Fire (d, p));
        if Random.State.bool rng then step (Hire (d, p))
      end
    done
  done;
  (* the MANAGER phases of the run: every initial high earner *)
  for p = 0 to n_persons - 1 do
    if Money.compare sh.salary.(p) manager_floor >= 0 then step (New_manager (p mod n_depts, p))
  done;
  for _ = 1 to warmup_ops do
    ignore (run_op st)
  done;
  st

(** The final state must equal a recovery of the WAL into a fresh
    community compiled from the same source. *)
let finish st =
  Option.iter
    (fun wal ->
      Wal.detach wal;
      let fresh = load_session st.src in
      (match
         Wal.recover ~dir:st.wal_dir ~spec_digest:(spec_digest st.src)
           (Troll.Session.community fresh)
       with
      | Error m -> mismatch st.ledger "WAL recovery failed: %s" m
      | Ok _ ->
          expect st.ledger
            (String.equal (Troll.Session.save st.session) (Troll.Session.save fresh))
            "final Persist.save differs from Wal.recover of its WAL");
      rm_rf st.wal_dir)
    st.wal

let dispose st =
  Option.iter
    (fun wal ->
      Wal.detach wal;
      rm_rf st.wal_dir)
    st.wal

(** Txn.probe around one Engine.step of a workload event, for the
    traced run's [txn.probe_us]. *)
let sample_probes st =
  for i = 0 to 1999 do
    let d = i mod n_depts and p = i mod n_persons in
    let ev = event st.ids (if st.sh.half.(pair d p) then Fire (d, p) else Hire (d, p)) in
    Tracer.span Layers.s_txn_probe (fun () ->
        ignore (Txn.probe st.community (fun () -> Engine.step st.community (Step.Fire ev))))
  done

let setup_metrics st =
  ("compile.load_ms", st.load_ms)
  :: (if Option.is_some st.wal then [ ("wal.attach_ms", st.attach_ms) ] else [])

let extra_metrics _ ~ops:_ = []
