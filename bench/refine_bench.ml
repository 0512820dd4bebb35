(* E19: maximum checkable refinement depth within a fixed per-depth
 * time budget, cold vs memoized.
 *
 * The workload is the paper's EMPLOYEE / EMPL_IMPL pair
 * (bench/workload) under an alphabet with a self-loop:
 * IncreaseSalary(0) leaves the state unchanged, IncreaseSalary(100)
 * advances it, FireEmployee ends the life cycle.  The cold arm runs
 * plain Refinement.check, whose trace tree grows as ~3^d on that
 * alphabet; the memoized arm attaches a Certificate.builder and
 * persists the node table between depths (save_memo / load_memo in a
 * scratch directory — the same path `trollc refine --memo` takes), so
 * converging traces collapse onto already-certified state pairs and
 * the work per extra level stays near-linear.
 *
 * Each arm raises the depth one level at a time and stops as soon as
 * one check exceeds the budget (or the depth cap); the last depth
 * that finished inside the budget is the arm's score.  The memoized
 * arm must reach a strictly greater depth than the cold arm within
 * the same budget — that inequality is the experiment's claim.
 *
 * Usage: refine_bench [-b BUDGET_S] [-o BENCH_E19.json]
 *)

let default_out = "BENCH_E19.json"
let default_budget = 1.0
let depth_cap = 40

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let hostname () = try Unix.gethostname () with _ -> "unknown"

(* self-looping alphabet: the memo's best case, the cold tree's worst *)
let alphabet =
  [
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 0 ] };
    { Refinement.ev_name = "IncreaseSalary"; ev_args = [ Value.Int 100 ] };
    { Refinement.ev_name = "FireEmployee"; ev_args = [] };
  ]

let impl = Implementation.make ~abs_class:"EMPLOYEE" ~conc_class:"EMPL_IMPL" ()

let emp_key =
  Value.Tuple [ ("EmpName", Value.String "eve"); ("EmpBirth", Value.Date 0) ]

let make_builder ~depth =
  Certificate.builder ~abs_src:Paper_specs.employee_abstract
    ~conc_src:Paper_specs.employee_implementation ~impl ~abs_key:emp_key
    ~conc_key:emp_key
    ~alphabet:
      (List.map
         (fun (c : Refinement.candidate) ->
           (c.Refinement.ev_name, c.Refinement.ev_args))
         alphabet)
    ~depth ()

type arm = {
  arm : string;
  max_depth : int;
  total_cases : int;
  total_wall_s : float;
  last_wall_s : float;  (** the deepest in-budget check *)
}

(* raise the depth until one check blows the budget; [check_at d]
   returns (cases, verdict-holds) *)
let climb ~arm ~budget check_at =
  let total_cases = ref 0 and total_wall = ref 0.0 in
  let rec go d best last_wall =
    if d > depth_cap then (best, last_wall)
    else
      let t0 = Unix.gettimeofday () in
      let cases, holds = check_at d in
      let dt = Unix.gettimeofday () -. t0 in
      total_cases := !total_cases + cases;
      total_wall := !total_wall +. dt;
      if not holds then fail "E19 %s: refinement failed at depth %d" arm d;
      if dt > budget then (best, last_wall) else go (d + 1) d dt
  in
  let max_depth, last_wall_s = go 1 0 0.0 in
  {
    arm;
    max_depth;
    total_cases = !total_cases;
    total_wall_s = !total_wall;
    last_wall_s;
  }

let run_cold ~budget =
  (* check leaves the communities untouched (everything runs under
     probes), so one pair serves every depth *)
  let abs, conc = Workload.employee_pair () in
  climb ~arm:"cold" ~budget (fun depth ->
      let r = Refinement.check ~impl ~abs ~conc ~alphabet ~depth () in
      (r.Refinement.cases, r.Refinement.verdict = Ok ()))

let run_memoized ~budget =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "troll_e19_%d" (Unix.getpid ()))
  in
  let abs, conc = Workload.employee_pair () in
  let out =
    climb ~arm:"memoized" ~budget (fun depth ->
        let b = make_builder ~depth in
        (match Certificate.load_memo b ~dir with
        | Ok _ -> ()
        | Error e -> fail "E19 load_memo: %s" e);
        let r = Refinement.check ~record:b ~impl ~abs ~conc ~alphabet ~depth () in
        (match Certificate.save_memo b ~dir with
        | Ok () -> ()
        | Error e -> fail "E19 save_memo: %s" e);
        (r.Refinement.cases, r.Refinement.verdict = Ok ()))
  in
  (if Sys.file_exists dir then begin
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
     Sys.rmdir dir
   end);
  out

let json_of_arm a =
  Printf.sprintf
    "    {\"arm\": \"%s\", \"max_depth\": %d, \"total_cases\": %d, \
     \"total_wall_s\": %.3f, \"last_wall_s\": %.3f}"
    a.arm a.max_depth a.total_cases a.total_wall_s a.last_wall_s

let () =
  let budget = ref default_budget and out = ref default_out in
  let rec parse = function
    | [] -> ()
    | "-b" :: v :: rest ->
        budget := float_of_string v;
        parse rest
    | "-o" :: v :: rest ->
        out := v;
        parse rest
    | a :: _ -> fail "unknown argument %s" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cold = run_cold ~budget:!budget in
  let memo = run_memoized ~budget:!budget in
  Printf.printf "E19 cold      max depth %2d (%d cases, %.2fs total)\n"
    cold.max_depth cold.total_cases cold.total_wall_s;
  Printf.printf "E19 memoized  max depth %2d (%d cases, %.2fs total)\n"
    memo.max_depth memo.total_cases memo.total_wall_s;
  if memo.max_depth <= cold.max_depth then
    fail
      "E19: memoized max depth %d is not strictly greater than cold %d inside \
       a %.2fs budget"
      memo.max_depth cold.max_depth !budget;
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E19\",\n\
    \  \"git_rev\": \"%s\",\n\
    \  \"date\": \"%s\",\n\
    \  \"host\": \"%s\",\n\
    \  \"cores\": %d,\n\
    \  \"budget_s\": %.2f,\n\
    \  \"depth_cap\": %d,\n\
    \  \"results\": [\n%s,\n%s\n  ]\n\
     }\n"
    (Workload.git_rev ()) (Workload.iso_date ()) (hostname ())
    (Domain.recommended_domain_count ())
    !budget depth_cap (json_of_arm cold) (json_of_arm memo);
  close_out oc;
  Printf.printf "wrote %s\n" !out
