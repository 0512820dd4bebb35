(** Fixed pool of worker domains for read-only probe fan-out.

    A pool of size [jobs] owns [jobs - 1] persistent worker domains; the
    submitting domain always participates, so [jobs = 1] spawns nothing
    and runs strictly sequentially on the caller — that path is
    bit-identical to not having a pool at all (same evaluation order,
    same counter updates) and is the default under [dune runtest].

    Work is distributed by an atomic chunk cursor over the index range:
    each participant repeatedly claims the next chunk of indexes with
    [Atomic.fetch_and_add] until the range is exhausted.  There is no
    work stealing and no per-item queue — probes over a frozen
    {!View} are uniform enough that chunked self-scheduling (4 chunks
    per participant) balances well without deque traffic.

    The first exception raised by any participant is captured with a
    compare-and-set and re-raised on the submitting domain after the
    dispatch drains; remaining chunks are claimed but not run. *)

type job = {
  j_fn : int -> unit;
  j_n : int;
  j_chunk : int;
  j_cursor : int Atomic.t;  (** next unclaimed index *)
  j_done : int Atomic.t;  (** indexes accounted for (run or skipped) *)
  j_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  jobs : int;
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  work_cv : Condition.t;  (** new job or shutdown *)
  done_cv : Condition.t;  (** some job completed *)
  mutable seq : int;  (** bumped once per submitted job *)
  mutable job : job option;
  mutable stop : bool;
}

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Atomics, not refs: chunk claims are counted from worker domains. *)
let n_par_dispatches = Atomic.make 0
and n_par_items = Atomic.make 0
and n_seq_dispatches = Atomic.make 0
and n_seq_items = Atomic.make 0
and n_cutoff_dispatches = Atomic.make 0
and n_chunks = Atomic.make 0

(** Batches smaller than this run sequentially on the caller even when
    worker domains are idle: E15 showed pool dispatch (mutex + two
    condition-variable round trips) dominating real probe work on small
    batches.  8 items is where dispatch cost drops under ~10% of the
    cheapest measured per-item probe work. *)
let small_batch_cutoff = 8

let stats_rows () =
  [
    ("parallel dispatches", Atomic.get n_par_dispatches);
    ("parallel items", Atomic.get n_par_items);
    ("sequential dispatches", Atomic.get n_seq_dispatches);
    ("sequential items", Atomic.get n_seq_items);
    ("small-batch cutoff", small_batch_cutoff);
    ("small-batch seq dispatches", Atomic.get n_cutoff_dispatches);
    ("chunks claimed", Atomic.get n_chunks);
  ]

let reset_stats () =
  Atomic.set n_par_dispatches 0;
  Atomic.set n_par_items 0;
  Atomic.set n_seq_dispatches 0;
  Atomic.set n_seq_items 0;
  Atomic.set n_cutoff_dispatches 0;
  Atomic.set n_chunks 0

(* ------------------------------------------------------------------ *)
(* Job execution                                                       *)
(* ------------------------------------------------------------------ *)

let work_job (j : job) =
  let continue_ = ref true in
  while !continue_ do
    let start = Atomic.fetch_and_add j.j_cursor j.j_chunk in
    if start >= j.j_n then continue_ := false
    else begin
      Atomic.incr n_chunks;
      let stop = min j.j_n (start + j.j_chunk) in
      (* once a participant has failed, later chunks are claimed and
         counted but not run, so [j_done] still reaches [j_n] and the
         dispatch drains instead of deadlocking *)
      (if Atomic.get j.j_exn = None then
         try
           for i = start to stop - 1 do
             j.j_fn i
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set j.j_exn None (Some (e, bt))));
      ignore (Atomic.fetch_and_add j.j_done (stop - start))
    end
  done

let rec worker_loop t last_seq =
  Mutex.lock t.m;
  while (not t.stop) && t.seq = last_seq do
    Condition.wait t.work_cv t.m
  done;
  let seq = t.seq and job = t.job and stop = t.stop in
  Mutex.unlock t.m;
  if not stop then begin
    (match job with
    | Some j ->
        work_job j;
        (* the participant whose chunk completes the range wakes the
           submitter; broadcasting under the mutex pairs with the
           submitter's check-then-wait and cannot be lost *)
        if Atomic.get j.j_done >= j.j_n then begin
          Mutex.lock t.m;
          Condition.broadcast t.done_cv;
          Mutex.unlock t.m
        end
    | None -> ());
    worker_loop t seq
  end

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      workers = [];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      seq = 0;
      job = None;
      stop = false;
    }
  in
  (* jobs = 1 spawns no domains at all: the process stays fork-safe
     (Unix.fork refuses to run once any domain has ever been created) *)
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let jobs t = t.jobs

let shutdown t =
  match t.workers with
  | [] -> ()
  | workers ->
      Mutex.lock t.m;
      t.stop <- true;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m;
      List.iter Domain.join workers;
      t.workers <- []

let fans_out t ~n = t.jobs > 1 && n >= small_batch_cutoff && t.workers <> []

let run t ~n f =
  if n > 0 then
    if not (fans_out t ~n) then begin
      if t.jobs > 1 && t.workers <> [] && n > 1 then
        Atomic.incr n_cutoff_dispatches;
      Atomic.incr n_seq_dispatches;
      ignore (Atomic.fetch_and_add n_seq_items n);
      for i = 0 to n - 1 do
        f i
      done
    end
    else begin
      Atomic.incr n_par_dispatches;
      ignore (Atomic.fetch_and_add n_par_items n);
      let chunk = max 1 ((n + (t.jobs * 4) - 1) / (t.jobs * 4)) in
      let j =
        {
          j_fn = f;
          j_n = n;
          j_chunk = chunk;
          j_cursor = Atomic.make 0;
          j_done = Atomic.make 0;
          j_exn = Atomic.make None;
        }
      in
      Mutex.lock t.m;
      t.job <- Some j;
      t.seq <- t.seq + 1;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m;
      work_job j;
      Mutex.lock t.m;
      while Atomic.get j.j_done < n do
        Condition.wait t.done_cv t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      match Atomic.get j.j_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

(* ------------------------------------------------------------------ *)
(* Default job count                                                   *)
(* ------------------------------------------------------------------ *)

let jobs_override = ref None

let default_jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "TROLLC_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | _ -> 1)
      | None -> 1)

let set_default_jobs n = jobs_override := Some (max 1 n)
