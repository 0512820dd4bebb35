(* Shared machinery of the benchmark: the clock, sample buffers and
   order statistics, the output-check ledger, counter snapshots and the
   metric records every workload returns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3

exception Bench_error of string

let die fmt = Printf.ksprintf (fun m -> raise (Bench_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Growable buffers                                                    *)
(* ------------------------------------------------------------------ *)

(** Unboxed growable float buffer. *)
module Fvec = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 4096; n = 0 }

  let add v x =
    if v.n = Float.Array.length v.a then begin
      let b = Float.Array.create (2 * v.n) in
      Float.Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Float.Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.init v.n (fun i -> Float.Array.get v.a i)
end

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(** Quantile of a sorted array by linear interpolation between closest
    ranks; [nan] on an empty array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. ((sorted.(hi) -. sorted.(lo)) *. frac)

let sorted_of a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median xs = quantile (sorted_of (Array.of_list xs)) 0.5

(* ------------------------------------------------------------------ *)
(* Timed phase meter                                                   *)
(* ------------------------------------------------------------------ *)

(** One closed-loop timed phase, cut into 40 fixed wall-clock windows.

    Every figure is what the run sustained in three windows out of four:
    throughput is the lower quartile of the per-window rates, and each
    latency quantile is the upper quartile, across windows, of that
    quantile within the window.  On a 2-vCPU VM whose speed wandered by
    10-40% over tens of seconds (a CPU spin loop's 10-second means
    spread 38% across ten runs), whole-run figures spread 7-28%
    (throughput) and up to 53% (p99) across ten seeds; the lower
    quartile of window rates spread 4-17%, because spells when the host
    ran this VM faster only lift the upper windows.

    Latencies are kept in a uniform reservoir sample of fixed size
    (Algorithm R) allocated up front, each tagged with its window, so
    the benchmark's own memory does not grow with throughput and blur
    [peak_rss_mb]. *)
module Meter = struct
  let reservoir = 1 lsl 18

  type t = {
    lat_us : Float.Array.t;
    win : int array;  (** the window of each reservoir sample *)
    rng : Random.State.t;
    t_start : int;
    window_ns : int;
    mutable window_start : int;
    mutable window_ops : int;
    rates : Fvec.t;  (** completed windows *)
    mutable ops : int;
    mutable t_last : int;
  }

  let create ~seconds =
    let window_s = Float.max 0.1 (seconds /. 40.) in
    let t = now_ns () in
    {
      lat_us = Float.Array.make reservoir 0.;
      win = Array.make reservoir 0;
      rng = Random.State.make [| 0 |];
      t_start = t;
      window_ns = int_of_float (window_s *. 1e9);
      window_start = t;
      window_ops = 0;
      rates = Fvec.create ();
      ops = 0;
      t_last = t;
    }

  (** Record one operation of latency [lat_ns] that completed at [t1]. *)
  let record m ~lat_ns ~t1 =
    let slot =
      if m.ops < reservoir then m.ops else Random.State.full_int m.rng (m.ops + 1)
    in
    if slot < reservoir then begin
      Float.Array.set m.lat_us slot (us_of_ns lat_ns);
      m.win.(slot) <- Fvec.length m.rates
    end;
    m.ops <- m.ops + 1;
    m.t_last <- t1;
    m.window_ops <- m.window_ops + 1;
    if t1 - m.window_start >= m.window_ns then begin
      Fvec.add m.rates
        (float_of_int m.window_ops /. (float_of_int (t1 - m.window_start) *. 1e-9));
      m.window_start <- t1;
      m.window_ops <- 0
    end

  let elapsed_s m = float_of_int (m.t_last - m.t_start) *. 1e-9

  (** The lower quartile of the window rates; [None] with too few
      windows to rank. *)
  let sustained m =
    if Fvec.length m.rates >= 4 then Some (quantile (sorted_of (Fvec.to_array m.rates)) 0.25)
    else None

  let throughput m =
    match sustained m with
    | Some r -> r
    | None -> float_of_int m.ops /. Float.max 1e-9 (elapsed_s m)

  (** [(value, samples per window)] of latency quantile [q]: its upper
      quartile across the windows (over every sample when there are too
      few windows to rank). *)
  let latency m q =
    let n = min m.ops reservoir and k = Fvec.length m.rates in
    if k < 4 then (quantile (sorted_of (Array.init n (Float.Array.get m.lat_us))) q, n)
    else begin
      let by_window = Array.make k [] in
      for i = 0 to n - 1 do
        let w = m.win.(i) in
        if w < k then by_window.(w) <- Float.Array.get m.lat_us i :: by_window.(w)
      done;
      let per_window =
        Array.to_list by_window
        |> List.filter (fun l -> l <> [])
        |> List.map (fun l -> quantile (sorted_of (Array.of_list l)) q)
      in
      ( quantile (sorted_of (Array.of_list per_window)) 0.75,
        n / k )
    end
end

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(** The ledger of checked outcomes.  [refused] counts refusals the
    expectation predicted (not failures); [failed] counts outcomes that
    differ from the expectation, plus whole-run checks that failed. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable refused : int;
  mutable notes : string list;  (** the first few mismatches, newest first *)
}

let ledger () = { attempted = 0; failed = 0; refused = 0; notes = [] }

let mismatch l fmt =
  Printf.ksprintf
    (fun m ->
      l.failed <- l.failed + 1;
      if List.length l.notes < 8 then l.notes <- m :: l.notes)
    fmt

(** A whole-run check (final state, recovery, guards): one failure when
    it does not hold. *)
let expect l ok fmt =
  Printf.ksprintf (fun m -> if not ok then mismatch l "%s" m) fmt

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 0) name unit_ value = { name; value; unit_; samples }

(** [num / den], or 0 when nothing was counted. *)
let ratio num den =
  if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* Process-wide counters                                               *)
(* ------------------------------------------------------------------ *)

let row rows label =
  match List.assoc_opt label rows with
  | Some n -> n
  | None -> die "counter %S is not reported any more" label

let reset_counters () =
  Trace.reset_txn_stats ();
  Trace.reset_dispatch_stats ();
  Trace.reset_probe_stats ();
  Trace.reset_wal_stats ();
  Outbuf.reset_stats ()

(** The counters of one pass, read at its boundaries. *)
type counters = {
  txn : (string * int) list;
  dispatch : (string * int) list;
  probe : (string * int) list;
  wal : Wal.stats;
  minor_words : float;
  major_collections : int;
}

let read_counters () =
  let g = Gc.quick_stat () in
  {
    txn = Trace.txn_stats_rows ();
    dispatch = Trace.dispatch_stats_rows ();
    probe = Trace.probe_stats_rows ();
    wal = Wal.stats ();
    minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
  }

let parallel_dispatches () = row (Pool.stats_rows ()) "parallel dispatches"

(** Peak resident set of a process, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> die "cannot read %s" path
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      (match r with Some mb -> mb | None -> die "no VmHWM in %s" path)

let gc_top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

let spec_digest src = Digest.to_hex (Digest.string src)

(** Set when a workload attached a WAL (in the run's scratch directory,
    whose filesystem the runner records). *)
let wal_attached = ref false

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = {
  root : string;  (** the checkout: specs are read from here *)
  run_dir : string;  (** scratch for sockets, WALs and span dumps *)
  seed : int;
  seconds : float;
  trace : bool;
  plant : bool;  (** self-test: plant one wrong expectation *)
  cores : int;  (** the machine's processors (the run itself is pinned to one) *)
}

let spec_path ctx name = Filename.concat ctx.root ("examples/specs/" ^ name)

let load_session src =
  match Troll.Session.load src with
  | Ok s -> s
  | Error e -> die "cannot load specification: %s" (Troll.Error.to_string e)

(** Set-up repetitions per untraced run; [setup_s] is their median. *)
let setups = 7

(** Every set-up repetition is timed on its own; the last one is kept
    for the timed phase, earlier ones are released by [dispose]. *)
let repeated_setup ~setup ~dispose =
  let times = ref [] in
  let rec go i =
    let t0 = now_ns () in
    let s = setup () in
    times := (float_of_int (now_ns () - t0) *. 1e-9) :: !times;
    if i + 1 < setups then begin
      dispose s;
      go (i + 1)
    end
    else s
  in
  let s = go 0 in
  (s, median !times)

(** The end-to-end metrics of an untraced run, with the per-window
    rates behind the throughput figure. *)
let end_to_end (m : Meter.t) ~setup_s ~rss =
  let p50, per_window = Meter.latency m 0.5 and p99, _ = Meter.latency m 0.99 in
  ( [
      metric ~samples:(Fvec.length m.Meter.rates) "throughput_rps" "1/s" (Meter.throughput m);
      metric ~samples:per_window "latency_p50_us" "us" p50;
      metric ~samples:per_window "latency_p99_us" "us" p99;
      metric ~samples:setups "setup_s" "s" setup_s;
      metric ~samples:1 "peak_rss_mb" "MB" rss;
    ],
    ( "window_rates",
      Json.List (List.map (fun r -> Json.Float r) (Array.to_list (Fvec.to_array m.Meter.rates)))
    ) )

(** A workload's answer to the runner. *)
type outcome = {
  ledger : ledger;
  metrics : metric list;
  facts : (string * Json.t) list;  (** guards, exactness, provenance *)
}
