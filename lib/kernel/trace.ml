(** Life-cycle inspection: the recorded trace of an object as data and
    as text.

    "Objects are processes": an object's meaning is its life cycle.
    When a community is created with [record_history = true], every
    step an object participates in is recorded; this module presents
    those traces oldest-first, with the events of each step and the
    attribute state after it — the operational counterpart of the
    paper's observable processes, and the raw material for the naive
    permission checker and liveness auditing. *)

type entry = {
  step : int;  (** 0-based position in the life cycle *)
  events : Event.t list;  (** the synchronous step's events at this object *)
  attrs : (string * Value.t) list;  (** observable state after the step *)
}

(** The recorded life cycle, oldest step first.  Empty when history
    recording is off or the object has not lived yet. *)
let of_object (o : Obj_state.t) : entry list =
  List.rev o.Obj_state.history
  |> List.mapi (fun i (h : Obj_state.history_entry) ->
         {
           step = i;
           events = h.Obj_state.h_events;
           attrs =
             Obj_state.attrs_bindings o.Obj_state.template
               h.Obj_state.h_attrs;
         })

let length (o : Obj_state.t) = List.length o.Obj_state.history

(** The subsequence of steps in which an event with the given name
    occurred. *)
let occurrences (o : Obj_state.t) (event_name : string) : entry list =
  List.filter
    (fun e ->
      List.exists
        (fun (ev : Event.t) -> String.equal ev.Event.name event_name)
        e.events)
    (of_object o)

let pp_entry ppf e =
  Format.fprintf ppf "@[<v 2>step %d: %s" e.step
    (String.concat ", " (List.map Event.to_string e.events));
  List.iter
    (fun (n, v) -> Format.fprintf ppf "@,%s = %a" n Value.pp v)
    e.attrs;
  Format.fprintf ppf "@]"

let pp ppf (o : Obj_state.t) =
  Format.fprintf ppf "@[<v>life cycle of %a (%d step(s)):@,%a@]" Ident.pp
    o.Obj_state.id (length o)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_entry)
    (of_object o)

let to_string o = Format.asprintf "%a" pp o

(* ------------------------------------------------------------------ *)
(* Transaction statistics                                              *)
(* ------------------------------------------------------------------ *)

let txn_stats = Txn.stats
let reset_txn_stats = Txn.reset_stats

(** The counters as labelled rows, for tabular front ends. *)
let txn_stats_rows () =
  let s = Txn.stats () in
  [
    ("transactions begun", s.Txn.begun);
    ("transactions committed", s.Txn.committed);
    ("transactions rolled back", s.Txn.rolled_back);
    ("savepoints", s.Txn.savepoints);
    ("savepoint rollbacks", s.Txn.savepoint_rollbacks);
    ("probes", s.Txn.probes);
    ("journal entries", s.Txn.journal_entries);
    ("bytes snapshotted", s.Txn.bytes_snapshotted);
  ]

let pp_txn_stats ppf () = Txn.pp_stats ppf (Txn.stats ())

(* ------------------------------------------------------------------ *)
(* Compiled-dispatch statistics                                        *)
(* ------------------------------------------------------------------ *)

let dispatch_stats = Dispatch.stats
let reset_dispatch_stats = Dispatch.reset_stats
let dispatch_stats_rows = Dispatch.stats_rows
let pp_dispatch_stats = Dispatch.pp_stats

(* ------------------------------------------------------------------ *)
(* Parallel-probe statistics                                           *)
(* ------------------------------------------------------------------ *)

(** View freezes/thaws and pool dispatch counters as labelled rows —
    the "probe statistics" block of [trollc run --stats] and the
    server's stats frame. *)
let probe_stats_rows () = View.stats_rows () @ Pool.stats_rows ()

let reset_probe_stats () =
  View.reset_stats ();
  Pool.reset_stats ()

(* ------------------------------------------------------------------ *)
(* WAL statistics                                                      *)
(* ------------------------------------------------------------------ *)

let wal_stats = Wal.stats
let reset_wal_stats = Wal.reset_stats

(** Durability counters as labelled rows — the "wal statistics" block of
    [trollc run --stats] and the server's stats frame. *)
let wal_stats_rows () =
  let s = Wal.stats () in
  [
    ("wal batches", s.Wal.batches);
    ("wal effects", s.Wal.effects);
    ("wal bytes", s.Wal.bytes);
    ("wal fsyncs", s.Wal.fsyncs);
    ("wal fsync total us", s.Wal.fsync_total_us);
    ("wal fsync max us", s.Wal.fsync_max_us);
    ("wal snapshots", s.Wal.snapshots);
    ("wal records replayed", s.Wal.replayed);
    ("wal torn records dropped", s.Wal.torn_dropped);
  ]

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)
(* ------------------------------------------------------------------ *)

module Latency = struct
  (* log2 buckets over microseconds: bucket [i] counts samples with
     us <= 2^i, the last bucket is the overflow.  31 buckets cover
     1 us .. ~17 min, enough for any request latency. *)
  let bucket_count = 32

  type t = {
    buckets : int array;  (** [bucket_count] counts, last = overflow *)
    mutable count : int;
    mutable sum_us : float;
    mutable max_us : float;
  }

  let create () =
    {
      buckets = Array.make bucket_count 0;
      count = 0;
      sum_us = 0.;
      max_us = 0.;
    }

  let bucket_of_us us =
    let rec find i bound =
      if i >= bucket_count - 1 then bucket_count - 1
      else if us <= bound then i
      else find (i + 1) (bound *. 2.)
    in
    find 0 1.

  let record t seconds =
    let us = seconds *. 1e6 in
    let us = if us < 0. then 0. else us in
    t.buckets.(bucket_of_us us) <- t.buckets.(bucket_of_us us) + 1;
    t.count <- t.count + 1;
    t.sum_us <- t.sum_us +. us;
    if us > t.max_us then t.max_us <- us

  let count t = t.count
  let mean_us t = if t.count = 0 then 0. else t.sum_us /. float_of_int t.count
  let max_us t = t.max_us

  (** Non-empty buckets as [(upper bound in us, count)]; the overflow
      bucket reports an infinite bound. *)
  let buckets t =
    let rows = ref [] in
    let bound = ref 1. in
    for i = 0 to bucket_count - 1 do
      if t.buckets.(i) > 0 then
        rows :=
          ( (if i = bucket_count - 1 then infinity else !bound),
            t.buckets.(i) )
          :: !rows;
      bound := !bound *. 2.
    done;
    List.rev !rows

  (** Smallest bucket upper bound such that at least [q] (0..1) of the
      samples fall at or below it — an upper estimate of the
      q-quantile. *)
  let quantile_us t q =
    if t.count = 0 then 0.
    else begin
      let target =
        int_of_float (ceil (q *. float_of_int t.count))
        |> max 1 |> min t.count
      in
      let seen = ref 0 and bound = ref 1. and result = ref infinity in
      (try
         for i = 0 to bucket_count - 1 do
           seen := !seen + t.buckets.(i);
           if !seen >= target then begin
             result := (if i = bucket_count - 1 then infinity else !bound);
             raise Exit
           end;
           bound := !bound *. 2.
         done
       with Exit -> ());
      !result
    end
end
