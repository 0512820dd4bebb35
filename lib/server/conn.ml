(** The connection core — see the interface. *)

type policy = { high_water : int; low_water : int; evict_after : float }

let default_policy =
  { high_water = 1 lsl 20; low_water = 1 lsl 16; evict_after = 30. }

type 'a t = {
  fd : Unix.file_descr;
  out_fd : Unix.file_descr;  (** = [fd] except in stdio mode *)
  inbuf : Inbuf.t;
  out : Outbuf.t;
  data : 'a;
  set : 'a set;
  upstream : bool;
  owned : bool;
  mutable alive : bool;
  mutable reading : bool;
      (** false after input EOF: the connection only drains *)
  mutable paused_since : float;
      (** 0. = reading normally; otherwise the time the output backlog
          crossed the high-water mark and reading stopped *)
}

and 'a set = {
  policy : policy;
  fresh : unit -> 'a;
  idle : 'a t -> bool;
  on_close : 'a t -> unit;
  mutable conns : 'a t list;
  mutable listener : Unix.file_descr option;
  mutable pauses : int;
  mutable resumes : int;
  mutable evictions : int;
  mutable malformed : int;
}

let create ?(policy = default_policy) ~fresh ~idle ~on_close () =
  {
    policy;
    fresh;
    idle;
    on_close;
    conns = [];
    listener = None;
    pauses = 0;
    resumes = 0;
    evictions = 0;
    malformed = 0;
  }

let add set ?(upstream = false) ?(owned = true) ?out_fd fd data =
  (* reads go until one comes back short, so they must never block *)
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let out_fd = Option.value out_fd ~default:fd in
  let c =
    {
      fd;
      out_fd;
      inbuf = Inbuf.create ();
      out = Outbuf.create out_fd;
      data;
      set;
      upstream;
      owned;
      alive = true;
      reading = true;
      paused_since = 0.;
    }
  in
  set.conns <- c :: set.conns;
  c

let data c = c.data
let alive c = c.alive
let reading c = c.reading
let conns set = set.conns
let malformed set = set.malformed
let send c frame = Outbuf.add_frame c.out frame
let send_error c ~id err = send c (Protocol.error_frame ~id err)

let close c =
  if c.alive then begin
    c.alive <- false;
    c.reading <- false;
    (* frames already encoded get one last best-effort write *)
    Outbuf.flush c.out;
    Outbuf.kill c.out;
    c.set.on_close c;
    if c.owned then begin
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      if c.out_fd <> c.fd then
        try Unix.close c.out_fd with Unix.Unix_error _ -> ()
    end
  end

let flushed set =
  List.for_all (fun c -> not (Outbuf.need_write c.out)) set.conns

let bad_request msg = Protocol.Wire_error.make ~code:"bad_request" msg

(* Read a select-ready connection dry: everything the kernel holds is
   framed in this wakeup, and the frame-error rule applies. *)
let read c on_frame =
  let status =
    Inbuf.read c.inbuf c.fd (fun r ->
        if c.alive then
          match r with
          | Frame.Frame doc -> on_frame c doc
          | Frame.Malformed msg when not c.upstream ->
              c.set.malformed <- c.set.malformed + 1;
              send_error c ~id:Json.Null
                (bad_request (Printf.sprintf "malformed frame: %s" msg))
          | Frame.Malformed _ | Frame.Eof -> close c)
  in
  if c.alive then
    match status with
    | Inbuf.Open -> ()
    | Inbuf.Eof when not c.upstream -> c.reading <- false
    | Inbuf.Overlong when not c.upstream ->
        send_error c ~id:Json.Null (bad_request Frame.too_long);
        close c
    | Inbuf.Eof | Inbuf.Overlong -> close c

let turn ?only set ~accept ~timeout on_frame =
  let conns = Option.value only ~default:set.conns in
  let listener = if accept then set.listener else None in
  let read_fds =
    Option.to_list listener
    @ List.filter_map
        (fun c -> if c.reading && c.paused_since = 0. then Some c.fd else None)
        conns
  in
  let write_fds =
    List.filter_map
      (fun c -> if Outbuf.need_write c.out then Some c.out_fd else None)
      conns
  in
  match Unix.select read_fds write_fds [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, writable, _ ->
      (* drain writable backlogs first: room opens up before this turn's
         work appends more *)
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.out_fd = fd) conns with
          | Some c when c.alive ->
              Outbuf.flush c.out;
              if c.upstream && not (Outbuf.alive c.out) then close c
          | _ -> ())
        writable;
      List.iter
        (fun fd ->
          if Some fd = listener then begin
            match Unix.accept fd with
            | exception Unix.Unix_error (_, _, _) -> ()
            | cfd, _ -> ignore (add set cfd (set.fresh ()))
          end
          else
            match List.find_opt (fun c -> c.fd = fd) conns with
            | Some c when c.alive -> read c on_frame
            | _ -> ())
        ready

let police set =
  let p = set.policy in
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if c.alive then begin
        Outbuf.flush c.out;
        if not (Outbuf.alive c.out) then close c
        else if not c.upstream then begin
          let backlog = Outbuf.pending c.out in
          if c.paused_since = 0. then begin
            if backlog >= p.high_water then begin
              c.paused_since <- now;
              set.pauses <- set.pauses + 1
            end
          end
          else if backlog <= p.low_water then begin
            c.paused_since <- 0.;
            set.resumes <- set.resumes + 1
          end;
          if c.owned && (not c.reading) && backlog = 0 && set.idle c then
            close c
        end
      end)
    set.conns;
  (* a peer that sat at its pause for the whole window is not draining:
     its backlog (and a read stopped for good) must not outlive it *)
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if
        c.alive && c.paused_since > 0.
        && now -. c.paused_since >= p.evict_after
      then begin
        set.evictions <- set.evictions + 1;
        close c
      end)
    set.conns;
  set.conns <- List.filter (fun c -> c.alive) set.conns

let listen_unix set ~path ~stop f =
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let previous =
    List.filter_map
      (fun s ->
        try Some (s, Sys.signal s (Sys.Signal_handle (fun _ -> stop ())))
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigint; Sys.sigterm ]
  in
  set.listener <- Some listener;
  let result = f () in
  set.listener <- None;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  List.iter close set.conns;
  set.conns <- [];
  List.iter (fun (s, behaviour) -> Sys.set_signal s behaviour) previous;
  result

let pipeline_rows set =
  List.map
    (fun (label, n) -> (label, Json.Int n))
    (("sessions", List.length (List.filter (fun c -> not c.upstream) set.conns))
    :: ("pauses", set.pauses)
    :: ("resumes", set.resumes)
    :: ("evictions", set.evictions)
    :: Outbuf.stats_rows ())
