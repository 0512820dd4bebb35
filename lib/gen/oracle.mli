(** The nine differential oracles every generated (spec, trace) pair
    is checked against.

    - ["dispatch"]: compiled vs interpreted rule dispatch — identical
      {!Runtime_error.code}s step by step and bit-identical
      {!Persist.save} images at the end.
    - ["server"]: {!Engine.step} in-process vs the NDJSON society
      server over a pipe (a forked child runs [Server.serve_fds]) —
      frame-by-frame agreement on outcome and error code, plus a final
      inline [save] compared against the in-process image.  A seeded
      third of the steps (a pure function of (src, trace)) is followed
      by an [enabled] and a [candidates] probe of its target, answered
      in-process by {!Engine.enabled_events} and
      {!Engine.candidate_events} (with {!Engine.enabled} deciding the
      parameterless candidates) at the same prefix, so the server's
      coalesced probe runs are checked, and so are its coalesced runs
      of consecutive fires.
    - ["replay"]: save at the trace midpoint, load into a fresh
      community, replay the suffix on both — identical codes and final
      images.
    - ["journal"]: every step is probed ({!Txn.probe}), cloned
      ({!Community.clone}) and executed — the three verdicts agree, the
      probe leaves the image untouched, a rejected step leaves it
      untouched, and clone and community stay bit-identical.
    - ["parallel"]: {!Engine.enabled_batch_par} over a jobs=4 {!Pool}
      against a frozen {!View} vs {!Engine.enabled} in place, for every
      living object's parameterless events on every trace prefix;
      probing must not invalidate the view.  Runs in a forked child
      (domains would make the parent unforkable), so the fuzz loop
      itself never creates a domain.
    - ["recovery"]: a forked child animates the trace with a {!Wal}
      attached ([fsync `Batch]) and SIGKILLs itself from inside the
      commit callback of the k-th durable batch; {!Wal.recover} must
      then rebuild a community whose {!Persist.save} image is
      bit-identical to a clean run stopped at the same commit
      boundary.  k is a pure function of (src, trace), so failures
      replay exactly.
    - ["sharded"]: a pseudo-random 2-shard partition (class groups
      assigned by a hash of the source, so failures replay exactly)
      routes the trace through {!Shard.coordinate} — cross-shard steps
      commit by two-phase protocol — against a plain single-engine
      session: identical error codes step by step, and the merged
      {!Troll.Session.save} dump bit-identical to the single-engine
      dump.  Outcome shapes are not compared (a cross-shard sync step
      decomposes into per-shard micro-steps).  When the spec admits
      identity-hash partitioning, a source-hash coin flip routes
      through the [hash:2] map ({!Shard.by_hash}) instead.
    - ["linearizable"]: the trace goes to a society server in chunks
      of 8 steps, each chunk one [steps] request through
      [Server.execute]; a reference community fires the members one at
      a time through {!Engine.step}.  Per-step codes (and accepted
      outcomes) and the {!Persist.save} image after every chunk must
      agree.  In process: no fork, no pool.
    - ["certificate"]: every specification refines itself, so two
      fresh communities from the same source are lock-step checked
      with {!Refinement.check} recording a certificate; the encoding
      must round-trip bit-identically, {!Validator.validate} must
      accept the genuine certificate and reject three semantic tampers
      (flipped verdict, consistently corrupted digest, dropped edge),
      each re-encoded so the CRC frame stays valid.  Skipped when no
      class instance is creatable from the default value pools.

    Oracles take the rendered source so the shrinker can re-render
    candidate models and re-run just the failing oracle. *)

type failure = { oracle : string; detail : string }

val oracle_names : string list

val run_oracle : string -> string -> Step.t list -> (unit, failure) result
(** [run_oracle name src trace].  A spec that fails to load yields a
    ["load"] failure; an escaped exception an ["exception"] failure —
    both distinct from every real oracle name, so a shrinking predicate
    keyed on the original oracle rejects such candidates.  Unknown
    names raise [Invalid_argument]. *)

val check_all : string -> Step.t list -> (unit, failure) result
(** Run all nine oracles in order, returning the first failure. *)

val request_of_step : id:int -> Step.t -> Json.t
(** The wire request frame executing the step, as the society server
    decodes it ([op] = create / destroy / fire / batch / sync / txn). *)
