(** Bounded refinement checking by lock-step simulation — the
    executable form of §5.2's correctness criterion.

    Drive the abstract instance and its implementation with
    corresponding events over all traces up to depth [k], requiring
    equal enabledness in both directions (missing behaviour /
    unpreserved permissions) and equal observations after every jointly
    accepted step.  The trace tree has at most |alphabet|^k branches
    (only jointly-accepted steps recurse); with a {!Certificate.builder}
    attached, visited (abstract, concrete) state pairs are memoized by
    {!View.state_digest}, so cost is bounded by the number of distinct
    reachable pairs times the alphabet — experiment E7 measures the raw
    bounded growth, E19 the depth memoization unlocks. *)

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
      (** the §5.2 proof obligations, marked exercised/violated *)
}

val pp_candidate : Format.formatter -> candidate -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_report : Format.formatter -> report -> unit

val default_pool : Vtype.t -> Value.t list
(** Small value pools per type, for synthesising candidate events. *)

val candidates :
  ?pool:(Vtype.t -> Value.t list) ->
  ?max_per_event:int ->
  Template.t ->
  candidate list
(** Candidate events of a template: every non-birth event with argument
    combinations drawn from the pool. *)

type side = { community : Community.t; id : Ident.t }

val check :
  ?record:Certificate.builder ->
  impl:Implementation.t ->
  abs:side ->
  conc:side ->
  alphabet:candidate list ->
  depth:int ->
  unit ->
  report
(** Both instances must be alive and in corresponding states.  The
    communities are left unchanged: the exploration is one depth-first
    search in alphabet order, every branch running speculatively under
    {!Txn.probe} and journal-rolled back in place.

    With [record], the simulation relation is recorded into the
    certificate builder (finish it with {!Certificate.finish} after the
    call), and the builder's node table memoizes visited state pairs: a
    pair already explored at an equal or greater remaining depth — in
    this run or loaded via {!Certificate.load_memo} — is skipped, which
    both bounds converging state spaces and makes warm re-checks
    examine strictly fewer cases. *)
