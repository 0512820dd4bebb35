(** Incremental monitoring of past temporal formulas.

    A compiled monitor keeps one boolean per subformula; feeding one new
    state updates them bottom-up with the standard past-LTL recurrences
    (sometime φ = φ ∨ previous(sometime φ), etc.), so a permission check
    costs O(|φ|) per event instead of re-walking the history.

    Monitor states are immutable: the engine stores the current state in
    each object and rolls back an aborted transaction by keeping the old
    pointer. *)

type 'a compiled

type state
(** Truth value of every subformula at the last seen instant. *)

val compile : 'a Formula.t -> 'a compiled

val length : 'a compiled -> int
(** Number of monitored subformulas (= {!Formula.size}). *)

val step : 'a compiled -> atom_eval:('a -> bool) -> state option -> state
(** Advance by one observed state; [None] denotes the first instant of
    the life cycle.  [atom_eval] decides each atom in the new state. *)

val step_false : 'a compiled -> state -> state
(** [step] specialised to a new state in which every atom is known to be
    false.  Same truth vector as
    [step ~atom_eval:(fun _ -> false) (Some prev)], but returns [prev]
    itself (states are immutable) when the vector does not change. *)

val value : 'a compiled -> state -> bool
(** Truth value of the whole formula at the last seen instant. *)

val state_to_bools : state -> bool array
(** Serialise a monitor state (the subformula truth vector), for the
    persistence layer. *)

val state_of_bools : 'a compiled -> bool array -> state option
(** Rebuild a state saved by {!state_to_bools}; [None] if the length
    does not match the compiled formula. *)

val run :
  'a compiled -> atom:('a -> 'state -> bool) -> 'state array -> state
(** Fold {!step} over a complete trace (mainly for tests).  Raises
    [Invalid_argument] on an empty trace. *)
