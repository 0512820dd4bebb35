(** Incremental monitoring of past temporal formulas.

    A compiled monitor keeps one boolean per subformula.  Feeding one new
    state updates all of them bottom-up using the standard past-LTL
    recurrences

    {v
      sometime φ  =  φ ∨ previous(sometime φ)
      always   φ  =  φ ∧ previous(always φ)
      φ since ψ   =  ψ ∨ (φ ∧ previous(φ since ψ))
    v}

    so a permission check costs O(|φ|) per event instead of re-walking
    the whole history ({!Trace_eval}).  Monitor states are immutable
    arrays: the kernel stores the current state in each object and simply
    keeps the old pointer to roll back an aborted transaction. *)

type 'a compiled = {
  (* subformulas in bottom-up order: children precede parents *)
  nodes : 'a node array;
  root : int;
}

and 'a node =
  | NTrue
  | NFalse
  | NAtom of 'a
  | NNot of int
  | NAnd of int * int
  | NOr of int * int
  | NImplies of int * int
  | NSometime of int * int  (** child index, self-recurrence slot = own index *)
  | NAlways of int
  | NSince of int * int
  | NPrevious of int

type state = bool array
(** truth value of every subformula at the last seen instant *)

(** Flatten a formula into bottom-up node order.  Structural sharing of
    equal subformulas is deliberately not performed: formulas are small
    and identity keeps indices obvious. *)
let compile (f : 'a Formula.t) : 'a compiled =
  let nodes = ref [] in
  let n = ref 0 in
  let push node =
    nodes := node :: !nodes;
    let i = !n in
    incr n;
    i
  in
  let rec go = function
    | Formula.True -> push NTrue
    | Formula.False -> push NFalse
    | Formula.Atom a -> push (NAtom a)
    | Formula.Not g ->
        let i = go g in
        push (NNot i)
    | Formula.And (a, b) ->
        let i = go a in
        let j = go b in
        push (NAnd (i, j))
    | Formula.Or (a, b) ->
        let i = go a in
        let j = go b in
        push (NOr (i, j))
    | Formula.Implies (a, b) ->
        let i = go a in
        let j = go b in
        push (NImplies (i, j))
    | Formula.Sometime g ->
        let i = go g in
        let self = push (NSometime (i, 0)) in
        (* the recurrence refers to the node's own previous value *)
        ignore self;
        self
    | Formula.Always g ->
        let i = go g in
        push (NAlways i)
    | Formula.Since (a, b) ->
        let i = go a in
        let j = go b in
        push (NSince (i, j))
    | Formula.Previous g ->
        let i = go g in
        push (NPrevious i)
  in
  let root = go f in
  { nodes = Array.of_list (List.rev !nodes); root }

(** Advance the monitor by one observed state.  [prev = None] denotes
    the very first instant of the life cycle.  [atom_eval] decides each
    atomic proposition in the new state. *)
let step (c : 'a compiled) ~(atom_eval : 'a -> bool) (prev : state option) :
    state =
  let n = Array.length c.nodes in
  let cur = Array.make n false in
  let prev_at i = match prev with None -> false | Some p -> p.(i) in
  for i = 0 to n - 1 do
    cur.(i) <-
      (match c.nodes.(i) with
      | NTrue -> true
      | NFalse -> false
      | NAtom a -> atom_eval a
      | NNot j -> not cur.(j)
      | NAnd (j, k) -> cur.(j) && cur.(k)
      | NOr (j, k) -> cur.(j) || cur.(k)
      | NImplies (j, k) -> (not cur.(j)) || cur.(k)
      | NSometime (j, _) -> cur.(j) || prev_at i
      | NAlways j -> cur.(j) && (prev = None || prev_at i)
      | NSince (j, k) -> cur.(k) || (cur.(j) && prev_at i)
      | NPrevious j -> prev_at j)
  done;
  cur

(** [step] specialised to the case where every atom of the new state is
    known to be false (no occurred event matches an occurrence atom, no
    state atoms).  Produces the same truth vector as
    [step ~atom_eval:(fun _ -> false) (Some prev)], but returns [prev]
    itself — states are immutable — when the vector does not change,
    which is the common fixpoint after one quiescent step. *)
let step_false (c : 'a compiled) (prev : state) : state =
  let n = Array.length c.nodes in
  let cur = Array.make n false in
  let same = ref true in
  for i = 0 to n - 1 do
    let v =
      match c.nodes.(i) with
      | NTrue -> true
      | NFalse | NAtom _ -> false
      | NNot j -> not cur.(j)
      | NAnd (j, k) -> cur.(j) && cur.(k)
      | NOr (j, k) -> cur.(j) || cur.(k)
      | NImplies (j, k) -> (not cur.(j)) || cur.(k)
      | NSometime (j, _) -> cur.(j) || prev.(i)
      | NAlways j -> cur.(j) && prev.(i)
      | NSince (j, k) -> cur.(k) || (cur.(j) && prev.(i))
      | NPrevious j -> prev.(j)
    in
    cur.(i) <- v;
    if v <> prev.(i) then same := false
  done;
  if !same then prev else cur

(** Truth value of the whole formula at the last seen instant. *)
let value (c : 'a compiled) (s : state) : bool = s.(c.root)

let length (c : 'a compiled) = Array.length c.nodes

(* persistence support: a state is exactly the subformula truth vector *)
let state_to_bools (s : state) : bool array = Array.copy s

let state_of_bools (c : 'a compiled) (a : bool array) : state option =
  if Array.length a = Array.length c.nodes then Some (Array.copy a) else None

(** Run a monitor over a complete trace (mainly for tests). *)
let run (c : 'a compiled) ~(atom : 'a -> 'state -> bool)
    (trace : 'state array) : state =
  if Array.length trace = 0 then
    invalid_arg "Monitor.run: empty trace";
  let s = ref (step c ~atom_eval:(fun a -> atom a trace.(0)) None) in
  for i = 1 to Array.length trace - 1 do
    s := step c ~atom_eval:(fun a -> atom a trace.(i)) (Some !s)
  done;
  !s
