(** The animation script language (used by [trollc run] / [trollc repl]
    and the examples).

    {v
      new DEPT("sales") establishment(d"1991-03-21");
      DEPT("sales").hire(PERSON("alice"));
      seq DEPT("s").fire(P); DEPT("s").closure end;   -- atomic transaction
      show DEPT("sales").employees;
      view SAL_EMPLOYEE;                               -- tabulate a view
      expect reject DEPT("sales").closure;
      active 10;                                       -- run active events
    v} *)

type cmd =
  | C_new of string * Ast.expr * (string * Ast.expr list) option
      (** class, key expression, optional birth event with arguments *)
  | C_fire of Ast.event_term
  | C_seq of Ast.event_term list  (** atomic transaction *)
  | C_show of Ast.expr
  | C_trace of Ast.obj_ref
      (** recorded life cycle (needs [record_history]) *)
  | C_goal of Ast.obj_ref * Ast.formula
      (** liveness audit: [goal CLASS(key): formula] *)
  | C_view of string
  | C_active of int
  | C_expect_reject of cmd

type script = cmd list

val parse : string -> (script, string) result

type outcome = {
  output : string list;
  failed : string option;  (** the first failure, if any *)
}

val run : Troll.system -> script -> outcome
(** Execute; stops at the first failure ([expect reject] inverts). *)

val run_string : Troll.system -> string -> outcome
