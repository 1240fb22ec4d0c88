(** Intermediate representation of kernel handler code.

    A handler is a tree-shaped region of basic blocks; branches test scalar
    views of the invoking call's arguments or the state of kernel objects
    referenced through resource arguments (the paper's implicit cross-call
    dependencies: [read]'s behaviour depends on the mode [open] was given).
    Block ids are global across the whole kernel. *)

type cmp =
  | Eq
  | Ne
  | Lt
  | Gt
  | Masked  (** [(v land c) = c] — flag-bits-set test *)

val eval_cmp : cmp -> int -> int -> bool
(** [eval_cmp cmp v c]. *)

val cmp_to_string : cmp -> string

type predicate =
  | Arg of { path : int list; name : string; cmp : cmp; const : int }
      (** test [scalar] of this call's argument at [path]; [name] is the
          operand signature embedded in the block tokens *)
  | Res_state of {
      path : int list;  (** a resource-typed argument of this call *)
      name : string;  (** producer-side operand signature *)
      field : [ `Mode | `Oflags ];
      cmp : cmp;
      const : int;
    }  (** test a field of the kernel object the resource refers to *)
  | Res_valid of { path : int list; name : string }
      (** does the resource argument refer to a live object? *)

val pp_predicate : Format.formatter -> predicate -> unit

type terminator =
  | Jump of int
  | Cond of { pred : predicate; if_true : int; if_false : int }
  | Ret
  | Crash of int  (** reaching this block triggers the bug with this id *)

type block = {
  id : int;
  sys_id : int;  (** owning handler's syscall id; -1 for background code *)
  depth : int;  (** branch-nesting depth within the handler *)
  tokens : int array;  (** content fed to the PMM block encoder *)
  term : terminator;
}

val successors : terminator -> int list
