(** The argument-mutation query graph of §3.2 and Figure 5.

    A single graph joins the user-space test program and its kernel
    coverage: program nodes (one per system call, one per argument node at
    every nesting level) and kernel nodes (covered basic blocks, uncovered
    "alternative path entries" one not-taken branch away, and the subset of
    those marked as the desired targets), connected by six edge families —
    call ordering, argument containment/ordering, resource data flow,
    kernel-user context switches, covered control flow, and not-taken
    branches to the frontier. *)

type node =
  | Syscall of { call : int; sys_id : int }
  | Arg of {
      path : Sp_syzlang.Prog.path;
      kind : string;  (** the {!Sp_syzlang.Ty.kind_token} *)
      detail_sig : int;  (** bucketed name token, {!Sp_kernel.Token.opsig_bucket} *)
      mutable_node : bool;
    }
  | Covered_block of int
  | Alt_block of int  (** alternative path entry (uncovered) *)
  | Target_block of int  (** alternative path entry marked as desired *)

type edge_kind =
  | Call_order  (** call i -> call i+1 *)
  | Contains  (** call -> top-level arg; parent arg -> child arg *)
  | Arg_order  (** sibling argument ordering *)
  | Res_flow  (** producing call -> consuming resource argument *)
  | Ctx_entry  (** call -> handler entry block *)
  | Ctx_exit  (** handler exit block -> call *)
  | Cf_covered  (** executed kernel control-flow edge *)
  | Cf_frontier  (** covered block -> alternative path entry *)
  | Handler
      (** call -> frontier entries inside its own handler. A diameter
          shortcut: the paper's production-scale GNN can propagate over
          long covered chains, the laptop-scale model cannot, so handler
          membership (information a kernel CFG carries anyway) is made
          explicit. The ablation bench quantifies its effect. *)

val num_edge_kinds : int

val edge_kind_index : edge_kind -> int

type t = {
  nodes : node array;
  edges : (int * int * edge_kind) array;  (** (src, dst, kind) *)
  arg_index : (int * Sp_syzlang.Prog.path) list;
      (** node index of every argument node, with its path *)
  target_blocks : int list;  (** kernel block ids marked as targets *)
}

val build :
  ?drop:edge_kind list ->
  Sp_kernel.Kernel.t ->
  Sp_syzlang.Prog.t ->
  result:Sp_kernel.Kernel.result ->
  targets:int list ->
  t
(** Build the query for a base test from its (deterministic) execution
    result. [targets] are kernel block ids to mark as desired; ids that are
    not alternative path entries of this coverage are ignored. [drop]
    removes whole edge families (used by the representation ablations). *)

val frontier_blocks :
  Sp_kernel.Kernel.t -> Sp_kernel.Kernel.result -> (int * int) list
(** Alternative path entries [(entry, via)] of a result's block coverage. *)

val stats : t -> (string * int) list
(** Node/edge counts per kind — the dataset statistics reported in §5.1. *)
