(** The synthetic kernel: generation, inspection, and test execution.

    A kernel bundles the syscall interface (a {!Sp_syzlang.Spec.db}), the
    handler code (basic blocks over a global id space with a static CFG),
    injected bugs, and an executor that runs test programs and returns
    their coverage trace — the role KCOV plays in the paper. Execution is
    compiled: at generation time every handler CFG is lowered to {!Exec}
    bytecode (pre-resolved predicate slots, precomputed edge ids), and the
    hot path runs against a reusable {!scratch} with zero steady-state
    allocation. The original tree-walking interpreter survives as the
    test-only oracle [Oracle.Kernel_reference]. *)

type t

(** {1 Generation} *)

val generate : Build.config -> t

val default : unit -> t
(** [generate Build.default_config]. *)

val linux_like : seed:int -> version:string -> t
(** The three-kernel setup of §5.3: versions "6.8", "6.9", "6.10" share one
    interface and a base code generation; "6.9" applies one evolution round
    and "6.10" two, each with version-specific new bugs. Raises
    [Invalid_argument] for other version strings. *)

(** {1 Inspection} *)

val version : t -> string

val spec_db : t -> Sp_syzlang.Spec.db

val built : t -> Build.built
(** The raw generated artifacts. For the reference oracle and offline
    analyses; campaign code should use the typed accessors below. *)

val cfg : t -> Sp_cfg.Cfg.t

val num_blocks : t -> int

val block : t -> int -> Ir.block

val handler_entry : t -> int -> int
(** Entry block of the handler for a syscall id. *)

val handler_exit : t -> int -> int

val bugs : t -> Bug.t array

val bug : t -> int -> Bug.t

val bug_gate : t -> int -> Ir.predicate list
(** Ground-truth gate predicates of a bug (for tests and analyses only; the
    fuzzers never see this). *)

(** {1 Execution} *)

type kobject = Exec.kobject = { okind : string; mode : int; oflags : int }
(** The kernel object a producer call creates; its fields are derived from
    the producer's flag/enum arguments, so later calls' [Res_state] branches
    depend on earlier calls' arguments (the paper's implicit cross-call
    dependencies). *)

type crash = Exec.crash = { bug : Bug.t; crash_call : int }

type call_trace = Exec.call_trace = {
  call_idx : int;
  visited : int list;  (** in order *)
}

type result = Exec.result = {
  traces : call_trace list;
  crash : crash option;
  covered : Sp_util.Bitset.t;  (** block coverage, sized [num_blocks] *)
  covered_edges : Sp_util.Bitset.t;  (** static-edge coverage *)
  objects : kobject option array;  (** post-state, per call index *)
}

val execute :
  ?noise:Sp_util.Rng.t * float -> ?scratch:Exec.scratch -> t ->
  Sp_syzlang.Prog.t -> result
(** Run a program from a pristine kernel snapshot (execution is a pure
    function of the program — the determinism §3.1 engineers for). With
    [~noise:(rng, level)], interrupt-style background blocks and phantom
    blocks from unrelated handlers pollute the trace with probability
    [level] per call, emulating the noisy collection mode of stock
    Syzkaller. Execution stops at the first crash.

    Runs in [scratch] when given (reusing its buffers), otherwise in a
    per-domain default scratch; either way the returned [result] is fully
    materialized and safe to retain. *)

(** {1 Scratch execution — the allocation-free hot path}

    A {!scratch} is owned by exactly one executor at a time (each
    {!Sp_fuzz.Vm} — hence each campaign shard — holds its own; see
    DESIGN.md §8 for the ownership contract). [execute_into] reuses its
    buffers and allocates nothing in steady state; the [scratch_*] views
    read the {e last} execution and are invalidated by the next one. *)

type scratch = Exec.scratch

val create_scratch : t -> scratch

val execute_into :
  ?noise:Sp_util.Rng.t * float -> t -> scratch -> Sp_syzlang.Prog.t -> unit
(** Raises [Invalid_argument] if [scratch] belongs to a different kernel. *)

val scratch_crashed : scratch -> bool

val scratch_crash : scratch -> crash option

val scratch_blocks : scratch -> Sp_util.Stampset.t
(** Borrowed view: valid until the next [execute_into] on this scratch. *)

val scratch_edges : scratch -> Sp_util.Stampset.t

val scratch_blocks_bitset : scratch -> Sp_util.Bitset.t
(** Independent snapshot, safe to retain (used on corpus admission). *)

val scratch_edges_bitset : scratch -> Sp_util.Bitset.t

val scratch_calls : scratch -> int
(** Calls actually executed; a crash cuts the program short. *)

val scratch_result : scratch -> result
