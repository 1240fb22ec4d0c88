(** Compiled test executor: CFG handlers lowered to bytecode at kernel
    generation time, plus the reusable per-execution scratch.

    See DESIGN.md §8 for the instruction set, the slot-resolution rules of
    the argument image, and the scratch-ownership contract. {!Kernel} wraps
    this module; campaign code reaches it through [Kernel]'s re-exports
    rather than directly. The reference tree-walking interpreter this was
    compiled from survives as the test-only [Oracle.Kernel_reference] and
    must stay observationally identical (a differential property test
    enforces it). *)

(** {1 Results} — re-exported by {!Kernel} *)

type kobject = { okind : string; mode : int; oflags : int }

type crash = { bug : Bug.t; crash_call : int }

type call_trace = { call_idx : int; visited : int list }

type result = {
  traces : call_trace list;
  crash : crash option;
  covered : Sp_util.Bitset.t;
  covered_edges : Sp_util.Bitset.t;
  objects : kobject option array;
}

(** {1 Compiled code} *)

type code

val compile : Build.built -> code
(** Lower every handler region (and resolve every predicate path to a slot
    in its spec's argument-image layout) once. *)

(** {1 Scratch} *)

type scratch
(** Reusable per-execution state: argument image, stamped coverage sets,
    growable trace buffer, object post-state. One scratch serves one
    domain at a time; every [execute_raw] invalidates the previous
    execution's views. *)

val create_scratch : code -> scratch

val execute_raw :
  ?noise:Sp_util.Rng.t * float -> code -> scratch -> Sp_syzlang.Prog.t -> unit
(** Run a program, leaving the outcome readable through the views below.
    Allocation-free in steady state (after buffers have grown to the
    workload's high-water mark). Raises [Invalid_argument] when [scratch]
    was created from different [code]. *)

(** {1 Views into the last execution}

    Valid until the next [execute_raw] on the same scratch; the stampset
    views are invalidated in O(1) by that next run. *)

val crashed : scratch -> bool

val crash_of_scratch : scratch -> crash option

val covered_blocks : scratch -> Sp_util.Stampset.t

val covered_edges : scratch -> Sp_util.Stampset.t

val num_calls : scratch -> int
(** Calls actually executed; a crash cuts the program short. *)

(** {1 Materialization} — independent of later runs *)

val blocks_bitset : scratch -> Sp_util.Bitset.t

val edges_bitset : scratch -> Sp_util.Bitset.t

val result_of_scratch : scratch -> result
(** The full {!result}, identical to what the reference interpreter
    produces for the same program. *)
