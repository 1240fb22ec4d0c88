(** The original tree-walking interpreter, preserved as the compiled
    executor's reference oracle.

    Semantics are bit-for-bit those of {!Sp_kernel.Kernel.execute} (which
    now runs {!Sp_kernel.Exec} bytecode): same traces, crash, coverage sets
    and object post-states for any program and noise stream. Used by the differential
    property tests and as bench e11's pre-compilation baseline — never on
    a campaign hot path. *)

type t

val of_built : Sp_kernel.Build.built -> t

val execute :
  ?noise:Sp_util.Rng.t * float ->
  t ->
  Sp_syzlang.Prog.t ->
  Sp_kernel.Exec.result
