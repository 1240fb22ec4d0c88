(** Simulated test-execution environment.

    Stands in for the paper's fleet of QEMU VMs: executes a test against the
    kernel from a pristine snapshot, charges virtual time per execution, and
    charges a much larger restart penalty when the guest kernel crashes
    (Syzkaller must reboot the VM). Optionally injects the coverage
    nondeterminism of a stock setup (§3.1) — Snowplow's data-collection
    executor runs with [noise = 0]. *)

type t

val create :
  ?noise:float ->
  ?execs_per_second:float ->
  ?fleet_scale:float ->
  ?crash_restart_s:float ->
  seed:int ->
  Sp_kernel.Kernel.t ->
  t
(** Defaults: noise 0, 390 execs/s (the paper's whole-fleet Syzkaller
    throughput, 42 VMs), fleet_scale 96 (we simulate a fleet 96x smaller —
    well under one VM-equivalent — so a 24-hour campaign stays tractable; every relative
    timing is preserved because both compared systems scale identically),
    0.7 s crash-restart penalty — the whole-fleet cost of rebooting one
    of 42 VMs for 30 s, which is what a guest crash costs the paper's
    setup. *)

val kernel : t -> Sp_kernel.Kernel.t

val scratch : t -> Sp_kernel.Kernel.scratch
(** The VM's owned execution scratch. Each VM has exactly one, created at
    [create]; since one VM serves one campaign shard (one domain), the
    campaign's allocation-free path executes into it via {!run_raw} and
    reads the [Kernel.scratch_*] views before the next execution. *)

val set_metrics : t -> Sp_util.Metrics.t -> unit
(** Attach a metrics registry; the VM then records [vm.*] counters
    (executions, crash restarts, duplicate skips) and histograms:
    [vm.exec_virtual_s] (virtual cost per execution) and
    [vm.exec_wall_s] (wall-clock time per execution — wall, not CPU,
    because one VM serves one shard domain and [Sys.time] is process-wide
    while several shards run). No metrics are recorded before a registry
    is attached — each campaign shard attaches its own. *)

val set_tracer : t -> Sp_obs.Tracer.t -> unit
(** Attach the owning shard's tracer; the VM then records a
    [vm.crash_restart] instant per guest-kernel crash (executions
    themselves are far too hot to trace individually). Defaults to the
    disabled tracer. *)

val run_raw : t -> Clock.t -> Sp_syzlang.Prog.t -> unit
(** Execute into the VM's own {!scratch} and advance the clock by the
    execution cost (plus the restart penalty on crash). The caller reads
    the outcome through [Kernel.scratch_*] views on [scratch t], which
    stay valid until this VM's next execution. The campaign ingest path
    uses this to keep the steady-state loop allocation-free. *)

val run_free : t -> Sp_syzlang.Prog.t -> Sp_kernel.Kernel.result
(** Execute without charging time (used by offline analyses). *)

val charge_duplicate : t -> Clock.t -> unit
(** Charge the (small) cost of recognizing an already-executed program
    without running it. *)

val executions : t -> int

val state_json : t -> Sp_obs.Json.t
(** Mutable state for campaign snapshots: the execution counter and the
    noise RNG stream. The rest of the VM (kernel, cost model, throughput
    factor) is reconstructed from the campaign config on resume. *)

val restore_state : t -> Sp_obs.Json.t -> unit
(** Restore state captured by {!state_json} into a freshly created VM.
    Raises [Sp_obs.Json.Decode.Error] on malformed input. *)

val set_throughput_factor : t -> float -> unit
(** Scale the per-test cost; Snowplow runs at 383/390 of Syzkaller's
    throughput (§5.5). *)
