(** One worker's slice of a parallel campaign.

    A shard owns a private {!Vm.t}, {!Clock.t}, RNG stream and mutation
    strategy, plus its cross-epoch executed-set and metrics registry. The
    parallel executor runs shards in lockstep epochs: between two snapshot
    barriers each shard fuzzes {e independently} against a private copy of
    the barrier-frozen global corpus and coverage accumulator, recording —
    in discovery order — the corpus admissions, crash events and coverage
    it produced. The executor then folds those epoch results back into the
    global state in shard order, which is what makes a parallel run
    bit-for-bit reproducible given [(seed, jobs)]: no shard ever observes
    another shard's work except through the deterministic barrier merge. *)

type t

val create :
  ?tracer:Sp_obs.Tracer.t ->
  id:int ->
  vm:Vm.t ->
  strategy:Strategy.t ->
  rng:Sp_util.Rng.t ->
  seeds:Sp_syzlang.Prog.t list ->
  unit ->
  t
(** [seeds] is this shard's slice of the campaign seed corpus, executed
    (once each) before mutation work. Attaches the shard's metrics
    registry and [tracer] (default disabled) to [vm] and applies the
    strategy's throughput factor. The tracer must be private to this
    shard: {!run_epoch} records a [shard.epoch] span into it from the
    worker domain running the epoch. *)

val id : t -> int

val vm : t -> Vm.t

val now : t -> float
(** The shard's virtual clock. *)

val metrics : t -> Sp_util.Metrics.t
(** Shard-local registry (campaign.* loop counters, vm.* costs); the
    executor merges these into the report registry in shard order. *)

val executed : t -> Sp_util.Fpset.t
(** The fingerprints ({!Sp_syzlang.Prog.fingerprint}) of every program
    this shard has executed, seeds included: a proposal whose fingerprint
    is already here is skipped and charged as a duplicate. Exposed for
    inspection; the shard owns it. *)

val state_json : t -> Sp_obs.Json.t
(** Cross-epoch mutable state for campaign snapshots: clock, RNG stream,
    VM counters, unexecuted seed slice, the executed set (its
    fingerprints as 32-hex-digit strings in numeric order, so the bytes
    are canonical — duplicate skips charge different virtual time than
    executions, so membership is determinism-relevant) and the per-shard
    crash dedup set. Metrics/tracers are observability, not semantics,
    and are not persisted. *)

val restore_state :
  t ->
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  version:int ->
  Sp_obs.Json.t ->
  unit
(** Restore state captured by {!state_json} into a freshly created shard
    (same id, fresh clock). [version] is the snapshot's format version:
    version 2 stored the executed programs as text, which is parsed and
    fingerprinted; later versions store the fingerprints. Raises
    [Sp_obs.Json.Decode.Error] on malformed input or an id mismatch. *)

type crash_event = {
  ce_crash : Sp_kernel.Kernel.crash;
  ce_prog : Sp_syzlang.Prog.t;
  ce_time : float;  (** shard-local virtual time of the crash *)
}

type epoch = {
  ep_shard : int;
  ep_admissions : Corpus.entry list;
      (** shard-local corpus admissions, in discovery order; the merge
          re-checks each against the evolving global accumulator *)
  ep_crashes : crash_event list;
      (** first occurrence per crash description per shard, in discovery
          order; cross-shard dedup happens in the merge's triage *)
  ep_coverage : Sp_coverage.Accum.t;
      (** the epoch's private accumulator: the barrier-frozen global
          coverage plus everything observed this epoch *)
  ep_origin : (string * (int * int)) list;
      (** per proposal origin: executions, shard-locally-new edges *)
  ep_target_hit_at : float option;
  ep_idle : bool;
      (** true when the shard had no work at all (no seeds left, empty
          corpus) — the executor stops once every shard reports idle *)
}

val run_epoch :
  t ->
  ?max_execs:int ->
  corpus:Corpus.t ->
  accum:Sp_coverage.Accum.t ->
  target:int option ->
  until:float ->
  unit ->
  epoch
(** Fuzz until the shard clock reaches [until] (or the target is hit),
    against private copies of [corpus] and [accum] — both are only read,
    so concurrent [run_epoch] calls on distinct shards may share them.
    The shard clock is fast-forwarded to [until] when work runs out, so
    shards stay in lockstep across epochs.

    [max_execs] caps the VM executions this epoch may perform — the
    scheduler's exec-budget enforcement. A capped shard still
    fast-forwards its clock to [until]; the cap is exact (the shard
    stops before exceeding it), so a tenant can never overrun its
    budget. Capping changes what the shard explores, so budget-limited
    runs are deterministic but not comparable to uncapped solo runs. *)
