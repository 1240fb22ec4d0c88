(** The fuzzing campaign loop of Figure 1.

    Seeds the corpus, then repeatedly: choose a base test, ask the strategy
    for mutants, execute them on the VM (advancing the virtual clock),
    fold coverage into the campaign accumulator, admit novel mutants to the
    corpus, and triage crashes. Supports the undirected mode (coverage
    campaigns of §5.3) and the directed mode (§5.4), which weights base
    selection by static distance to the target block and stops when the
    target is covered. *)

type config = {
  duration : float;  (** virtual seconds; 24 h = 86_400 *)
  seed : int;
  seed_corpus : Sp_syzlang.Prog.t list;
  snapshot_every : float;  (** coverage time-series resolution *)
  attempt_repro : bool;  (** run syz-repro on each new crash *)
  target : int option;  (** directed mode: block id to reach *)
}

val default_config : config
(** 24 virtual hours, snapshots every 20 virtual minutes, no reproduction,
    undirected, empty seed corpus, seed 0. *)

type snapshot = {
  s_time : float;
  s_blocks : int;
  s_edges : int;
  s_crashes : int;
  s_execs : int;
}

type report = {
  series : snapshot list;  (** chronological *)
  final_blocks : int;
  final_edges : int;
  crashes : Triage.found list;
  new_crashes : Triage.found list;
  known_crashes : Triage.found list;
  executions : int;
  corpus_size : int;
  target_hit_at : float option;  (** directed mode: time the target was covered *)
  origin_stats : (string * (int * int)) list;
      (** per proposal origin: (executions, new edges discovered) —
          attribution of coverage to mutation streams *)
  corpus : Corpus.t;  (** final corpus, for post-campaign analyses *)
  covered_blocks : Sp_util.Bitset.t;
      (** final block coverage (an independent snapshot, safe to mutate) *)
  metrics : Sp_util.Metrics.t;
      (** loop observability: [campaign.*] counters (iterations, proposals,
          duplicates, corpus adds, crashes, barriers) and histograms
          (per-iteration virtual time, proposal wall time), plus the
          [vm.*] metrics the shard VMs record *)
}

type aux = {
  aux_json : unit -> Sp_obs.Json.t;
  aux_restore : version:int -> Sp_obs.Json.t -> unit;
}
(** Strategy-side state that rides along in barrier snapshots — the hook
    the snowplow layer uses to persist its inference service, funnel and
    prediction caches (see [Snowplow.Persist]). [aux_json] is called
    after every barrier merge, at quiescence (no epoch in flight);
    [aux_restore] is called once by {!create_instance} [~restore] with
    the snapshot's format version and its [aux] field (when it is not
    [Null]), so a hook can convert an older layout. Campaigns without
    an [aux] write [Null] and ignore the field on restore. *)

(** {2 Campaign instances}

    The one executor: an [instance] is one campaign's merged global state
    plus its shard array — one shard per job, [jobs = 1] included —
    stepped one barrier slice at a time against a {!Sp_util.Pool}.
    {!run} steps an instance to completion over a private pool; the
    multi-tenant {!Scheduler} interleaves slices of many instances over
    one shared pool. Shards fuzz independently between snapshot barriers
    (every [snapshot_every] virtual seconds); at each barrier the calling
    domain folds coverage, corpus admissions (re-judged for novelty) and
    crashes into the global state {e in shard order} (see {!Shard}).
    Every slice is a pure function of the instance's barrier-frozen state
    and its shards' RNG streams, so a report is bit-for-bit reproducible
    given [(config.seed, jobs)] and independent of {e when} its slices
    run relative to other instances' — the guarantee extends to
    (seed, jobs, schedule). *)

type instance

type slice
(** One in-flight barrier slice: every shard's next epoch, submitted. *)

val create_instance :
  ?snapshot_dir:string ->
  ?restore:Sp_obs.Json.t ->
  ?on_barrier:(now:float -> unit) ->
  ?trace:Sp_obs.Trace.t ->
  ?timeseries:Sp_obs.Timeseries.t ->
  ?ts_extra:(unit -> (string * float) list) ->
  ?aux:aux ->
  ?pid_base:int ->
  ?label:string ->
  ?faults:Sp_util.Faults.t ->
  ?events:Sp_obs.Events.t ->
  jobs:int ->
  vm_for:(int -> Vm.t) ->
  strategy_for:(int -> Strategy.t) ->
  config ->
  instance
(** Build [jobs] shards and the merged global state. Shard [s] owns the
    VM and strategy built by [vm_for s]/[strategy_for s] and a named
    split of the campaign RNG; seed tests are dealt round-robin. Raises
    [Invalid_argument] when [jobs < 1] or [snapshot_every <= 0].

    [on_barrier] runs on the instance's own domain after each merge — the
    hook the snowplow layer uses to flush batched inference requests.

    With [snapshot_dir], the merged campaign state is persisted after
    every barrier as [snapshot_dir/snapshot-NNNNNN.json] (written
    atomically; a kill mid-write leaves the previous barrier's file
    intact). [restore] continues a campaign from one of those documents
    (see {!Snapshot.read}): it is first checked with {!validate_snapshot}
    against [jobs] and [config] — seed, jobs, duration, snapshot grid,
    repro and target settings must match; the [seed_corpus] is not
    consulted, since each shard's unexecuted seed slice is part of the
    snapshot — and a mismatch or malformed document raises
    [Sp_obs.Json.Decode.Error] before any VM or strategy is built. The
    restored instance replays the remaining barriers, so its report is
    byte-identical ({!report_json}) to the uninterrupted run's — for
    stateless strategies (syzkaller) unconditionally, and for the
    snowplow strategy when the same [aux] hook that wrote the snapshot is
    supplied to restore it. An instance restored from a final snapshot
    is already stopped: {!run} reassembles the report without fuzzing.

    Telemetry: with [trace], the main lane is pid [pid_base] (default 0;
    [campaign.snapshot] instants, an [edges] counter, [campaign.barrier]
    / [campaign.merge] spans) and shard [s] is pid [pid_base + 1 + s]
    ([shard.epoch] spans, [vm.crash_restart] instants), so a scheduler
    can give every tenant a disjoint pid range; [label] prefixes the lane
    names. With [timeseries], one row is appended per snapshot-grid point
    carrying [blocks], [edges], [execs], [execs_per_s], [corpus] and
    [crashes] plus whatever [ts_extra ()] returns, sampled from merged
    state on the instance's domain — bit-for-bit reproducible given
    [(config.seed, jobs)]. The trace carries wall-clock timestamps and
    is {e not} part of that determinism contract.

    [faults] (default {!Sp_util.Faults.disabled}) arms this instance's
    injection sites, both prefixed with [label ^ "/"] when a label is
    set: [shard.epoch] (one shard's epoch task raises; [k] = slice-wide
    epoch ordinal [(barrier - 1) * jobs + shard], stable across resume)
    and [io.write_atomic] (the barrier snapshot write crashes between
    the new file's fsync and its rename, leaving the previous snapshot
    intact; [k] = barrier number).
    Decisions are consulted on the instance's own domain in shard order,
    so they are independent of pool scheduling.

    [events] (default {!Sp_obs.Events.null}) receives an Info
    [snapshot.write] event per persisted barrier snapshot (label, file,
    barrier, virtual time, stop flag), emitted on the instance's own
    domain inside [complete_slice]. *)

val begin_slice : instance -> pool:Sp_util.Pool.t -> ?max_execs:int -> unit -> slice
(** Submit every shard's next epoch to [pool] and return without
    waiting. [max_execs] caps the slice's total VM executions (dealt
    evenly across shards, remainder to the lowest shard ids) — the
    scheduler's exact budget enforcement. Raises [Invalid_argument] on a
    stopped instance. *)

val complete_slice : instance -> slice -> unit
(** Await the slice's epochs (recording the blocked time as the
    [pool.barrier_wait_s] summary) and fold them into the instance in
    shard order, run the barrier hook, sample the series, decide whether
    the campaign stops, and persist a snapshot when configured. Must run
    on the domain that owns the instance, with slices completed in the
    order they began. Every epoch is awaited before any failure is
    judged (so a raising slice is quiescent by the time the exception
    escapes), then the first failing shard's exception re-raises here
    with its original backtrace. *)

val finish_instance : instance -> report
(** Close the series grid and assemble the report (merging per-shard
    metrics). Call once, after the instance stopped — or early, to
    report on a budget-exhausted tenant as of its last completed
    barrier. *)

val run : instance -> report
(** Step the instance to completion over a private pool of one worker
    per job, then {!finish_instance}. Pool worker [i] traces into the
    instance's [trace] as pid [1001 + i] ([pool.task] spans). The
    report's registry carries the [campaign.*] loop counters and
    histograms, the [vm.*] metrics (both merged from the shards in shard
    order) and the pool's [pool.*] metrics. *)

val instance_stopped : instance -> bool

val instance_barrier : instance -> int
(** Completed barriers (monotone; restored from snapshots). *)

val instance_executions : instance -> int
(** Total VM executions across the instance's shards so far. *)

val instance_next_time : instance -> float
(** Virtual time the next slice will run up to — the stride scheduler's
    per-tenant progress clock. *)

val validate_snapshot : snapshot:Sp_obs.Json.t -> jobs:int -> config -> unit
(** Check a snapshot document's format marker, version (one of
    {!Snapshot.readable_versions}: an older document is converted as it
    is restored) and config echo against the launch parameters.
    Raises [Sp_obs.Json.Decode.Error] (with a human-readable message
    that names the version, for a version this build cannot read) on
    any mismatch; {!create_instance} calls this on its [restore]
    document. *)

val report_json : report -> Sp_obs.Json.t
(** The deterministic portion of a report (everything except [metrics],
    which carries wall-clock timings) as a canonical JSON document —
    serialized twice, byte-equal iff the campaigns behaved identically.
    The resume determinism tests compare these. *)

val coverage_at : report -> float -> int
(** Edge coverage at a given virtual time, interpolated from the series
    (step function); used to compute the paper's time-to-coverage
    speedups. *)

val time_to_edges : report -> int -> float option
(** First snapshot time at which edge coverage reached the given level. *)
