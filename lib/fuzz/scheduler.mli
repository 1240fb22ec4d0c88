(** Multi-tenant campaign scheduler: N concurrent campaigns over one
    shared worker pool.

    The real Snowplow deployment splits many fuzzer machines from one
    warm batched inference service; this is that shape in-process. Each
    {e tenant} is an independent campaign — its own config, seed,
    corpus, coverage accumulator and RNG streams — advanced one barrier
    slice at a time (see {!Campaign.begin_slice}) over a single
    {!Sp_util.Pool}. Snowplow tenants additionally share one warm
    [Snowplow.Funnel]-backed inference endpoint via their barrier hooks;
    [Snowplow.Launch] wires that up for [serve].

    {b Determinism.} A tenant's slice runs against its own barrier-frozen
    state and merges on the scheduling domain in shard order, so its
    {!Campaign.report_json} is byte-identical to the same campaign run
    solo with the same (seed, jobs) — the (seed, jobs) guarantee extends
    to (seed, jobs, schedule), where "solo" means {!Campaign.run} on an
    instance built from the same arguments. The schedule itself is also
    deterministic: admission is a pure function of tenant state,
    never of wall-clock timing.

    {b Fairness.} Stride scheduling over virtual time: a tenant's pass is
    its next barrier's virtual time divided by its weight, lowest pass
    first (ties to the lowest tenant index); a weight-2 tenant therefore
    advances its virtual clock twice as fast as a weight-1 one. Each
    round admits a batch of slices in stride order while their summed
    jobs fit the pool (the head of the order is always admitted), so the
    pool is kept busy — work-conserving — without starving anyone.

    {b Quotas.} A tenant's [exec_budget] caps the VM executions it may
    perform under this scheduler run, enforced exactly: every slice is
    capped at the tenant's remaining budget ({!Campaign.begin_slice}'s
    [max_execs]), so the budget can never be overrun. An exhausted
    tenant stops being scheduled and is reported with
    [tr_budget_exhausted = true].

    {b Failure containment.} A tenant whose slice raises never takes the
    roster down. The exception and its backtrace are captured into the
    tenant's failure record (and a [failure-NNNNNN-gG.json] forensic
    file beside its snapshots), the dead instance is discarded — its
    executions stay charged to the budget — and the tenant is retried
    from its newest valid snapshot after an exponential backoff
    (1, 2, 4... scheduling rounds), up to [max_tenant_retries] retry
    generations; after that it is evicted to the terminal Quarantined
    state ([tr_quarantined = true]) while every other tenant keeps
    running, with admission recomputed over the survivors. Each retry
    generation salts the instance label ([name#1], [name#2], ...), which
    prefixes the campaign's fault-injection sites — so under a
    deterministic {!Sp_util.Faults} plan the whole
    fail/backoff/retry/quarantine cascade replays byte-identically, and
    a scheduled fault only re-kills a retry the plan explicitly
    addresses. *)

type tenant

val tenant :
  ?weight:float ->
  ?exec_budget:int ->
  ?on_barrier:(now:float -> unit) ->
  ?snapshot_dir:string ->
  ?restore:Sp_obs.Json.t ->
  ?aux:Campaign.aux ->
  name:string ->
  jobs:int ->
  vm_for:(int -> Vm.t) ->
  strategy_for:(int -> Strategy.t) ->
  Campaign.config ->
  tenant
(** [weight] (default 1.0) must be finite and positive; [exec_budget]
    (default unlimited) must be >= 0; [jobs] >= 1; [name] non-empty and
    unique within a {!run}. [snapshot_dir]/[restore]/[aux]/[on_barrier]
    have {!Campaign.create_instance} semantics, per tenant. Raises [Invalid_argument] on a bad parameter. *)

type failure = {
  fl_slice : int;
      (** global slice ordinal (1-based) of the failed slice; for a
          failed {e rebuild}, the ordinal of the last admitted slice *)
  fl_barrier : int;  (** tenant barrier in flight when it raised *)
  fl_generation : int;  (** 0 = first run, [n] = [n]-th retry *)
  fl_exn : string;  (** [Printexc.to_string] of the exception *)
  fl_backtrace : string;  (** the raising shard's original backtrace *)
}
(** One captured tenant failure. *)

type tenant_report = {
  tr_name : string;
  tr_weight : float;
  tr_slices : int;  (** barrier slices this run completed for the tenant *)
  tr_executions : int;
      (** VM executions performed under this scheduler run (a resumed
          tenant's pre-snapshot executions are not counted; work done by
          failed retry generations {e is} counted) *)
  tr_budget_exhausted : bool;
  tr_completed : bool;  (** the campaign reached its own stop condition *)
  tr_quarantined : bool;  (** evicted after exhausting its retries *)
  tr_retries : int;  (** retry generations started (0 = never failed) *)
  tr_failures : failure list;  (** chronological *)
  tr_report : Campaign.report;
      (** for a completed tenant, byte-identical ({!Campaign.report_json})
          to the same campaign run solo; for a budget- or
          [max_slices]-cut tenant, the state as of its last completed
          barrier; for a quarantined tenant, the state its last (failed)
          generation held as of its last completed barrier *)
}

type report = {
  sr_tenants : tenant_report list;  (** in the order tenants were given *)
  sr_slices : int;
  sr_schedule : string list;
      (** tenant name per slice, in admission order — the full,
          deterministic schedule *)
  sr_workers : int;
  sr_metrics : Sp_util.Metrics.t;
      (** [scheduler.slices], [scheduler.execs_total],
          [scheduler.tenant.<name>.slices]/[.execs], the failure-path
          [scheduler.failures] / [scheduler.quarantined] /
          [scheduler.tenant.<name>.failures] counters, plus the shared
          pool's [pool.*] metrics (merged after shutdown) *)
}

val summary_json : faults_injected:int -> report -> Sp_obs.Json.t
(** The [serve --summary-json] document: run totals and one object per
    tenant, derived from the report only, so identical runs give
    identical bytes. *)

type tenant_status = {
  ts_name : string;
  ts_weight : float;
  ts_state : string;
      (** ["healthy"] | ["backoff"] | ["quarantined"] | ["completed"] |
          ["exhausted"] *)
  ts_pass : float;  (** stride pass (next barrier time / weight) *)
  ts_barrier : int;  (** barriers completed so far this run *)
  ts_slices : int;
  ts_executions : int;  (** {!tenant_report.tr_executions} so far *)
  ts_budget_remaining : int option;  (** [None] when unbudgeted *)
  ts_retries : int;  (** retry generations started *)
}
(** Point-in-time seat state, as published to the telemetry plane at
    every barrier. *)

val tenant_status_json : tenant_status -> Sp_obs.Json.t
(** The exact object served per tenant by the exporter's [/tenants]
    endpoint — fields [name], [weight], [state], [pass], [barrier],
    [slices], [executions], [budget_remaining] (number or null),
    [retries]. *)

type telemetry
(** An armed telemetry plane: the exporter to publish into, plus any
    extra gauges to append to each scrape. *)

val telemetry :
  ?extra:(unit -> Sp_obs.Exposition.metric list) ->
  Sp_obs.Exporter.t ->
  telemetry
(** [extra] (default none) is called on the scheduling domain at each
    publication — the hook [serve] uses to append [Snowplow.Launch.gauges]
    (inference, funnel and trainer series the scheduler itself cannot
    see). It must read only barrier-stable state. *)

val run :
  ?workers:int ->
  ?trace:Sp_obs.Trace.t ->
  ?timeseries:Sp_obs.Timeseries.t ->
  ?max_slices:int ->
  ?faults:Sp_util.Faults.t ->
  ?max_tenant_retries:int ->
  ?events:Sp_obs.Events.t ->
  ?telemetry:telemetry ->
  tenant list ->
  (report, string) result
(** Multiplex the tenants over one shared pool until every tenant has
    completed or exhausted its budget (or [max_slices] slices have been
    admitted — the kill point the resume tests use). [workers] defaults
    to the largest tenant's [jobs]. Restore snapshots are validated
    before any slice runs; a malformed one is an [Error] and nothing is
    scheduled. Raises [Invalid_argument] on an empty tenant list, a
    duplicate name, [workers < 1] or [max_tenant_retries < 0].

    [faults] (default {!Sp_util.Faults.disabled}) arms every tenant
    instance's injection sites (see {!Campaign.create_instance});
    [max_tenant_retries] (default 3) is
    the number of retry generations a failing tenant gets before
    quarantine.

    Telemetry: with [trace], pid 0 is the scheduler lane
    ([scheduler.slice] spans, [scheduler.quarantine] spans around
    failure handling, an [execs_total] counter and — when [faults] is
    armed — a [faults.injected] counter), tenant [i] owns the next
    [1 + jobs] pids after tenant [i - 1]'s (its campaign-main lane, then
    one per shard, labelled with the tenant name; tenant 0 starts at
    pid 1), and shared pool worker [w] is the [w]-th pid after the last
    tenant's range — every lane has its own pid, whatever the jobs.
    With [timeseries], one row is appended per completed
    slice — time axis = slice ordinal — carrying [tenant] (index),
    [tenant_barrier], [tenant_execs] and [execs_total].

    [events] (default {!Sp_obs.Events.null}) receives the structured
    event stream: [scheduler.start]/[scheduler.finish], a Debug
    [scheduler.slice] per completed slice, [scheduler.budget_exhausted],
    and the failure path — Error [scheduler.failure], Warn
    [scheduler.backoff] (with the retry generation and due round), Info
    [scheduler.retry] on a successful rebuild, Error
    [scheduler.quarantine] on eviction. It is also threaded into
    snapshot-fallback scans ([snapshot.corrupt]).

    [telemetry] (default unarmed) publishes an immutable snapshot of
    seat state — metrics registry projection, per-tenant series, health
    and tenant-status documents — into the exporter at every barrier
    and once after the pool's metrics merge. Publication happens
    exclusively on the scheduling domain between slices, so arming it
    cannot change any report or snapshot byte. *)
