(** How a tenant spec becomes a campaign.

    Snowplow starts every fuzzer VM from one configuration, against one
    shared inference service (§3.4). This module is that convention,
    once: [snowplow fuzz] launches one {!spec} as a campaign instance,
    [snowplow serve] a roster of N specs as scheduler tenants, and both
    share the validation, campaign config, VM seeds, service and lane
    wiring below. *)

type system = [ `Syzkaller | `Snowplow ]

type spec = {
  name : string;
  system : system;
  jobs : int;  (** shards, one pool domain each *)
  hours : float;  (** virtual campaign duration *)
  run_seed : int;
  weight : float;  (** stride-scheduling weight *)
  exec_budget : int option;  (** VM executions allowed; [None] unlimited *)
  corpus_size : int;  (** generated seed programs *)
}

val default_spec : spec
(** The roster defaults: syzkaller, 1 job, 1 hour, run seed 11, weight 1,
    no budget, 100 seed programs, and an empty name. *)

val max_jobs : int
(** 127: the OCaml 5.1 runtime runs at most 128 domains, the main one
    included, and a pool spawns one domain per worker. *)

val check_spec : spec -> (unit, string) result
(** The first parameter the runtime cannot honour, as a message that
    starts with the field's name: [jobs] outside [1 .. max_jobs], a
    weight that is not finite and positive, hours whose virtual duration
    ([hours * 3600] s) is not finite and positive, or a negative budget
    or corpus size. Checked before any kernel, training or pool starts. *)

val check_workers : int -> (unit, string) result
(** A pool size outside [1 .. max_jobs]. *)

val roster_of_string : string -> (spec list, string) result
(** The [serve --tenants] document: a non-empty JSON array of objects
    with fields [name] (required), [system] ([syzkaller] | [snowplow]),
    [jobs], [hours], [run_seed], [weight], [exec_budget] and
    [corpus_size], defaulting as in {!default_spec}. Every entry is
    decoded and {!check_spec}ed, and names must be unique and one safe
    path component — [[A-Za-z0-9_-][A-Za-z0-9_.-]*], at most 64 bytes —
    because [serve] writes each tenant's snapshots to [ROOT/<name>] and
    prefixes its fault sites and retry labels ([name#N]) with it. All
    problems are reported together, one per line. Never raises. *)

val config : Sp_syzlang.Spec.db -> spec -> Sp_fuzz.Campaign.config
(** [corpus_size] seed programs generated from [run_seed lxor 0x5eed],
    [hours] of virtual time, a barrier every [max 600 (hours * 3600 / 12)]
    virtual seconds, and crash reproduction on. Shard [s]'s VM is seeded
    [run_seed + 7919 * s], so a run is reproducible from (run seed, jobs)
    alone. *)

type service
(** One warm inference service with one {!Funnel} lane per tenant. *)

val start :
  pipeline:Pipeline.config ->
  tracer:Sp_obs.Tracer.t ->
  faults:Sp_util.Faults.t ->
  events:Sp_obs.Events.t ->
  Sp_kernel.Kernel.t ->
  spec list ->
  service option
(** [None] unless some spec is a snowplow one. Otherwise trains the PMM
    with [pipeline] and serves it against the kernel, with a lane per
    spec in roster order. [tracer] records the training, inference and
    funnel spans and must belong to the domain that runs the barriers.
    [faults] arms the funnel's injection sites and, when enabled, lane
    degradation ({!Funnel.default_degrade}) — without injected faults
    the service cannot stall; [events] receives the breaker and reclaim
    events. *)

val of_inference : tenant_jobs:int array -> Inference.t -> service
(** A service over a built inference service, one lane per entry of
    [tenant_jobs] (that tenant's shards); untraced, no faults. *)

type lane = {
  strategy_for : int -> Sp_fuzz.Strategy.t;
  on_barrier : now:float -> unit;
  aux : Sp_fuzz.Campaign.aux;
}

val snowplow_lane : service -> tenant:int -> Sp_kernel.Kernel.t -> lane
(** A snowplow tenant's wiring: shard [s] proposes through
    {!Hybrid.strategy_with} over its {!Funnel.endpoint_for} view with its
    own prediction memo, the barrier flushes the tenant's lane
    ({!Funnel.flush_tenant}), and {!Persist.aux} rides service, funnel
    and memos in the snapshots so a resumed tenant matches its
    uninterrupted run. Build one lane per campaign instance. *)

val instance :
  trace:Sp_obs.Trace.t ->
  timeseries:Sp_obs.Timeseries.t option ->
  snapshot_dir:string option ->
  restore:Sp_obs.Json.t option ->
  service option ->
  Sp_kernel.Kernel.t ->
  spec ->
  (Sp_fuzz.Campaign.instance, string) result
(** One spec as a solo campaign, on lane 0 of a service {!start}ed from
    [[spec]]; a snowplow instance's time-series rows also carry the
    [inference.*] gauges and the lane's [funnel.deferred] and
    [funnel.dropped]. [Error] when [restore] does not match the spec. *)

val tenant :
  snapshot_dir:string option ->
  restore:Sp_obs.Json.t option ->
  service option ->
  Sp_kernel.Kernel.t ->
  index:int ->
  spec ->
  Sp_fuzz.Scheduler.tenant
(** Roster entry [index] as a scheduler tenant on lane [index]. *)

val gauges : service option -> spec list -> Sp_obs.Exposition.metric list
(** The series the scheduler cannot see, for the roster the service was
    started from: training throughput, the service's queue and cache,
    and per lane its depth, deferred and dropped counts plus, when
    degradation is armed, the breaker's state, trips, errors and shed
    requests. Pure reads, clocked at the latest barrier; [[]] without a
    service. *)
