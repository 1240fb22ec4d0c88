(** Barrier-batched fan-in of shard inference requests.

    A campaign runs one PMM inference service for all its shards —
    the paper's single torchserve machine. Letting shards call the
    service mid-epoch would make admission order (and therefore the
    queue/cache state) depend on thread scheduling, so the funnel defers
    everything to the snapshot barrier: during an epoch each shard's
    {!endpoint_for} view only appends requests to that shard's private
    outbox and drains predictions from that shard's private inbox — no
    cross-domain contention, no locks. At the barrier (on the main
    domain, via [Campaign.create_instance ~on_barrier]) {!flush_tenant}
    forwards the outboxes to the service in shard order as one
    {!Inference.request_batch} and broadcasts every completed prediction,
    keyed by its base test's {!Sp_syzlang.Prog.fingerprint} (computed
    once per delivery), to all inboxes, keeping the run bit-for-bit
    reproducible given [(seed, jobs)]. [Launch.snowplow_lane] is that
    wiring.

    Predictions are broadcast (rather than routed to the requesting
    shard) because shards frequently mutate the same corpus entries: a
    prediction for a base test is useful to every shard that holds it,
    and each shard's strategy memoizes by base-program fingerprint
    anyway.

    {b Multi-tenancy.} {!create_multi} gives each of N campaigns its own
    lane — a private range of shard slots — over the single shared
    service; a solo campaign is the one-lane case. Requests are tagged
    with the tenant index ({!Inference.request_batch}'s [tag]) and
    {!flush_tenant} polls only that tag, so one tenant's barrier can
    never steal (or observe) another's completions: each tenant's
    prediction stream depends only on its own request history, never on
    the schedule.

    {b Degradation.} With [degrade] armed, each tenant lane owns a
    {!Breaker} and a retry ledger: at every flush, requests older than
    [dg_timeout] are reclaimed from the service ({!Inference.cancel_overdue})
    and counted as breaker errors; reclaimed requests are re-sent after an
    exponential backoff (1, 2, 4... flushes) up to [dg_retries] extra
    attempts. While the breaker is not Closed the lane {e sheds} fresh
    requests (refusing them at the shard endpoints too, so {!Hybrid} falls
    back to history/random mutation) and sends at most one half-open
    probe per flush. All decisions run on the virtual clock and, under
    fault injection, on the deterministic plan — so degraded runs replay
    byte-identically. Lane state rides {!state_json} {e only once it has
    left the default} — an armed lane that never saw a fault snapshots
    byte-identically to an unarmed one. *)

type t

(** Per-tenant-lane degradation policy. *)
type degrade = {
  dg_timeout : float;
      (** virtual seconds before an undelivered request is reclaimed;
          must exceed the service's natural worst-case latency and stay
          well under the barrier interval *)
  dg_retries : int;  (** extra send attempts after the first *)
  dg_breaker : Breaker.config;
}

val default_degrade : degrade
(** 30 s timeout, 2 retries, {!Breaker.default_config}. *)

type lane_stats = {
  ls_state : Breaker.state;
  ls_trips : int;
  ls_errors : int;  (** timeouts + injected request failures *)
  ls_shed : int;  (** fresh requests refused while not Closed *)
  ls_retries_pending : int;
}

val create_multi :
  ?max_outbox:int ->
  ?tracer:Sp_obs.Tracer.t ->
  ?degrade:degrade ->
  ?faults:Sp_util.Faults.t ->
  ?events:Sp_obs.Events.t ->
  tenant_shards:int array ->
  Inference.t ->
  t
(** One lane per tenant: [tenant_shards.(i)] is tenant [i]'s shard
    count. Raises [Invalid_argument] on an empty array or a shard count
    < 1.

    [max_outbox] (default 64) bounds each shard's per-epoch outbox;
    requests beyond it are refused exactly like a full service queue.
    [tracer] (default disabled) records a [funnel.flush] span and a
    [funnel.batch_size] counter per {!flush_tenant}; it must be owned by
    the domain calling [flush_tenant] (the one running the barriers).

    [degrade] (default off) arms the per-lane breaker/retry machinery.
    [faults] (default {!Sp_util.Faults.disabled}) arms injection sites,
    all suffixed with the tenant index: [funnel.flush@N] (the whole
    flush raises, [k] = per-tenant flush ordinal), [inference.request@N]
    (one send fails, counted as a breaker error) and
    [inference.timeout@N] (one send stalls past the lane deadline), the
    latter two at [k] = per-lane send ordinal. Send ordinals restart on
    resume — schedule entries address occurrences within one process.

    [events] (default {!Sp_obs.Events.null}) receives structured
    telemetry at barrier granularity: [breaker.transition] (a lane's
    breaker changed state — Warn when leaving closed, Info on recovery)
    and [funnel.reclaim] (stalled requests pulled back from the
    service, Warn). *)

val endpoint_for : t -> tenant:int -> shard:int -> Inference.endpoint
(** The view handed to tenant [tenant]'s shard [shard]'s strategy. Must
    only be used from the domain running that shard — per-shard state is
    unsynchronized by design. *)

val flush_tenant : t -> tenant:int -> now:float -> int
(** Forward the tenant's outboxes (shard order) to the service as one
    tagged batch at virtual time [now], then poll the service for that
    tag only and broadcast completions to the tenant's inboxes. Returns
    the number of predictions delivered. Call at the tenant's barrier
    only — never while one of its epochs is running. *)

val requests_deferred : t -> int
(** Total requests accepted into outboxes so far. *)

val dropped : t -> int
(** Requests refused because an outbox was full. *)

val tenant_queue_depth : t -> tenant:int -> int
(** Work currently parked in the tenant's lane: queued outbox requests,
    undelivered inbox predictions, and (with degradation armed) retries
    awaiting their backoff. A live-depth gauge for telemetry; read it at
    barriers only, like {!flush_tenant}. *)

val tenant_deferred : t -> tenant:int -> int

val tenant_dropped : t -> tenant:int -> int
(** With degradation armed, also counts requests refused at the shard
    endpoints while the lane was degraded. *)

val lane_degraded : t -> tenant:int -> bool
(** [true] while the tenant's breaker is not Closed (as of its last
    flush); always [false] when [degrade] is off. Safe to read from the
    tenant's shard domains between barriers — it is only written at the
    tenant's own barrier. The natural [?degraded] hint for
    {!Hybrid.strategy_with}. *)

val lane_stats : t -> tenant:int -> now:float -> lane_stats option
(** [None] when [degrade] is off. A pure read ({!Breaker.peek}): it
    reports the state [now] implies but never commits the clocked
    Open -> Half_open transition, so the telemetry plane can sample any
    tenant's lane at any barrier without perturbing the state an
    unobserved run would persist. *)

val state_json : t -> Sp_obs.Json.t
(** In-flight lane state — outbox contents (program text: they run
    again), inbox contents (fingerprint and paths) and the
    deferred/dropped counters — for campaign snapshots. The service's
    own state is {!Inference.state_json}, serialized separately (it is
    shared across tenants). With degradation armed, a [lanes] field
    (breaker state, retry ledger, attempt counts, per-tenant flush
    ordinals) is appended {e only once some lane has left its default
    state}; the retry ledger keeps program text (retries run again), the
    attempt counts are keyed by fingerprint. Restoring requires the
    funnel to be armed the same way. *)

val restore_state :
  t -> parse:(string -> (Sp_syzlang.Prog.t, string) result) -> Sp_obs.Json.t -> unit
(** Restore {!state_json} output into a funnel of the same shape (same
    [tenant_shards]). Raises [Sp_obs.Json.Decode.Error] on malformed
    input or a slot-count mismatch. *)
