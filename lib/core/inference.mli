(** The PMM inference service (the paper's torchserve deployment, §4).

    Runs the trained model behind a bounded FIFO queue with a
    latency/capacity model (0.69 s per query, ~57 queries/s at saturation on
    one inference machine, §5.5). The fuzzer requests localization
    asynchronously and keeps mutating with other types while inference is
    pending (§3.4); completed predictions are picked up on a later loop
    iteration at their virtual ready time. Model compute is real (the GNN
    runs); only the delivery time is simulated.

    Both prediction caches are bounded LRUs ([Sp_util.Lru]) with TTL
    expiry, so memory stays constant over arbitrarily long campaigns. They
    key a base test by its {!Sp_syzlang.Prog.fingerprint} (computed once
    per request) and hold only answers, never programs. *)

type t

val create :
  ?latency:float ->
  ?capacity_qps:float ->
  ?max_pending:int ->
  ?cache_ttl:float ->
  ?cache_capacity:int ->
  ?metrics:Sp_util.Metrics.t ->
  ?tracer:Sp_obs.Tracer.t ->
  kernel:Sp_kernel.Kernel.t ->
  block_embs:Sp_ml.Tensor.t ->
  Pmm.t ->
  t
(** Defaults: latency 0.69 s, capacity 57 qps, max_pending 16, cache TTL
    1800 virtual seconds, cache capacity 4096 entries per cache. The cache
    is keyed on (base fingerprint, sorted target set): re-querying the same base against
    the same desired coverage is answered from the memo at zero service
    cost, while any change in the uncovered frontier produces a fresh
    query. [kernel] is the kernel being fuzzed (used to rebuild the query
    graph). [metrics] is the registry service counters/timers are recorded
    into (a private one is created when omitted). [tracer] (default
    disabled) records an [inference.batch] span and an
    [inference.pending] queue-depth counter per {!request_batch}; it must
    be owned by the domain calling the batch path (the campaign's main
    domain). *)

val request :
  t ->
  ?tag:int ->
  ?extra_latency:float ->
  ?record_targets:bool ->
  now:float ->
  Sp_syzlang.Prog.t ->
  targets:int list ->
  bool
(** Enqueue a localization query; returns false (dropped) when the service
    queue already holds [max_pending] requests — including when the answer
    would have come from the cache, since a memoized answer still occupies
    a pending slot until polled. The prediction is computed immediately but
    delivered at its virtual completion time (immediately for cache
    hits). [tag] (default 0) labels the request with its tenant for
    multi-tenant deployments: {!poll} can filter by it and
    {!tenant_stats} accounts per tag.

    [extra_latency] (default 0) is added to a {e computed} request's
    delivery time — the fault-injection vehicle for a stalled backend;
    cache hits still deliver immediately. With [record_targets] the
    (sorted) target set rides the pending entry so {!cancel_overdue} can
    hand it back for a retry; recorded targets are persisted with the
    queue, omitted when empty. *)

val poll :
  t ->
  ?tag:int ->
  now:float ->
  unit ->
  (Sp_syzlang.Prog.t * Sp_syzlang.Prog.path list) list
(** Completed requests with ready time <= [now], oldest first. With
    [tag], only completions carrying that tag are removed and returned —
    other tenants' completions stay queued for their own poll. *)

val poll_detailed :
  t ->
  ?tag:int ->
  now:float ->
  unit ->
  (Sp_syzlang.Prog.t * Sp_syzlang.Prog.path list * float) list
(** {!poll} plus each completion's virtual latency (0 for cache hits) —
    what the degraded funnel feeds its circuit breaker. Identical
    accounting and removal semantics to {!poll}. *)

val cancel_overdue :
  t ->
  ?tag:int ->
  now:float ->
  older_than:float ->
  unit ->
  (Sp_syzlang.Prog.t * int list) list
(** Remove (and return, oldest first) every still-undelivered request
    that was submitted at least [older_than] virtual seconds ago —
    the caller's timeout reclaiming queue slots from a stalled backend.
    Each removed entry is [(prog, recorded targets)] ([[]] unless the
    request was made with [record_targets]). Counted in {!cancelled} and
    the [inference.cancelled] metric; never counted as served. *)

val request_batch :
  t -> ?tag:int -> now:float -> (Sp_syzlang.Prog.t * int list) list -> int
(** Submit a batch of queries collected from many workers in one call (the
    funnel's barrier flush); returns how many were admitted. Individually
    equivalent to [request] per element, but recorded as one batch
    ([inference.batches] counter, [inference.batch_size] histogram) so the
    amortization of the forward pass is observable. *)

(** {1 Endpoints}

    The hybrid strategy talks to inference through this record rather than
    to the service directly, so the same strategy code runs against a
    private service (called in-line, e.g. offline experiments) or a
    per-shard view of a shared funnel (served campaigns). *)

type endpoint = {
  ep_request : now:float -> Sp_syzlang.Prog.t -> targets:int list -> bool;
  ep_poll :
    now:float -> (Sp_syzlang.Prog.fingerprint * Sp_syzlang.Prog.path list) list;
      (** Delivered predictions, each keyed by its base test's
          fingerprint — all a prediction memo needs. *)
}

val endpoint : t -> endpoint
(** The direct view of this service. *)

val predict_now :
  t -> Sp_syzlang.Prog.t -> targets:int list -> Sp_syzlang.Prog.path list
(** Synchronous prediction (used by offline analyses; bypasses the queue
    and records no service metrics). *)

(** {1 Service metrics (§5.5)} *)

val served : t -> int
(** Requests the service actually computed and delivered; cache hits are
    not served requests. *)

val cache_hits : t -> int

val cancelled : t -> int
(** Requests reclaimed by {!cancel_overdue}; 0 unless degradation armed. *)

val dropped : t -> int

val pending : t -> int
(** Requests currently queued; always [<= max_pending]. *)

val cache_size : t -> int
(** Total live entries across both prediction caches; always
    [<= cache_capacity]. *)

val cache_capacity : t -> int

val metrics : t -> Sp_util.Metrics.t
(** The registry recording [inference.*] counters and timers. *)

val mean_latency : t -> float
(** Mean request-to-ready virtual time over {e served} requests.
    Zero-latency cache hits are excluded — counting them would deflate the
    service latency the paper reports. *)

val saturation_qps : t -> float
(** The service's configured capacity. *)

val tenant_stats : t -> tag:int -> int * int * int * int
(** [(requests, served, cache_hits, dropped)] accounted to [tag]. The
    scheduler's per-tenant accounting: summed over all tags these equal
    the service-wide counters. *)

(** {1 Snapshot codec}

    Queue contents (as program text: {!cancel_overdue} hands a request
    back to run again), the virtual clock, both prediction caches
    (fingerprint keys and answers, recency order and TTL stamps exactly)
    and the per-tag stats — everything a
    resumed campaign needs for the service to behave bit-for-bit as if
    it had never stopped. Model weights and [inference.*] metrics are
    {e not} included: weights are rebuilt by the caller (training is
    seeded) and metrics registries are merged, not restored. *)

val state_json : t -> Sp_obs.Json.t

val restore_state :
  t ->
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  Sp_obs.Json.t ->
  unit
(** Restore {!state_json} output into a service created with the same
    configuration. Raises [Sp_obs.Json.Decode.Error] on malformed
    input. *)
