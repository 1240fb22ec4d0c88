(** Snowplow: the hybrid fuzzer of §3.4.

    Syzkaller's loop with PMM as the argument-mutation localizer: when the
    fuzzer picks a base test, a localization query (base test + coverage +
    uncovered frontier targets) is sent to the inference service
    asynchronously; mutation-type selection, insertion, removal and
    splicing are untouched, and until the prediction arrives argument
    mutations use the stock random localizer as a fallback. *)

val guided_mutants :
  Sp_util.Rng.t ->
  Sp_mutation.Engine.t ->
  Sp_syzlang.Prog.t ->
  Sp_syzlang.Prog.path list ->
  per_arg:int ->
  Sp_fuzz.Strategy.proposal list
(** Instantiate-and-propose on PMM-predicted locations: [per_arg] mutants
    per predicted argument, each mutating 1-2 of the predicted paths. *)

val pick_targets :
  Sp_util.Rng.t ->
  Sp_kernel.Kernel.t ->
  covered:Sp_util.Bitset.t ->
  Sp_fuzz.Corpus.entry ->
  max_targets:int ->
  int list
(** Desired-coverage targets for an undirected query: alternative path
    entries of the base test's coverage that the whole campaign has not
    covered yet, reduced to a deterministic pseudo-random subset of
    [max_targets] (determinism keeps the inference cache valid until the
    frontier changes). The subset is ordered by the base's
    {!Sp_syzlang.Prog.hash}, whose value every snowplow golden fixes. *)

type predictions
(** A shard strategy's delivered-prediction memo (base-program
    fingerprint → predicted paths; bounded LRU). Owned by exactly one
    strategy instance — never share one across shards. *)

val make_predictions : unit -> predictions

val predictions_json : predictions -> Sp_obs.Json.t

val restore_predictions : predictions -> Sp_obs.Json.t -> unit
(** Restore {!predictions_json} output (recency order and contents
    exactly). Raises [Sp_obs.Json.Decode.Error] on malformed input. *)

val strategy_with :
  ?mutations_per_base:int ->
  ?max_targets:int ->
  ?insertion:Insertion.t ->
  ?predictions:predictions ->
  ?degraded:(unit -> bool) ->
  endpoint:Inference.endpoint ->
  Sp_kernel.Kernel.t ->
  Sp_fuzz.Strategy.t
(** Like {!strategy}, but against any {!Inference.endpoint} — in parallel
    campaigns each shard's strategy is built over its
    {!Funnel.endpoint_for} view of one shared service (see
    {!Launch.snowplow_lane}). Every instance owns its prediction memo (a
    private one unless [predictions] hands it one to make it
    snapshot-persistable), so instances never share mutable state.

    [degraded] (default [fun () -> false]) is polled once per propose;
    while [true] the strategy skips target selection and inference
    requests entirely, mutating from already-delivered predictions and
    the stock random localizer — the fallback used while a
    {!Funnel.lane_degraded} breaker is open. The hint must be
    deterministic (e.g. a barrier-written flag), or reproducibility is
    forfeit. *)

val strategy :
  ?mutations_per_base:int ->
  ?max_targets:int ->
  ?insertion:Insertion.t ->
  inference:Inference.t ->
  Sp_kernel.Kernel.t ->
  Sp_fuzz.Strategy.t
(** The Snowplow strategy (throughput factor 383/390, §5.5): Syzkaller's
    engine with PMM substituted as the argument-mutation localizer.
    Defaults: 8 mutations per base, 40 targets per query. Until a base
    test's asynchronous prediction is delivered, argument mutations fall
    back to the stock random localizer. Passing [insertion] additionally
    draws inserted calls from the learned insertion model's top
    predictions (the §6 extension) instead of uniformly. *)
