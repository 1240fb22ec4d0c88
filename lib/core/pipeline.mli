(** End-to-end Snowplow pipeline: the §5.1 protocol in one call.

    Builds the kernel, assembles a base-test corpus (random generation plus
    corpus entries evolved by a short Syzkaller warm-up, standing in for
    the Syzbot-derived corpus), collects the mutation dataset, pretrains
    the block encoder, trains PMM with validation-calibrated threshold, and
    hands out inference services — including for later kernel versions the
    model was never trained on (the §5.3 generalization setting). *)

type config = {
  kernel_seed : int;
  train_version : string;  (** the version PMM is trained on ("6.8") *)
  gen_bases : int;  (** randomly generated base tests *)
  corpus_bases : int;  (** bases taken from the warm-up fuzzing corpus *)
  warmup_duration : float;  (** virtual seconds of Syzkaller warm-up *)
  dataset : Dataset.config;
  encoder : Encoder.config;
  pmm : Pmm.config;
  trainer : Trainer.config;
}

val default_config : config
(** 80 generated + 120 corpus bases, 1 virtual hour of warm-up, and the
    component defaults. *)

val quick_config : config
(** Integration-test scale — 40 generated + 40 corpus bases, 15 virtual
    minutes of warm-up, 200 mutations per base, 600 encoder steps and 4
    epochs: a poor model in seconds, through the same plumbing. *)

val env_config : unit -> config
(** {!quick_config} when [SNOWPLOW_QUICK] is set (the CI smokes), else
    {!default_config}: what [serve], [train] and the benches train. *)

type t = {
  config : config;
  kernel : Sp_kernel.Kernel.t;  (** the training kernel *)
  bases : Sp_syzlang.Prog.t list;
  split : Dataset.split;
  encoder : Encoder.t;
  block_embs : Sp_ml.Tensor.t;  (** embeddings for the training kernel *)
  model : Pmm.t;
  history : Trainer.progress list;
}

val train :
  ?config:config ->
  ?tracer:Sp_obs.Tracer.t ->
  ?tracer_for:(int -> Sp_obs.Tracer.t) ->
  unit ->
  t
(** [tracer] (default disabled) records [pipeline.collect_bases],
    [pipeline.dataset] and [pipeline.pretrain] spans around the training
    stages and is passed through to {!Trainer.train}, along with
    [tracer_for] (per-stripe tracers when the trainer runs with
    [jobs > 1]). *)

val kernel_version : t -> string -> Sp_kernel.Kernel.t
(** Another version of the same kernel family (same seed). *)

val embeddings_for : t -> Sp_kernel.Kernel.t -> Sp_ml.Tensor.t
(** Frozen-encoder block embeddings for any kernel version. *)

val inference_for :
  ?latency:float ->
  ?capacity_qps:float ->
  ?cache_capacity:int ->
  ?tracer:Sp_obs.Tracer.t ->
  t ->
  Sp_kernel.Kernel.t ->
  Inference.t
(** A fresh inference service of the trained model against the given
    kernel. [cache_capacity] bounds each prediction cache and [tracer]
    records batch-flush spans (see [Inference.create]). *)

val eval_scores : t -> Sp_ml.Metrics.scores
(** Held-out evaluation of the trained model (Table 1's PMM row). *)

val rand_baseline : t -> k:int -> Sp_ml.Metrics.scores
(** Table 1's Rand.K row on the same evaluation split. *)
