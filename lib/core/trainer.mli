(** PMM training, threshold calibration and evaluation (§3.3, §5.2).

    Adam over per-example BCE; validation F1 both guides threshold
    calibration and selects the best checkpointed threshold, mirroring the
    paper's F1-guided hyper-parameter protocol. The random baseline Rand.K
    of Table 1 is provided for comparison.

    Training runs minibatch striping (DESIGN.md §13): each mini-batch's
    examples are split into [jobs] contiguous stripes, each stripe builds
    its tapes and accumulates gradients against a {!Pmm.clone_shared}
    view of the model — stripe 0 on the calling domain, the others on a
    {!Sp_util.Pool} of [jobs - 1] workers — and the per-stripe gradients
    are reduced in stripe order before a single Adam step, deterministic
    for a fixed (seed, jobs). [jobs = 1] is the one-stripe case: it
    starts no pool, and its parameters, threshold and loss history equal
    those of accumulating every example's gradient into the model
    directly. *)

type config = {
  epochs : int;
  lr : float;
  batch : int;  (** examples per gradient step (gradient accumulation) *)
  seed : int;
  log_every : int;  (** steps between history records; 0 disables *)
  jobs : int;  (** stripes, >= 1 (default 1); [jobs - 1] pool workers *)
}

val default_config : config

type progress = { step : int; loss : float (** mean loss since last record *) }

val train :
  ?config:config ->
  ?tracer:Sp_obs.Tracer.t ->
  ?tracer_for:(int -> Sp_obs.Tracer.t) ->
  Pmm.t ->
  block_embs:Sp_ml.Tensor.t ->
  train:Dataset.example array ->
  valid:Dataset.example array ->
  progress list
(** Trains in place; afterwards the model's threshold is calibrated to
    maximize mean F1 on [valid]. Returns the loss history. [tracer]
    (default disabled) records one [trainer.epoch] span per epoch, a
    [trainer.loss] counter per history record and a
    [trainer.samples_per_s] counter per optimizer step. [tracer_for s]
    supplies stripe [s]'s tracer (called once per stripe up front; each
    records one [trainer.stripe] span per mini-batch) — use distinct
    tracers per stripe, stripes other than 0 write theirs from pool
    domains. Raises [Invalid_argument] when [jobs < 1]. *)

val evaluate :
  Pmm.t ->
  block_embs:Sp_ml.Tensor.t ->
  Dataset.example array ->
  Sp_ml.Metrics.scores
(** Mean per-example scores of {!Pmm.predict} against the merged mutated
    argument sets. *)

val random_baseline :
  k:int -> seed:int -> Dataset.example array -> Sp_ml.Metrics.scores
(** Table 1's Rand.K: select [k] unique arguments uniformly per example. *)

val calibrate_threshold :
  Pmm.t -> block_embs:Sp_ml.Tensor.t -> Dataset.example array -> float
(** The threshold in \{0.1..0.9\} maximizing mean F1 (also set on the
    model). *)
