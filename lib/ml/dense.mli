(** Batched, preallocated MLP fast path — minibatch striping in its
    purest form (DESIGN.md §13).

    A 2-layer ReLU MLP trained with MSE + Adam where every activation,
    gradient and optimizer slot is allocated once up front: a
    steady-state {!train_step} allocates ~0 minor words. A batch is
    evaluated as whole-matrix ops (one matmul per layer, not one per
    sample), and {!train_step_striped} shards the batch's rows into
    contiguous stripes evaluated in parallel on {!Sp_util.Pool} domains,
    with gradients reduced in stripe order — byte-deterministic for a
    fixed (seed, stripe count).

    The math matches [Oracle.Ml_reference.Mlp] operation for operation (the
    batched kernels accumulate in the per-sample loop's order), which is
    what bench/exp_ml's ≥3x training-throughput bar compares against and
    test/test_ml_diff pins. *)

type t

type plan
(** Preallocated activations + gradient accumulator for one stripe of a
    fixed row count. *)

val create :
  Sp_util.Rng.t -> d_in:int -> hidden:int -> d_out:int -> lr:float -> t
(** Glorot-initialized, Adam with betas (0.9, 0.999), eps 1e-8. The same
    [rng] draw order as [Oracle.Ml_reference.Mlp.create], so equal seeds give
    equal initial weights. *)

val params : t -> Tensor.t list
(** [w1; b1; w2; b2] (live tensors, updated in place). *)

val plan : t -> rows:int -> plan

val stripe_plans : t -> rows:int -> jobs:int -> plan array
(** One plan per contiguous stripe of a [rows]-row batch; stripe [s]
    covers rows [rows*s/jobs, rows*(s+1)/jobs). *)

val train_step : t -> plan -> x:Tensor.t -> target:Tensor.t -> float
(** One Adam step of MSE over the batch ([x]: rows x d_in, [target]:
    rows x d_out, both matching the plan's rows); returns the mean
    squared error. Allocation-free in steady state. *)

val train_step_striped :
  t -> Sp_util.Pool.t -> plan array -> x:Tensor.t -> target:Tensor.t -> float
(** Like {!train_step} but each stripe's forward/backward runs as one
    pool task over zero-copy row views; gradients are reduced in stripe
    order before the (single) Adam step. Re-raises a stripe's
    exception. *)

val predict_into : t -> plan -> x:Tensor.t -> Tensor.t
(** Forward only; returns the plan's output buffer (valid until the next
    use of the plan). *)
