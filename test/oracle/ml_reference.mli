(** The pre-Bigarray float-array tensor core, kept as a differential
    oracle (like {!Kernel_reference} for the executor). Semantics are
    frozen: every operation performs the exact float operations, in the
    exact order, of the original implementation, so the Bigarray
    {!Sp_ml.Tensor} can be pinned against it element for element. *)

type t = private { rows : int; cols : int; data : float array }

val create : int -> int -> t

val make : int -> int -> float -> t

val of_array : rows:int -> cols:int -> float array -> t

val copy : t -> t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val dims : t -> int * int

val numel : t -> int

val fill : t -> float -> unit

val glorot : Sp_util.Rng.t -> int -> int -> t

val randn : Sp_util.Rng.t -> float -> int -> int -> t

val add : t -> t -> t

val add_into : dst:t -> t -> unit

val sub : t -> t -> t

val mul : t -> t -> t

val scale : float -> t -> t

val map : (float -> float) -> t -> t

val matmul : t -> t -> t

val matmul_into : dst:t -> t -> t -> unit

val matmul_tn : t -> t -> t

val matmul_nt : t -> t -> t

val transpose : t -> t

val row : t -> int -> float array

val sum : t -> float

val frobenius : t -> float

val equal : t -> t -> bool

type tensor = t
(** Alias so {!Mlp}'s signature can name the tensor type. *)

(** A per-sample MLP trainer in the pre-PR execution model: one sample
    at a time, one fresh allocation per op, gradients accumulated by
    copy-then-add. The baseline side of bench/exp_ml's throughput bar
    and of test_ml_diff's end-to-end training agreement. *)
module Mlp : sig
  type nonrec t

  val create :
    Sp_util.Rng.t -> d_in:int -> hidden:int -> d_out:int -> lr:float -> t

  val params : t -> tensor list
  (** [w1; b1; w2; b2]. *)

  val train_step : t -> x:tensor -> target:tensor -> float
  (** One Adam step of MSE over the batch (sample-by-sample); returns the
      mean squared error. *)

  val predict : t -> x:tensor -> tensor
end
