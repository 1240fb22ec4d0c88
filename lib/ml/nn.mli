(** Neural-network building blocks on top of {!Ad}. *)

module Linear : sig
  type t

  val create : ?bias:bool -> Sp_util.Rng.t -> int -> int -> t
  (** [create rng d_in d_out], Glorot-initialized. *)

  val apply : t -> Ad.t -> Ad.t

  val params : t -> Ad.t list

  val weight : t -> Tensor.t
  (** The raw weight matrix (shared with the trainable parameter). *)

  val bias : t -> Tensor.t option

  val clone_shared : t -> t
  (** Fresh parameter leaves over the {e same} value tensors: the clone
      accumulates its own gradients but reads (and sees updates to) the
      original's weights — the per-worker model of stripe-parallel
      training. *)
end

module Embedding : sig
  type t

  val create : Sp_util.Rng.t -> vocab:int -> dim:int -> t

  val lookup : t -> int array -> Ad.t
  (** One row per index. *)

  val params : t -> Ad.t list

  val dim : t -> int

  val table : t -> Tensor.t
  (** The raw embedding table (shared with the trainable parameter). *)

  val clone_shared : t -> t
  (** See {!Linear.clone_shared}. *)
end

val num_parameters : Ad.t list -> int
