(** Optimizers updating {!Ad.param} leaves in place. *)

type t

val adam :
  ?lr:float ->
  ?beta1:float ->
  ?beta2:float ->
  ?eps:float ->
  ?weight_decay:float ->
  Ad.t list ->
  t
(** Defaults: lr 1e-3, betas (0.9, 0.999), eps 1e-8, no weight decay. *)

val sgd : ?lr:float -> ?momentum:float -> Ad.t list -> t

val step : t -> unit
(** Apply one update from the accumulated gradients; parameters without a
    gradient are skipped. *)

val zero_grad : t -> unit

val lr : t -> float
