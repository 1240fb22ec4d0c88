(** Learned system-call insertion — the §6 extension.

    The paper argues the PMM methodology "can be used to localize system
    call insertion with no representational or training changes" and that
    instantiation prediction (choosing which of the known system-call
    variants to insert) is a minimal architecture change: predict one of
    the syscall variants instead of a binary label. This module implements
    that extension: a small relational model over the {e program side} of
    the query graph, plus a per-syscall coverage-saturation context,
    trained on successful insertion mutations to predict {e which syscall
    to insert} into a base test to unlock new coverage. (This also
    recovers HEALER-style implicit call-relation learning, §7.) *)

type config = {
  hidden : int;
  rounds : int;  (** program-graph message-passing rounds *)
  epochs : int;
  lr : float;
  seed : int;
}

val default_config : config

type t

val create :
  ?config:config -> Sp_kernel.Kernel.t -> t

(** {1 Dataset} *)

type example = {
  base : Sp_syzlang.Prog.t;
  inserted_sys : int;  (** syscall id whose insertion unlocked new coverage *)
}

val collect_examples :
  ?tries_per_base:int ->
  seed:int ->
  covered:Sp_util.Bitset.t ->
  Sp_kernel.Kernel.t ->
  bases:Sp_syzlang.Prog.t list ->
  example list
(** Random insertions executed against the kernel; an example is kept when
    the mutant covered blocks neither the base nor the whole campaign
    ([covered]) has seen — marginal novelty, the quantity a fuzzing loop
    actually optimizes (default 40 tries per base). *)

(** {1 Training and prediction} *)

val train :
  t -> covered:Sp_util.Bitset.t -> example list -> float list
(** Train on the examples given the campaign's current coverage context;
    returns the per-epoch mean loss. *)

val scores : t -> covered:Sp_util.Bitset.t -> Sp_syzlang.Prog.t -> float array
(** A probability per syscall id: how promising is inserting it into this
    base test. *)

val top_k : t -> covered:Sp_util.Bitset.t -> Sp_syzlang.Prog.t -> k:int -> int list

val accuracy :
  t -> covered:Sp_util.Bitset.t -> example list -> k:int -> float
(** Top-[k] accuracy against held-out successful insertions. *)
