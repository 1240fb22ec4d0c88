(** Deterministic, splittable pseudo-random number generator.

    The whole reproduction must be replayable from a single seed, including
    experiments that run "concurrent" components (fuzzer threads, inference
    workers). A SplitMix64 generator supports cheap, well-distributed
    splitting, so each component gets an independent stream derived from its
    parent without any shared mutable state between components. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val state : t -> int64
(** The full internal state. [state]/[set_state]/[of_state] exist so that
    campaign snapshots can persist and later resume a stream exactly:
    a generator restored from [state t] replays [t]'s future draws
    bit-for-bit. *)

val set_state : t -> int64 -> unit
(** Overwrite the internal state with a previously captured one. *)

val of_state : int64 -> t
(** A fresh generator whose next draws equal those of the generator
    [state] was captured from. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val split_named : t -> string -> t
(** [split_named t label] derives an independent stream keyed by [label];
    the same [t] state and label always give the same stream, regardless of
    how many other splits were taken. Used to decouple subsystem streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Exactly uniform: draws in the topmost partial cycle of the 62-bit
    range are rejected and retried rather than folded (modulo-biased)
    onto small residues. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val sample : t -> 'a array -> int -> 'a list
(** [sample t arr k] draws [min k (length arr)] distinct elements, uniformly
    without replacement. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val weighted : t -> ('a * float) list -> 'a
(** [weighted t choices] draws proportionally to the (positive) weights;
    non-finite weights (NaN, infinities) are treated as 0. Raises
    [Invalid_argument] if the list is empty or no weight is positive and
    finite. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)
