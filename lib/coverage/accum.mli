(** Campaign-level coverage accumulation.

    Tracks the union of block and edge coverage over every test a fuzzing
    campaign has executed, and reports per-test novelty — the signal the
    fuzz loop uses to decide whether a mutant earned a place in the corpus
    (Figure 1, [update_corpus]) and the series plotted in Figure 6. *)

type t

val create : num_blocks:int -> num_edges:int -> t

val copy : t -> t

type delta = { new_blocks : int; new_edges : int }

val add : t -> blocks:Sp_util.Bitset.t -> edges:Sp_util.Bitset.t -> delta
(** Merge one execution's coverage; returns how much of it was new. *)

val add_stamped :
  t -> blocks:Sp_util.Stampset.t -> edges:Sp_util.Stampset.t -> delta
(** [add], but directly from an execution scratch's stamped coverage sets:
    O(sets' cardinal) rather than O(universe), with no intermediate bitset.
    The sets are only read. *)

val merge_into : dst:t -> t -> unit
(** Union another accumulator's coverage into [dst] (same capacities). *)

val blocks : t -> Sp_util.Bitset.t
(** The {e live} accumulated block set, shared for the duration of one
    campaign-loop call — read-only by contract. Mutating it desynchronizes
    the cached cardinals and corrupts campaign coverage accounting. Any
    value that escapes the loop (reports, logs) must use
    [snapshot_blocks] instead. *)

val snapshot_blocks : t -> Sp_util.Bitset.t
(** An independent copy of the accumulated block set, safe to hold or
    mutate after the accumulator moves on. *)

val mem_block : t -> int -> bool
(** Read-only membership test on the accumulated block set. *)

val capacities : t -> int * int
(** [(block capacity, edge capacity)] of the underlying bitsets — used to
    validate a deserialized accumulator against the kernel it is resumed
    on. *)

val blocks_covered : t -> int

val edges_covered : t -> int

(** {1 Serialization}

    Campaign snapshots persist the accumulator as sorted element lists
    (deterministic output for a given coverage state). *)

val bitset_to_json : Sp_util.Bitset.t -> Sp_obs.Json.t
(** Shared bitset codec ([capacity] + ascending [elements]); also used for
    corpus entry coverage in snapshots. *)

val bitset_of_json : Sp_obs.Json.t -> Sp_util.Bitset.t
(** Raises [Sp_obs.Json.Decode.Error] on malformed input. *)

val to_json : t -> Sp_obs.Json.t

val of_json : Sp_obs.Json.t -> t
(** Rebuilds the accumulator (cardinal counters recomputed). Raises
    [Sp_obs.Json.Decode.Error] on malformed input. *)
