(** The fuzzing corpus: tests worth mutating, with their cached coverage.

    A mutant enters the corpus when it covered kernel code no previous test
    did (Figure 1's [update_corpus]); each entry caches its block and edge
    coverage so base-test selection and query-graph construction never
    re-execute.

    Deduplication is by {!Sp_syzlang.Prog.fingerprint}, the program
    identity every program-keyed set shares: two distinct programs both
    stay unless they share all 126 bits. In directed mode the corpus also maintains the minimum
    distance-to-target tier incrementally as entries arrive, making
    directed base selection O(1) rather than an O(n) scan per choice. *)

type entry = {
  prog : Sp_syzlang.Prog.t;
  blocks : Sp_util.Bitset.t;
  edges : Sp_util.Bitset.t;
  added_at : float;
}

type t

val create : ?distance:(entry -> int) -> unit -> t
(** [distance] enables directed mode: it is
    evaluated once per entry at [add] time (coverage is immutable, so the
    distance is too) and drives [choose_directed]. *)

val copy : t -> t
(** An independent corpus with the same entries, fingerprints and
    distance index; entries themselves (immutable) are shared. Each shard epoch runs
    against a copy of the barrier-frozen global corpus. *)

val size : t -> int

val entries : t -> entry list
(** Newest first. *)

val nth : t -> int -> entry

val add : t -> entry -> bool
(** False (and no insertion) when a program with the same fingerprint is
    already present. *)

val mem_prog : t -> Sp_syzlang.Prog.t -> bool

val choose : Sp_util.Rng.t -> t -> entry
(** Uniform choice. Raises [Invalid_argument] on an empty corpus. *)

val choose_directed : Sp_util.Rng.t -> t -> entry
(** SyzDirect-style base selection: strongly favours entries whose coverage
    got closest to the target (minimum distance, from the maintained
    index); falls back to uniform among the best tier with occasional
    (10%) exploration. Raises [Invalid_argument] on an empty corpus or one
    created without [distance]. *)

val entry_distance : t -> int -> int
(** Distance recorded for the [i]-th entry. Raises [Invalid_argument] out
    of range or when the corpus has no distance function. *)

val min_distance : t -> int option
(** Smallest recorded distance, [None] when empty or undirected. *)
