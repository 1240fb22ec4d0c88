(** Bounded LRU cache with optional TTL expiry.

    Long fuzzing campaigns hit memoization caches millions of times; an
    unbounded [Hashtbl] memo grows for the whole run (the inference
    service's prediction caches were the offender). This cache is bounded
    by construction — inserting into a full cache evicts the least
    recently used entry — and optionally expires entries a fixed TTL after
    they were written.

    Time is supplied by the caller ([~now]), so virtual campaign clocks
    work as well as wall clocks. A [find] hit refreshes the entry's
    recency but {e not} its TTL: freshness is measured from the last
    [put]. All operations are O(1). *)

type ('k, 'v) t

val create : ?ttl:float -> capacity:int -> unit -> ('k, 'v) t
(** [capacity] must be positive; [ttl] (if given) is in the caller's time
    unit. Raises [Invalid_argument] on a non-positive capacity or TTL. *)

val find : ('k, 'v) t -> now:float -> 'k -> 'v option
(** TTL-checked lookup; an expired entry is dropped and reported as a
    miss. A hit moves the entry to most-recently-used. *)

val put : ('k, 'v) t -> now:float -> 'k -> 'v -> unit
(** Insert or overwrite; resets the entry's TTL stamp. Evicts the least
    recently used entry when the cache is full. *)

val remove : ('k, 'v) t -> 'k -> unit

val length : ('k, 'v) t -> int
(** Always [<= capacity]. *)

val capacity : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Entries pushed out by capacity pressure since creation. *)

val expirations : ('k, 'v) t -> int
(** Entries dropped by TTL on lookup since creation. *)

val fold : ('a -> 'k -> 'v -> 'a) -> 'a -> ('k, 'v) t -> 'a
(** Unspecified order. *)

val to_list : ('k, 'v) t -> ('k * 'v * float) list
(** Entries in recency order, most recently used first, each with its
    TTL write stamp. Replaying the result in reverse with
    [put ~now:written_at] reconstructs an equivalent cache — the basis
    for snapshot serialization. *)

val clear : ('k, 'v) t -> unit
