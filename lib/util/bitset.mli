(** Dense mutable bitsets over [0, capacity).

    Kernel coverage is a set of basic-block (or edge) indices out of a known
    universe, tested and merged millions of times per fuzzing campaign; a
    dense bitset keeps those operations O(words) and allocation-free. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [0, capacity). *)

val capacity : t -> int

val copy : t -> t

val add : t -> int -> unit
(** Raises [Invalid_argument] when the index is out of range. *)

val remove : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int

val is_empty : t -> bool

val union_into : dst:t -> t -> int
(** [union_into ~dst src] adds all of [src] to [dst]; returns the number of
    bits newly set in [dst]. Capacities must match. *)

val diff_cardinal : t -> t -> int
(** [diff_cardinal a b] is [|a \ b|]. Capacities must match. *)

val inter_cardinal : t -> t -> int

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Ascending order. *)

val of_list : int -> int list -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is true when every element of [a] is in [b]. *)
