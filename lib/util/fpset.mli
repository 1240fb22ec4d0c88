(** A set of 126-bit fingerprints, each a pair of 63-bit ints.

    One flat int array with open addressing and linear probing, a
    power-of-two capacity that doubles at half load. Membership tests and
    inserts allocate nothing (an insert that doubles the table excepted),
    and the table holds no pointers: the GC sees one block of 2 words per
    slot, with 2 to 4 slots per member once the table has grown past its
    initial 32 slots (so about [8n] words at most for [n] members), and
    nothing to trace. Any pair of ints is a valid member, [(0, 0)]
    included. *)

type t

val create : unit -> t
(** An empty set; it takes 16 members before its first doubling. *)

val length : t -> int

val copy : t -> t
(** An independent set with the same members: one flat array copy. *)

val mem : t -> int -> int -> bool
(** [mem t hi lo] *)

val add : t -> int -> int -> bool
(** [add t hi lo] inserts the pair and returns [true] when it was not a
    member yet, [false] (leaving [t] unchanged) when it was: one probe
    serves both the membership test and the insert. *)

val clear : t -> unit

val iter_sorted : (int -> int -> unit) -> t -> unit
(** Every member in increasing numeric order, the halves read as
    unsigned 63-bit numbers: by first half, then by second. That is the
    lexicographic order of their {!to_hex} texts, so a sorted dump is
    canonical, whatever the table's layout and insertion history. *)

val to_hex : int -> int -> string
(** The fixed-width text of a pair: 32 lowercase hex digits, 16 per half
    (each half read as an unsigned 63-bit number). *)

val of_hex : string -> (int * int) option
(** Inverse of {!to_hex}; [None] unless the string is exactly 32
    lowercase hex digits whose two halves fit in 63 bits. *)
