(** Amortized-O(1) FIFO queue.

    The campaign/inference hot path enqueues one pending request per loop
    iteration; a naive [xs @ [x]] list-append queue makes that O(n) per push
    (quadratic over a campaign). This queue is the standard two-list design:
    O(1) push, amortized O(1) pop, O(1) length. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Enqueue at the back. *)

val pop_opt : 'a t -> 'a option
(** Dequeue from the front; [None] when empty. *)

val peek_opt : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Front (oldest) first. *)

val of_list : 'a list -> 'a t
(** The head of the list becomes the front of the queue. *)

val clear : 'a t -> unit

val drain : 'a t -> 'a list
(** Remove every element, returned oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val fold : ('a -> 'b -> 'a) -> 'a -> 'b t -> 'a

val partition : ('a -> bool) -> 'a t -> 'a list
(** [partition p t] removes and returns (oldest first) every element
    satisfying [p], keeping the rest in [t] in their original order. One
    O(n) pass — for pollers that drain a ready subset from the middle of
    the queue. *)
