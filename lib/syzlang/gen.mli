(** Random well-formed program generation (seed-corpus construction).

    Plays the role of Syzkaller's generator: pick syscalls, give every
    argument a plausible value, and wire resource arguments either to an
    earlier producing call (inserting one when the program has none) or, with
    small probability, leave them bogus — invalid fds are a classic source of
    error-path coverage. *)

val call : Sp_util.Rng.t -> Spec.db -> Spec.t -> Prog.call
(** One call with randomized (well-formed) argument values; resources are
    left bogus for the caller to wire. *)

val program :
  Sp_util.Rng.t -> Spec.db -> ?min_calls:int -> ?max_calls:int -> unit -> Prog.t
(** A random program of [min_calls..max_calls] generated calls (default
    3..7); producer calls inserted for resource wiring may push the total
    slightly above [max_calls]. The result always passes
    {!Prog.validate}. *)

val wire_resources : Sp_util.Rng.t -> Spec.db -> Prog.t -> Prog.t
(** Resolve bogus resource arguments: reuse an earlier producer when one
    exists (90%), insert a fresh producer call otherwise; leaves ~10% bogus
    on purpose. Idempotent on fully wired programs. *)

val corpus :
  Sp_util.Rng.t -> Spec.db -> size:int -> Prog.t list
(** [size] distinct (by {!Prog.fingerprint}) random programs. *)
