(** Synthetic system-call interface generation.

    Produces the Syzlang-style specification database the rest of the system
    runs against: a catalog of realistic syscall variants (producers like
    [open]/[socket$inet], consumers like [read]/[ioctl$scsi]/[sendmsg$inet])
    whose argument shapes — named flag sets, enums, nested pointer/struct
    arguments, buffer+length pairs — are generated deterministically from a
    seed. All kernel "versions" share one interface, mirroring the stability
    of the Linux syscall ABI across 6.8–6.10. *)

val generate : Sp_util.Rng.t -> num_syscalls:int -> Sp_syzlang.Spec.db
(** At most the catalog size (currently 48) syscalls; the first entries
    always include [open] and [read] so examples match the paper's
    Figure 3. Every resource kind consumed by a generated consumer has at
    least one generated producer. *)

val catalog_size : int
