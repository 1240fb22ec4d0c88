(** Test programs: sequences of system-call invocations with typed argument
    values, plus the argument-path machinery every other component builds on.

    A {e path} names one argument node at any nesting depth — the unit of
    mutation localization in the paper. [{ call = 1; arg = [2; 0; 1] }] is
    "call 1, third top-level argument, then under the pointer, then the
    second struct field". Paths are what PMM predicts (MUTATE / NOT-MUTATE
    per argument node) and what instantiators rewrite. *)

type call = { spec : Spec.t; args : Value.t list }

type t = call array

type path = { call : int; arg : int list }

val path_compare : path -> path -> int

val path_to_string : path -> string

(** {1 Construction} *)

val make_call : Sp_util.Rng.t -> Spec.t -> call
(** A call with default argument values and lengths fixed up. *)

val validate : t -> (unit, string) result
(** Checks that every value conforms to its type, resource arguments refer to
    earlier calls producing the right kind (or are bogus), and [Len] fields
    match their sibling's length. *)

(** {1 Argument nodes} *)

val arg_nodes : t -> (path * Ty.t) list
(** Every argument node of every call, in program order, paired with its
    type. This is the localization search space; the paper measures >60 of
    these per test on average (§5.1). *)

val mutable_nodes : t -> (path * Ty.t) list
(** [arg_nodes] minus nodes that no instantiator can change: constants,
    auto-computed lengths, and interior struct/pointer spines. *)

val num_args : t -> int
(** [List.length (arg_nodes t)]. *)

val ty_at : t -> path -> Ty.t

val get : t -> path -> Value.t

val set : t -> path -> Value.t -> t
(** Functional update; re-fixes [Len] fields on the affected call. Raises
    [Invalid_argument] on a dangling path. *)

val fix_lens : call -> call
(** Recompute every [Len] field from its sibling argument's current length. *)

(** {1 Program-level edits (used by call-level mutations)} *)

val insert_call : t -> int -> call -> t
(** [insert_call t pos c] inserts before position [pos], shifting resource
    references in later calls. *)

val remove_call : t -> int -> t
(** Removes the call; resource references to it become bogus, later
    references shift down. *)

(** {1 Misc} *)

val hash : t -> int
(** A 63-bit content hash used only as a seed: it seeds the dataset's
    per-base RNGs and orders [Hybrid.pick_targets]'s targets. It is not
    an identity (programs that differ in one string can share it), so no
    set, cache or memo is keyed by it: they key programs by
    {!fingerprint}. *)

type fingerprint = private { mutable fp_hi : int; mutable fp_lo : int }
(** A 126-bit structural fingerprint: two independent 63-bit halves. The
    fields are mutable only so that {!fingerprint} can accumulate into
    its result; the type is private, so callers can only read them. *)

val fingerprint : t -> fingerprint
(** One pass over the program, allocating nothing but the 3-word result.
    It reads exactly what {!equal} compares (call names, argument
    values), so [equal a b] implies equal fingerprints. Distinct programs
    share one with probability about 2{^-126} per pair: among 10{^8}
    programs, the chance of any shared fingerprint is about 6×10{^-23}.
    This is the program's identity: the corpus, each shard's executed
    set, the inference caches, the prediction memos and the funnel's
    inboxes and attempt ledger are all keyed by it, and [Gen.corpus] and
    the dataset's mutant set decide distinctness by it. *)

val fingerprint_to_hex : fingerprint -> string
(** The fixed-width text form snapshots store ({!Sp_util.Fpset.to_hex}
    of the two halves). *)

val fingerprint_of_hex : string -> fingerprint option
(** Inverse of {!fingerprint_to_hex}; [None] on any other text. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Syz-like text, one call per line, [rN = name(...)] for producers. *)
