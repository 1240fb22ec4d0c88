(** Argument types of the Syzlang-like system-call description language.

    Mirrors the parts of Syzlang the paper relies on (§2, Figure 4): plain
    integers, named flag sets, enums, length fields, byte buffers, known
    strings (file names), pointers, nested structs, and kernel resources
    (file-descriptor-like values that flow from a producing call's return
    into later calls' arguments). *)

type flag_spec = {
  flag_name : string;  (** e.g. "open_flags" *)
  flag_values : (string * int) list;  (** name -> bit value; OR-combinable *)
}

type t =
  | Const of int  (** a fixed value the fuzzer never mutates *)
  | Int of { bits : int; lo : int; hi : int }  (** bounded integer *)
  | Flags of flag_spec  (** bitwise OR of named values *)
  | Enum of { enum_name : string; choices : (string * int) list }
      (** exactly one named value *)
  | Len of int  (** length of the sibling argument at the given index *)
  | Buffer of { min_len : int; max_len : int }  (** opaque byte buffer *)
  | Str of string list  (** one of a set of known strings *)
  | Ptr of t  (** pointer, possibly NULL *)
  | Struct of field list  (** nested record, Figure 4 style *)
  | Resource of string  (** consumes a resource of the given kind *)

and field = { fname : string; fty : t }

val kind_token : t -> string
(** Coarse type token used as the PMM embedding vocabulary for argument
    nodes ("the type of the argument", §3.2 — literal constants are
    deliberately not part of the representation). *)

val all_kind_tokens : string list
(** Every possible [kind_token] result, for building embedding tables. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
