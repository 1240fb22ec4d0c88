(** System-call specifications and the specification database.

    A spec is one Syzlang "variant" (e.g. [sendmsg$inet]): a name, typed
    arguments, and optionally the kind of kernel resource its return value
    produces. The database assigns dense ids used across the kernel model,
    the mutation engine, and PMM's vocabulary. *)

type t = {
  name : string;
  sys_id : int;  (** dense id within the database that created it *)
  args : Ty.field list;
  ret : string option;  (** resource kind produced by the return value *)
}

type db

val make_db : (string * Ty.field list * string option) list -> db
(** Builds the database; ids are assigned in list order. Raises
    [Invalid_argument] on duplicate names. *)

val find : db -> string -> t option

val find_exn : db -> string -> t

val by_id : db -> int -> t

val count : db -> int

val all : db -> t list
(** In id order. *)

val producers_of : db -> string -> t list
(** Specs whose return produces the given resource kind. *)

val pp : Format.formatter -> t -> unit
