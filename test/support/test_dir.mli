(** Scratch directories under fixed relative names.

    A test that writes under a fixed name must not see what an earlier
    run left there (say, snapshots it would resume from), so it starts
    from {!fresh}. *)

val fresh : string -> string
(** [fresh name] removes [name] and everything under it (symbolic links
    are removed, never followed), creates it again empty and returns
    [name]. *)
