(** Campaign snapshot files: the corpus codec and on-disk layout.

    A snapshot is one JSON document capturing the merged campaign state at
    a barrier of the sharded executor (see DESIGN.md): campaign-level
    counters and series, the global corpus/accumulator/triage, and each
    shard's private stream state. [Campaign] assembles and consumes the
    document; this module owns the pieces that are not private to
    [Campaign] — the corpus entry codec and the snapshot directory
    layout ([snapshot-NNNNNN.json] per barrier, written atomically so a
    kill mid-write never leaves a torn file; the previous snapshot
    survives). *)

val format_version : int
(** The version this build writes: 4. *)

val readable_versions : int list
(** The versions this build restores: 2, 3 and 4. Version 3 differs from
    4 only in the layout of [aux], which kept a program text beside each
    cache, memo, inbox and attempt entry; version 2 also stored each
    shard's executed set as program text. A restore converts both by
    fingerprinting each parsed program ([Snowplow.Persist] converts
    [aux]). *)

val entry_to_json : Corpus.entry -> Sp_obs.Json.t

val entry_of_json :
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  Sp_obs.Json.t ->
  Corpus.entry
(** Raises [Sp_obs.Json.Decode.Error] on malformed input. *)

val corpus_to_json : Corpus.t -> Sp_obs.Json.t
(** Entries in insertion order (oldest first), so re-adding them in list
    order reproduces the corpus — dedup index and directed distance tiers
    included. *)

val corpus_entries_of_json :
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  Sp_obs.Json.t ->
  Corpus.entry list
(** Insertion order. Raises [Sp_obs.Json.Decode.Error] on malformed
    input. *)

val path : dir:string -> barrier:int -> string
(** [snapshot-NNNNNN.json] under [dir]. *)

val write :
  ?inject:(unit -> unit) -> dir:string -> barrier:int -> Sp_obs.Json.t -> string
(** Atomically write a barrier snapshot (creating [dir] if needed);
    returns the path written. [inject] is {!Sp_obs.Io.write_atomic}'s
    fault hook: raising from it models a crash after the new file is
    written and fsynced but before its rename (previous snapshot
    survives, no torn file, no temporary left behind). *)

val failure_path : dir:string -> barrier:int -> generation:int -> string
(** [failure-NNNNNN-gG.json] under [dir] — the quarantine forensic
    record the scheduler writes when a tenant's slice raises. The name
    deliberately does not match the snapshot shape, so {!latest} /
    {!latest_valid} never pick one up. *)

val write_failure :
  dir:string -> barrier:int -> generation:int -> Sp_obs.Json.t -> string
(** Atomically write a failure record (creating [dir] if needed);
    returns the path written. *)

val read : string -> (Sp_obs.Json.t, string) result
(** Read and parse a snapshot file. *)

val latest : dir:string -> (int * string) option
(** Highest barrier snapshot in [dir] as [(barrier, path)], matching
    only the [snapshot-NNNNNN.json] name shape; [None] when the
    directory is missing, unreadable or holds no snapshots. *)

val latest_valid :
  ?events:Sp_obs.Events.t ->
  dir:string ->
  unit ->
  (int * string * Sp_obs.Json.t) option
(** Like {!latest}, but skips backwards past snapshots that fail to read
    or parse, returning the newest one that yields a JSON document —
    what resume paths use so one corrupt or truncated file cannot strand
    a campaign. Each skip is reported as a Warn [snapshot.corrupt] event
    when [events] is wired, or a stderr warning otherwise. [None] when
    no snapshot parses. Structural validity (config echo, version) is
    still the caller's job, via [Campaign.validate_snapshot]. *)
