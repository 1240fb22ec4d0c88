(** Crash-safe, durable file writes.

    Every artifact the reproduction persists — traces, time-series, campaign
    snapshots, bench results — must never be observable half-written: a
    campaign killed mid-snapshot has to leave the previous snapshot intact,
    or resume would load a torn file. All writers therefore go through
    [write_atomic]: the data lands in a temporary file in the destination
    directory (same filesystem, so the final step is a plain [rename]) and is
    moved over the target only once fully written and fsynced; the directory
    is fsynced after the rename, so the new name survives a power loss as
    well as a process kill. Any exception before the rename removes the
    temporary and leaves the target untouched.

    [inject] is a fault-injection hook run after the temporary is written
    and fsynced and before the rename: raising from it exercises exactly
    the crash-before-rename path (temporary removed, target untouched)
    without the caller needing filesystem tricks. [sp_obs] sits below
    [sp_util], so the hook is a plain closure — callers arm it with
    [Sp_util.Faults.fire]. *)

val write_atomic : ?inject:(unit -> unit) -> string -> string -> unit
(** [write_atomic path data] atomically replaces [path] with [data]. *)

val write_atomic_with : ?inject:(unit -> unit) -> string -> (out_channel -> unit) -> unit
(** [write_atomic_with path writer] like [write_atomic], but [writer] streams
    into the temporary file's channel. The channel is closed (and the
    temporary removed on failure) even if [writer] raises. *)

val read_file : string -> string
(** [read_file path] reads the whole file, closing the channel on error. *)
