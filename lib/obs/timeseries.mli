(** Fixed-interval campaign time-series with JSONL/CSV export.

    A sampler driven by the campaign's {e virtual} clock: the campaign
    appends one row per snapshot-grid point (and, in parallel runs, only
    at barriers, from the already shard-merged global state), so a series
    contains no wall-clock and no scheduling — two runs with the same
    [(seed, jobs)] produce bit-for-bit identical {!to_jsonl} output.
    That determinism contract is pinned by [test_parallel].

    Rows are [(time, (name, value) list)]; the column set is the union of
    names in first-seen order. {!to_jsonl} writes one JSON object per row
    with the fields in sample order (and round-trips through
    {!of_jsonl} byte-exactly); {!to_csv} writes a rectangular table with
    empty cells for absent columns. *)

type t

val create : unit -> t

val sample : t -> time:float -> (string * float) list -> unit
(** Append one row. [time] is virtual seconds since campaign start;
    callers must sample in non-decreasing time order. *)

val length : t -> int

val columns : t -> string list
(** Without the implicit time column; first-seen order. *)

val missing : t -> string list -> string list
(** The given column names the series lacks, in order — what
    [snowplow stats --expect-series] fails on. *)

val rows : t -> (float * (string * float) list) list
(** Chronological. *)

val column : t -> string -> (float * float) list
(** [(time, value)] for every row that carries the column. *)

val last : t -> string -> float option

val to_jsonl : t -> string
(** One compact JSON object per row, e.g.
    [{"t":1200,"blocks":411,"edges":903}]. *)

val to_csv : t -> string
(** Header [t,<col>,...] then one row per sample; absent values are
    empty cells. *)

val write_file : t -> string -> unit
(** {!to_csv} when the path ends in [.csv], else {!to_jsonl}, written
    atomically. *)

val of_jsonl : string -> (t, string) result
(** Parse {!to_jsonl} output (tolerates a trailing newline). Every line
    must be an object with a numeric ["t"] field; other numeric fields
    become columns in object order. *)
