(** Lightweight counter/timer registry for hot-path observability.

    The fuzz loop, the VM cost model, and the inference service all record
    into a registry: named monotonic counters ("how many"), and histograms
    of observations ("how long / how much"), used for both wall-clock
    timings and virtual-clock durations. Histograms store constant space
    per metric (streaming moments + a bounded deterministic reservoir for
    percentiles), so recording is safe on paths hit millions of times per
    campaign. Not thread-safe; one registry per component. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit

val counter : t -> string -> int
(** 0 for a name never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

(** {1 Histograms / timers} *)

val observe : t -> string -> float -> unit
(** Record one observation (a duration, a batch size, ...). *)

val time_wall : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk and [observe] its wall-clock time ([Unix.gettimeofday])
    in seconds under the given name, whether it returns or raises.

    Wall time, not process CPU time ([Sys.time]): under a multi-domain
    run every domain reads the same accumulating CPU clock, so a timer on
    it is inflated by whatever the other domains were doing concurrently.
    By convention metric names state which clock they carry: [*_wall_s] /
    [*_ns] for wall-clock and [*_virtual_s] for the campaign's virtual
    clock. *)

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;  (** percentiles are estimated from a 1024-sample reservoir *)
  p90 : float;
  p99 : float;
}

val summary : t -> string -> summary option
(** [None] for a name with no observations. *)

val summaries : t -> (string * summary) list
(** Sorted by name. *)

(** {1 Registry-level operations} *)

val merge_into : dst:t -> t -> unit
(** Fold another registry's counters and histograms into [dst] — used
    to combine per-component registries into one report. Counts, sums,
    minima and maxima add exactly. A histogram whose reservoir still
    holds all its observations is replayed in order, exactly as if [dst]
    had observed them; a larger one offers only its reservoir to [dst]'s,
    so only the merged percentiles are sampled. *)

val render : t -> string
(** Human-readable dump, stable ordering. *)

val reset : t -> unit
