(** Structural validation and span aggregation for Chrome traces.

    Used by the [snowplow stats] inspector, the CI telemetry smoke-run
    and the unit tests: {!validate} accepts exactly the well-formedness
    contract {!Tracer.to_json_events} promises — per (pid, tid) lane,
    timestamps are non-decreasing and [B]/[E] events form balanced,
    properly nested, name-matched pairs — and aggregates span durations
    and counter samples while checking it. *)

type span_stat = {
  span : string;
  spans : int;  (** completed B/E pairs *)
  total_us : float;
  max_us : float;
}

type counter_stat = {
  counter : string;
  samples : int;
  last : float;
}

type summary = {
  events : int;  (** excluding metadata ([M]) events *)
  pids : int list;  (** sorted *)
  span_stats : span_stat list;  (** sorted by [total_us], largest first *)
  counter_stats : counter_stat list;  (** sorted by name *)
  instants : (string * int) list;  (** sorted by name *)
  dropped : (int * int) list;
      (** ring-evicted event counts per pid, from [trace_dropped]
          metadata (see {!Tracer.to_json_events}); sorted by pid, pids
          with no drops omitted *)
}

val total_dropped : summary -> int

val validate : Json.t -> (summary, string) result
(** Check a parsed trace file: the top level must carry a [traceEvents]
    array; every event needs [name]/[ph]/[pid]/[tid] (and [ts] unless
    it is metadata); phases must be one of [B E I C M]; and every
    (pid, tid) lane must be monotone and span-balanced. The first
    violation is reported. *)

val has_span : summary -> string -> bool

val has_counter : summary -> string -> bool

val problems : strict:bool -> expect_spans:string list -> summary -> string list
(** What [snowplow stats --check] fails a valid trace for, empty when it
    passes: under [strict], events dropped from any bounded ring (the
    span tables under-count), and every expected span that never
    occurs. *)
