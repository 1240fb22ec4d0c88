(** Circuit breaker for the inference service's per-tenant lanes.

    Classic three-state machine over the campaign's {e virtual} clock
    (barrier time — never wall clock, so every transition is
    deterministic and replayable):

    - [Closed]: requests flow; [error_threshold] {e consecutive} errors
      (a timed-out or failed request, or a success slower than
      [latency_threshold]) trip the breaker.
    - [Open]: requests are shed without touching the service; after
      [cooldown] virtual seconds the next {!state} query moves to
      half-open.
    - [Half_open]: the caller sends a single probe; a fast success
      closes the breaker, any error re-trips it (restarting the
      cooldown).

    The state machine itself performs no I/O and holds no references —
    the {!Funnel} owns one breaker per tenant lane and consults it at
    flush time. State round-trips through {!state_json} /
    {!restore_state} so a resumed campaign's breaker continues exactly
    where the uninterrupted one would be. *)

type state = Closed | Open | Half_open

type config = {
  error_threshold : int;  (** consecutive errors that trip Closed -> Open *)
  latency_threshold : float;
      (** a success slower than this (virtual seconds) counts as an error *)
  cooldown : float;  (** virtual seconds Open before probing *)
}

val default_config : config
(** 3 consecutive errors; 10 s latency ceiling; 1200 s cooldown (two
    default snapshot barriers — so a tripped lane skips one whole flush
    and probes on the next). *)

type t

val create : ?config:config -> unit -> t
(** Starts [Closed]. Raises [Invalid_argument] unless
    [error_threshold >= 1], [latency_threshold > 0] and [cooldown > 0]. *)

val config : t -> config

val state : t -> now:float -> state
(** Current state; performs the Open -> Half_open transition once the
    cooldown has elapsed at [now]. *)

val peek : t -> now:float -> state
(** Like {!state} but pure: reports the state [now] implies without
    committing the Open -> Half_open transition. This is what
    observability reads (telemetry gauges) must use — a scrape-driven
    read may run at virtual times the unclocked path never visits, and
    committing the transition there would perturb the serialized
    breaker state an unobserved run would have written. *)

val state_name : state -> string
(** ["closed"] / ["open"] / ["half-open"]. *)

val state_code : state -> int
(** [0] closed, [1] open, [2] half-open: the one numeric encoding, used
    by {!state_json}, the [breaker.state] trace counter and the
    [snowplow_breaker_state] gauge. *)

val record_error : t -> now:float -> unit
(** A request failed or timed out. *)

val record_success : t -> now:float -> latency:float -> unit
(** A request completed after [latency] virtual seconds. A slow success
    (over [latency_threshold]) is counted as an error instead. *)

val note_probe : t -> unit
(** The caller sent a half-open probe (bookkeeping only). *)

val consecutive_errors : t -> int

val trips : t -> int
(** Times the breaker entered [Open]. *)

val probes : t -> int

val is_default : t -> bool
(** [true] iff the breaker has never seen an error, trip or probe —
    i.e. persisting it would write only defaults. The funnel uses this
    to keep snapshots of never-degraded lanes byte-identical to
    pre-breaker snapshots. *)

val state_json : t -> Sp_obs.Json.t
(** Mutable state only — the config is supplied by the runtime at
    {!create} time and is not persisted. *)

val restore_state : t -> Sp_obs.Json.t -> unit
(** Raises [Sp_obs.Json.Decode.Error] on a malformed document. *)
