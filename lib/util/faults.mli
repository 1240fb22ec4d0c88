(** Deterministic fault injection: a seeded, named-site fault plan.

    A fault plan decides, per (site, occurrence), whether an armed
    injection point fires. Sites are short stable strings
    (["alpha/shard.epoch"], ["funnel.flush@0"], ...); the occurrence
    index [k] is a deterministic per-site ordinal maintained by the
    caller (barrier number, send count, ...). A decision is
    a pure function of the plan and (site, k):

    - if the plan's explicit {e schedule} lists [k] for the site, the
      fault fires;
    - otherwise a throwaway RNG split off the plan seed by
      ["site#k"] is compared against the site's rate (its entry in
      {e rates}, or the plan's default rate).

    Because {!Sp_util.Rng.split_named} derives without advancing the
    parent, decisions are order-independent: the same (seed, site, k)
    always fires or always doesn't, no matter how many other sites were
    consulted in between. That is what makes injected-failure runs
    replay byte-identically.

    Per-site hit counts are kept under a mutex so sites may be
    consulted from any domain; everything else is immutable after
    {!create}. *)

exception Injected of string
(** Raised by {!fire} (and by armed injection points) with the site
    name. Registered with a printer so captured failure records read
    [Fault injected at <site>]. *)

type t

val disabled : t
(** The inert plan: {!should_fail} is always [false], {!enabled} is
    [false]. Armed code paths treat it as "no fault injection" and
    must add zero behavior — a run with [disabled] is byte-identical
    to a run built before the injection point existed. *)

val create :
  ?default_rate:float ->
  ?rates:(string * float) list ->
  ?schedule:(string * int list) list ->
  seed:int ->
  unit ->
  t
(** [default_rate] (default [0.0]) and every rate must be in [0, 1];
    raises [Invalid_argument] otherwise. [schedule] maps a site to the
    exact occurrence indices that must fire regardless of rates. *)

val of_json : Sp_obs.Json.t -> (t, string) result
(** Load a plan from its JSON form:
    {[ { "seed": 42,
         "default_rate": 0.0,
         "rates": { "inference.request@0": 0.05 },
         "schedule": { "beta/shard.epoch": [0, 2] } } ]}
    Every field except ["seed"] is optional. *)

val enabled : t -> bool
(** [false] only for {!disabled}. Armed code uses this to skip even the
    ordinal bookkeeping when no plan is loaded. *)

val should_fail : t -> string -> k:int -> bool
(** Consult the plan for occurrence [k] of the site. Records the
    consultation (and the hit, if any) in {!site_stats}. *)

val set_observer : t -> (string -> k:int -> unit) -> unit
(** Install a callback invoked (outside the plan's lock, possibly from
    a worker domain) for every fault that fires — the hook the serve
    path uses to turn injections into structured events. A no-op on
    {!disabled}. *)

val fire : t -> string -> k:int -> unit
(** [fire t site ~k] raises [Injected site] iff
    [should_fail t site ~k]. *)

val injected : t -> int
(** Total faults injected through this plan so far. *)

val site_stats : t -> (string * (int * int)) list
(** Per-site [(consulted, injected)] counts, sorted by site name. *)
