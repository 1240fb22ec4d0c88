(** Fixed-size domain worker pool with one FIFO task queue.

    The parallel campaign executor runs one epoch per shard between
    snapshot barriers; this pool owns the worker domains so they are
    spawned once per campaign, not once per epoch. Tasks join one queue
    in submission order and the next free worker takes the oldest, so
    one slow task never strands queued work behind it. A raising task
    resolves its handle to [Error] — the worker survives and keeps
    draining the queue.

    Observability lands in a {!Metrics} registry (updated only under the
    pool lock, since registries are not thread-safe): a [pool.tasks]
    counter, [pool.idle_ns] (time a worker spent parked waiting for
    work) and [pool.barrier_wait_ns] (time the submitter spent blocked
    in {!run_all}) histograms. With [tracer_for], each worker
    additionally records a [pool.task] span per executed task into its
    own per-worker tracer. *)

type t

val create :
  ?metrics:Metrics.t ->
  ?tracer_for:(int -> Sp_obs.Tracer.t) ->
  workers:int ->
  unit ->
  t
(** Spawn [workers] domains (>= 1). [tracer_for i] is called once per
    worker, on the calling domain, before any worker starts; worker [i]
    then owns (and is the only writer of) that tracer. *)

val workers : t -> int

val metrics : t -> Metrics.t

type 'a handle

val submit : t -> (unit -> 'a) -> 'a handle
(** Enqueue a task. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a handle -> ('a, exn) result
(** Block until the task has run. A task that raised reports its
    exception here instead of killing the worker. *)

val await_full : 'a handle -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!await}, but a failed task also carries the backtrace captured
    at the raise site on the worker domain — re-raise with
    [Printexc.raise_with_backtrace] so failure records point at the real
    failure site, not at the await. *)

val run_all : t -> (unit -> 'a) list -> ('a, exn) result list
(** Submit every thunk, then await them all (a barrier); results are in
    submission order. Records the blocked time as [pool.barrier_wait_ns]. *)

val shutdown : t -> unit
(** Drain every queued task, then join the worker domains. Idempotent
    and safe under concurrency: the first caller performs the drain +
    join; any concurrent caller blocks until the pool is fully down, so
    no [shutdown] ever returns while workers are still running. A
    [submit] racing with shutdown either enqueues (and is drained) or
    raises [Invalid_argument] — it never deadlocks. *)

val with_pool :
  ?metrics:Metrics.t ->
  ?tracer_for:(int -> Sp_obs.Tracer.t) ->
  workers:int ->
  (t -> 'a) ->
  'a
(** [create], run, then [shutdown] (also on exceptions). *)
