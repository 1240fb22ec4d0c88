module Tracer = Sp_obs.Tracer

type task = unit -> unit

(* Shutdown is a one-way walk Live -> Draining -> Down. Exactly one
   caller performs the Draining work (broadcast + join); every other
   concurrent [shutdown] blocks on [idle] until the pool is Down, so no
   caller ever returns while worker domains are still running. *)
type lifecycle = Live | Draining | Down

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled on submit and on shutdown *)
  idle : Condition.t;  (* signalled when the pool reaches Down *)
  queue : task Queue.t;  (* guarded by [lock] *)
  tracers : Tracer.t array;  (* one per worker; written only by its owner *)
  mutable state : lifecycle;
  mutable domains : unit Domain.t array;
  metrics : Metrics.t;
}

type 'a handle = {
  h_lock : Mutex.t;
  h_done : Condition.t;
  mutable result : ('a, exn * Printexc.raw_backtrace) result option;
}

let now_ns () = Unix.gettimeofday () *. 1e9

(* All [t.metrics] updates happen with [t.lock] held: the registry is not
   thread-safe. *)

let rec next_task t =
  if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
  else if t.state <> Live then None
  else begin
    let parked = now_ns () in
    Condition.wait t.work t.lock;
    Metrics.observe t.metrics "pool.idle_ns" (now_ns () -. parked);
    next_task t
  end

let worker t i () =
  let rec loop () =
    Mutex.lock t.lock;
    match next_task t with
    | None -> Mutex.unlock t.lock
    | Some task ->
      Metrics.incr t.metrics "pool.tasks";
      Mutex.unlock t.lock;
      Tracer.span t.tracers.(i) "pool.task" task;
      loop ()
  in
  loop ()

let create ?metrics ?tracer_for ~workers () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let tracers =
    (* Handed out before the domains spawn, on the caller's domain; each
       worker then writes only its own tracer. *)
    match tracer_for with
    | Some f -> Array.init workers f
    | None -> Array.make workers Tracer.null
  in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      tracers;
      state = Live;
      domains = [||];
      metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    }
  in
  t.domains <- Array.init workers (fun i -> Domain.spawn (worker t i));
  t

let workers t = Array.length t.tracers

let metrics t = t.metrics

let submit t f =
  let h = { h_lock = Mutex.create (); h_done = Condition.create (); result = None } in
  Mutex.lock t.lock;
  if t.state <> Live then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let task () =
    let r =
      try Ok (f ())
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    Mutex.lock h.h_lock;
    h.result <- Some r;
    Condition.broadcast h.h_done;
    Mutex.unlock h.h_lock
  in
  Queue.push task t.queue;
  Condition.signal t.work;
  Mutex.unlock t.lock;
  h

let await_full h =
  Mutex.lock h.h_lock;
  while h.result = None do
    Condition.wait h.h_done h.h_lock
  done;
  let r = match h.result with Some r -> r | None -> assert false in
  Mutex.unlock h.h_lock;
  r

let await h =
  match await_full h with Ok v -> Ok v | Error (e, _) -> Error e

let run_all t thunks =
  let handles = List.map (submit t) thunks in
  let blocked = now_ns () in
  let results = List.map await handles in
  Mutex.lock t.lock;
  Metrics.observe t.metrics "pool.barrier_wait_ns" (now_ns () -. blocked);
  Mutex.unlock t.lock;
  results

let shutdown t =
  Mutex.lock t.lock;
  match t.state with
  | Live ->
    t.state <- Draining;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* Workers finish already-queued tasks (they only park on [work]
       while Live), then exit; joining outside the lock lets them drain. *)
    Array.iter Domain.join t.domains;
    Mutex.lock t.lock;
    t.state <- Down;
    Condition.broadcast t.idle;
    Mutex.unlock t.lock
  | Draining ->
    while t.state <> Down do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock
  | Down -> Mutex.unlock t.lock

let with_pool ?metrics ?tracer_for ~workers f =
  let t = create ?metrics ?tracer_for ~workers () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
