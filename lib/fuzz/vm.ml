module Rng = Sp_util.Rng
module Kernel = Sp_kernel.Kernel
module Metrics = Sp_util.Metrics
module Tracer = Sp_obs.Tracer

type t = {
  kernel : Kernel.t;
  scratch : Kernel.scratch;  (* owned: one VM = one shard = one domain *)
  noise : float;
  noise_rng : Rng.t;
  base_cost : float;
  crash_restart_s : float;
  mutable factor : float;
  mutable executions : int;
  mutable metrics : Metrics.t option;
  mutable tracer : Tracer.t;
}

let create ?(noise = 0.0) ?(execs_per_second = 390.0) ?(fleet_scale = 96.0)
    ?(crash_restart_s = 0.7) ~seed kernel =
  {
    kernel;
    scratch = Kernel.create_scratch kernel;
    noise;
    noise_rng = Rng.create (seed lxor 0x5eed);
    base_cost = fleet_scale /. execs_per_second;
    crash_restart_s;
    factor = 1.0;
    executions = 0;
    metrics = None;
    tracer = Tracer.null;
  }

let kernel t = t.kernel

let scratch t = t.scratch

let set_metrics t m = t.metrics <- Some m

let set_tracer t tr = t.tracer <- tr

let record_counter t name =
  match t.metrics with Some m -> Metrics.incr m name | None -> ()

let record_observation t name v =
  match t.metrics with Some m -> Metrics.observe m name v | None -> ()

let execute t prog =
  t.executions <- t.executions + 1;
  if t.noise > 0.0 then Kernel.execute ~noise:(t.noise_rng, t.noise) t.kernel prog
  else Kernel.execute t.kernel prog

let execute_raw t prog =
  t.executions <- t.executions + 1;
  if t.noise > 0.0 then
    Kernel.execute_into ~noise:(t.noise_rng, t.noise) t.kernel t.scratch prog
  else Kernel.execute_into t.kernel t.scratch prog

(* Execution time scales with the number of system calls issued: the
   fleet's 390 tests/s is calibrated for an average-size (5-call) test. *)
let charge t clock ~crashed ~num_calls =
  let calls = float_of_int num_calls in
  let cost = t.base_cost /. t.factor *. (0.5 +. (0.1 *. calls)) in
  let cost =
    if crashed then begin
      record_counter t "vm.crash_restarts";
      (* Rare enough for a trace event: a reboot is exactly the kind of
         spike the inspector should be able to line up with the series. *)
      Tracer.instant t.tracer "vm.crash_restart";
      cost +. t.crash_restart_s
    end
    else cost
  in
  record_counter t "vm.executions";
  record_observation t "vm.exec_virtual_s" cost;
  Clock.advance clock cost

(* Wall clock: one VM per shard means this timer runs on a worker domain,
   where process CPU time would charge every other domain's concurrent
   work to this shard's histogram. *)
let run_raw t clock prog =
  (match t.metrics with
  | Some m -> Metrics.time_wall m "vm.exec_wall_s" (fun () -> execute_raw t prog)
  | None -> execute_raw t prog);
  charge t clock
    ~crashed:(Kernel.scratch_crashed t.scratch)
    ~num_calls:(Array.length prog)

let run_free t prog = execute t prog

let charge_duplicate t clock =
  (* Syzkaller skips executing byte-identical programs it has already run;
     the hash check is ~10% of an execution. *)
  record_counter t "vm.duplicate_skips";
  Clock.advance clock (0.1 *. t.base_cost /. t.factor)

let executions t = t.executions

module Json = Sp_obs.Json

let state_json t =
  Json.Obj
    [ ("executions", Json.Num (float_of_int t.executions));
      ("noise_rng", Json.Decode.int64_to_json (Rng.state t.noise_rng))
    ]

let restore_state t j =
  let open Json.Decode in
  t.executions <- int_field "executions" j;
  Rng.set_state t.noise_rng (int64_field "noise_rng" j)

let set_throughput_factor t f =
  if f <= 0.0 then invalid_arg "Vm.set_throughput_factor: must be positive";
  t.factor <- f
