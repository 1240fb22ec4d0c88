(* Tests for the parallel execution layer: the Sp_util.Pool worker pool,
   the deterministic sharded campaign executor,
   and the barrier-batched inference funnel. The determinism properties
   here are the contract the whole design hangs on: identical (seed,
   jobs) must give identical reports, regardless of domain scheduling. *)

module Rng = Sp_util.Rng
module Pool = Sp_util.Pool
module Metrics = Sp_util.Metrics
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Vm = Sp_fuzz.Vm
module Strategy = Sp_fuzz.Strategy
module Campaign = Sp_fuzz.Campaign
module Triage = Sp_fuzz.Triage

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_tasks () =
  Pool.with_pool ~workers:3 (fun pool ->
      let results =
        Pool.run_all pool (List.init 20 (fun i () -> i * i))
      in
      let values = List.map (function Ok v -> v | Error e -> raise e) results in
      check (Alcotest.list Alcotest.int) "results in submission order"
        (List.init 20 (fun i -> i * i))
        values;
      Alcotest.(check bool) "tasks counted" true
        (Metrics.counter (Pool.metrics pool) "pool.tasks" >= 20))

exception Boom of int

let test_pool_survives_raising_task () =
  Pool.with_pool ~workers:2 (fun pool ->
      let results =
        Pool.run_all pool
          (List.init 10 (fun i () -> if i = 3 then raise (Boom i) else i))
      in
      (* the failing task reports its exception... *)
      (match List.nth results 3 with
      | Error (Boom 3) -> ()
      | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "task 3 should have failed");
      (* ...and every other task still ran to completion. *)
      List.iteri
        (fun i r ->
          if i <> 3 then
            match r with
            | Ok v -> check Alcotest.int "succeeded" i v
            | Error e -> Alcotest.failf "task %d died: %s" i (Printexc.to_string e))
        results;
      (* the pool is still usable afterwards *)
      match Pool.run_all pool [ (fun () -> 41 + 1) ] with
      | [ Ok 42 ] -> ()
      | _ -> Alcotest.fail "pool unusable after a task raised")

let test_pool_submit_after_shutdown () =
  let pool = Pool.create ~workers:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit refused"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

let test_pool_concurrent_shutdown () =
  (* Two domains racing shutdown on one pool: the second caller must
     block until the drain completes and then return — not deadlock, not
     double-join the worker domains. *)
  for _ = 1 to 20 do
    let pool = Pool.create ~workers:2 () in
    let handles = List.init 8 (fun i -> Pool.submit pool (fun () -> i)) in
    let other = Domain.spawn (fun () -> Pool.shutdown pool) in
    Pool.shutdown pool;
    Domain.join other;
    (* Tasks submitted before shutdown were drained, not dropped. *)
    List.iteri
      (fun i h ->
        match Pool.await h with
        | Ok v -> check Alcotest.int "drained task" i v
        | Error e -> Alcotest.failf "task %d died: %s" i (Printexc.to_string e))
      handles;
    Alcotest.check_raises "submit refused after racing shutdowns"
      (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
        ignore (Pool.submit pool (fun () -> ())))
  done

let test_pool_shutdown_races_submitters () =
  (* Submitter domains hammer the pool while the main domain shuts it
     down: every submit either lands (and its handle resolves) or raises
     the documented Invalid_argument — never a hang, never a third
     outcome. *)
  for _ = 1 to 10 do
    let pool = Pool.create ~workers:2 () in
    let submitter =
      Domain.spawn (fun () ->
          let landed = ref 0 in
          (try
             for i = 0 to 199 do
               let h = Pool.submit pool (fun () -> i) in
               match Pool.await h with
               | Ok v when v = i -> incr landed
               | Ok v -> Alcotest.failf "task %d returned %d" i v
               | Error e -> raise e
             done
           with Invalid_argument msg ->
             check Alcotest.string "documented refusal"
               "Pool.submit: pool is shut down" msg);
          !landed)
    in
    Pool.shutdown pool;
    let landed = Domain.join submitter in
    Alcotest.(check bool) "submitter observed a clean cutoff" true
      (landed >= 0 && landed <= 200)
  done

let test_pool_many_rounds () =
  (* Several barrier rounds through one pool: per-worker queues must not
     leak state between rounds. *)
  Pool.with_pool ~workers:4 (fun pool ->
      for round = 1 to 5 do
        let results = Pool.run_all pool (List.init 8 (fun i () -> round * i)) in
        List.iteri
          (fun i r -> check Alcotest.int "value" (round * i)
              (match r with Ok v -> v | Error e -> raise e))
          results
      done)

(* ------------------------------------------------------------------ *)
(* Parallel campaign                                                    *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Build.default_config with num_syscalls = 16; handler_budget = 120; max_depth = 8 }

let kernel = Kernel.generate small_config

let db = Kernel.spec_db kernel

let seeds = Gen.corpus (Rng.create 42) db ~size:30

let short_cfg =
  { Campaign.default_config with
    seed_corpus = seeds; seed = 7; duration = 900.0; snapshot_every = 300.0 }

let run_par ?(cfg = short_cfg) ?on_barrier jobs =
  Campaign.run
    (Campaign.create_instance ?on_barrier ~jobs
       ~vm_for:(fun s -> Vm.create ~seed:(100 + s) kernel)
       ~strategy_for:(fun _ -> Strategy.syzkaller db)
       cfg)

let snapshot_tuple (s : Campaign.snapshot) =
  (s.Campaign.s_time, s.Campaign.s_blocks, s.Campaign.s_edges,
   s.Campaign.s_crashes, s.Campaign.s_execs)

(* Everything deterministic in a report (the metrics registry also carries
   wall-clock pool timings, so it is deliberately excluded). *)
let report_fingerprint (r : Campaign.report) =
  ( List.map snapshot_tuple r.Campaign.series,
    (r.Campaign.final_blocks, r.Campaign.final_edges, r.Campaign.executions,
     r.Campaign.corpus_size, r.Campaign.target_hit_at),
    List.map (fun (f : Triage.found) -> (f.Triage.description, f.Triage.found_at))
      r.Campaign.crashes,
    r.Campaign.origin_stats )

let test_parallel_reproducible () =
  let a = run_par 3 and b = run_par 3 in
  Alcotest.(check bool) "identical reports for identical (seed, jobs)" true
    (report_fingerprint a = report_fingerprint b);
  Alcotest.(check bool) "did real work" true (a.Campaign.executions > 0);
  Alcotest.(check bool) "found coverage" true (a.Campaign.final_edges > 0)

let test_parallel_jobs_change_results_deterministically () =
  (* Different shard counts give different (but each reproducible)
     schedules; and more workers must not lose the ability to fuzz. *)
  let two = run_par 2 and four = run_par 4 in
  Alcotest.(check bool) "4 shards executed at least as much" true
    (four.Campaign.executions > two.Campaign.executions / 2);
  Alcotest.(check bool) "coverage found at both widths" true
    (two.Campaign.final_edges > 0 && four.Campaign.final_edges > 0);
  let four' = run_par 4 in
  Alcotest.(check bool) "jobs=4 reproducible too" true
    (report_fingerprint four = report_fingerprint four')

(* jobs = 1 is the one-shard instance, so it has the same barrier
   structure as any other width: the hook fires once per barrier. *)
let test_parallel_series_shape () =
  List.iter
    (fun jobs ->
      let barriers = ref 0 in
      let r = run_par ~on_barrier:(fun ~now:_ -> incr barriers) jobs in
      let label what = Printf.sprintf "jobs=%d: %s" jobs what in
      let times = List.map (fun (s : Campaign.snapshot) -> s.Campaign.s_time) r.Campaign.series in
      check (Alcotest.list (Alcotest.float 1e-6)) (label "full snapshot grid")
        [ 300.0; 600.0; 900.0 ] times;
      check Alcotest.int (label "on_barrier fires once per barrier") 3 !barriers;
      (* executions accumulate monotonically across barriers *)
      let execs = List.map (fun (s : Campaign.snapshot) -> s.Campaign.s_execs) r.Campaign.series in
      Alcotest.(check bool) (label "monotone executions") true
        (List.sort compare execs = execs);
      Alcotest.(check bool) (label "pool metrics merged into the report") true
        (Metrics.counter r.Campaign.metrics "pool.tasks" > 0))
    [ 1; 3 ]

let test_parallel_validation () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Campaign.create_instance: jobs must be >= 1") (fun () ->
      ignore (run_par 0))

let test_parallel_telemetry_deterministic () =
  (* The timeseries is inside the determinism contract (sampled from
     merged state on the snapshot grid): two runs at the same (seed, jobs)
     must serialize to the same bytes. Traces carry wall clock and are
     only required to be structurally valid. *)
  let run () =
    let trace = Sp_obs.Trace.create ~enabled:true () in
    let ts = Sp_obs.Timeseries.create () in
    let r =
      Campaign.run
        (Campaign.create_instance ~jobs:3 ~trace ~timeseries:ts
           ~vm_for:(fun s -> Vm.create ~seed:(100 + s) kernel)
           ~strategy_for:(fun _ -> Strategy.syzkaller db)
           short_cfg)
    in
    (r, trace, Sp_obs.Timeseries.to_jsonl ts)
  in
  let r1, trace, jsonl1 = run () in
  let r2, _, jsonl2 = run () in
  Alcotest.(check bool) "telemetry does not perturb the campaign" true
    (report_fingerprint r1 = report_fingerprint r2);
  Alcotest.(check string) "timeseries bit-for-bit reproducible" jsonl1 jsonl2;
  (match Sp_obs.Timeseries.of_jsonl jsonl1 with
  | Ok ts ->
    check (Alcotest.list Alcotest.string) "expected columns"
      [ "blocks"; "edges"; "execs"; "execs_per_s"; "corpus"; "crashes" ]
      (Sp_obs.Timeseries.columns ts);
    Alcotest.(check int) "one row per snapshot" 3 (Sp_obs.Timeseries.length ts)
  | Error e -> Alcotest.fail e);
  match Sp_obs.Trace_check.validate (Sp_obs.Trace.export trace) with
  | Error e -> Alcotest.failf "trace fails validation: %s" e
  | Ok s ->
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " span present") true
          (Sp_obs.Trace_check.has_span s name))
      [ "shard.epoch"; "campaign.barrier"; "campaign.merge"; "pool.task" ];
    Alcotest.(check bool) "edges counter present" true
      (Sp_obs.Trace_check.has_counter s "edges")

(* ------------------------------------------------------------------ *)
(* Funnel                                                               *)
(* ------------------------------------------------------------------ *)

(* A real (untrained) PMM behind the real service: creation is cheap, and
   prediction content is irrelevant here — the funnel contract under test
   is deferral, shard-ordered batched forwarding, and broadcast. *)
let inference () =
  let encoder =
    Snowplow.Encoder.pretrain
      ~config:{ Snowplow.Encoder.default_config with steps = 40 }
      kernel
  in
  let model =
    Snowplow.Pmm.create
      ~encoder_dim:(Snowplow.Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  Snowplow.Inference.create ~kernel
    ~block_embs:(Snowplow.Encoder.embed_kernel encoder kernel)
    model

let test_funnel_defers_and_broadcasts () =
  let service = inference () in
  let funnel = Snowplow.Funnel.create_multi ~tenant_shards:[| 2 |] service in
  let ep0 = Snowplow.Funnel.endpoint_for funnel ~tenant:0 ~shard:0 in
  let ep1 = Snowplow.Funnel.endpoint_for funnel ~tenant:0 ~shard:1 in
  let prog s = Gen.program (Rng.create s) db () in
  Alcotest.(check bool) "shard 0 request accepted" true
    (ep0.Snowplow.Inference.ep_request ~now:0.0 (prog 1) ~targets:[ 0 ]);
  Alcotest.(check bool) "shard 1 request accepted" true
    (ep1.Snowplow.Inference.ep_request ~now:0.0 (prog 2) ~targets:[ 0 ]);
  (* Nothing reaches the service until the barrier flush. *)
  check Alcotest.int "service idle before flush" 0
    (Snowplow.Inference.served service + Snowplow.Inference.pending service);
  check Alcotest.int "nothing delivered mid-epoch" 0
    (List.length (ep0.Snowplow.Inference.ep_poll ~now:0.0));
  check Alcotest.int "deferred counted" 2
    (Snowplow.Funnel.requests_deferred funnel);
  (* Barrier 1: forward both; they complete after the service latency. *)
  ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:100.0);
  check Alcotest.int "batch admitted" 2 (Snowplow.Inference.pending service);
  let delivered = Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:200.0 in
  check Alcotest.int "both predictions completed" 2 delivered;
  let inbox0 = ep0.Snowplow.Inference.ep_poll ~now:200.0 in
  let inbox1 = ep1.Snowplow.Inference.ep_poll ~now:200.0 in
  check Alcotest.int "broadcast to shard 0" 2 (List.length inbox0);
  check Alcotest.int "broadcast to shard 1" 2 (List.length inbox1);
  Alcotest.(check bool) "same predictions, same order" true
    (List.map fst inbox0 = List.map fst inbox1);
  check Alcotest.int "inbox drained by poll" 0
    (List.length (ep0.Snowplow.Inference.ep_poll ~now:200.0));
  check Alcotest.int "one batch recorded" 1
    (Metrics.counter (Snowplow.Inference.metrics service) "inference.batches")

let test_funnel_tenant_lanes () =
  (* Two tenants over one service: a tenant's flush must deliver only
     its own completions — the other tenant's stay queued for its own
     barrier, so neither's prediction stream depends on the schedule. *)
  let service = inference () in
  let funnel =
    Snowplow.Funnel.create_multi ~tenant_shards:[| 2; 1 |] service
  in
  let ep00 = Snowplow.Funnel.endpoint_for funnel ~tenant:0 ~shard:0 in
  let ep10 = Snowplow.Funnel.endpoint_for funnel ~tenant:1 ~shard:0 in
  let prog s = Gen.program (Rng.create s) db () in
  Alcotest.(check bool) "tenant 0 request accepted" true
    (ep00.Snowplow.Inference.ep_request ~now:0.0 (prog 1) ~targets:[ 0 ]);
  Alcotest.(check bool) "tenant 1 request accepted" true
    (ep10.Snowplow.Inference.ep_request ~now:0.0 (prog 2) ~targets:[ 0 ]);
  check Alcotest.int "per-tenant deferral counted" 1
    (Snowplow.Funnel.tenant_deferred funnel ~tenant:0);
  (* Forward both tenants' batches, then let both complete. *)
  ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:100.0);
  ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:1 ~now:100.0);
  check Alcotest.int "tenant 0 receives only its prediction" 1
    (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:200.0);
  check Alcotest.int "tenant 0's inbox has only its prediction" 1
    (List.length (ep00.Snowplow.Inference.ep_poll ~now:200.0));
  (* Tenant 1's completion was not stolen by tenant 0's poll. *)
  check Alcotest.int "tenant 1's prediction still delivered" 1
    (Snowplow.Funnel.flush_tenant funnel ~tenant:1 ~now:200.0);
  let inbox1 = ep10.Snowplow.Inference.ep_poll ~now:200.0 in
  check Alcotest.int "tenant 1's inbox" 1 (List.length inbox1);
  Alcotest.(check bool) "tenant 1 got its own program back" true
    (List.map fst inbox1 = [ Prog.fingerprint (prog 2) ]);
  (* Per-tag service accounting sums to the service-wide counters. *)
  let r0, s0, _, _ = Snowplow.Inference.tenant_stats service ~tag:0 in
  let r1, s1, _, _ = Snowplow.Inference.tenant_stats service ~tag:1 in
  check Alcotest.int "tagged requests sum" 2 (r0 + r1);
  check Alcotest.int "tagged served sum"
    (Snowplow.Inference.served service)
    (s0 + s1)

let test_funnel_outbox_bound () =
  let service = inference () in
  let funnel =
    Snowplow.Funnel.create_multi ~max_outbox:2 ~tenant_shards:[| 1 |] service
  in
  let ep = Snowplow.Funnel.endpoint_for funnel ~tenant:0 ~shard:0 in
  let prog s = Gen.program (Rng.create s) db () in
  Alcotest.(check bool) "1st accepted" true
    (ep.Snowplow.Inference.ep_request ~now:0.0 (prog 1) ~targets:[ 0 ]);
  Alcotest.(check bool) "2nd accepted" true
    (ep.Snowplow.Inference.ep_request ~now:0.0 (prog 2) ~targets:[ 0 ]);
  Alcotest.(check bool) "3rd refused (outbox full)" false
    (ep.Snowplow.Inference.ep_request ~now:0.0 (prog 3) ~targets:[ 0 ]);
  check Alcotest.int "drop counted" 1 (Snowplow.Funnel.dropped funnel)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sp_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "runs tasks, ordered results" `Quick test_pool_runs_tasks;
          Alcotest.test_case "survives a raising task" `Quick
            test_pool_survives_raising_task;
          Alcotest.test_case "submit after shutdown" `Quick
            test_pool_submit_after_shutdown;
          Alcotest.test_case "concurrent double shutdown" `Quick
            test_pool_concurrent_shutdown;
          Alcotest.test_case "shutdown races submitters" `Quick
            test_pool_shutdown_races_submitters;
          Alcotest.test_case "many barrier rounds" `Quick test_pool_many_rounds;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "same (seed, jobs) => identical report" `Quick
            test_parallel_reproducible;
          Alcotest.test_case "width scaling stays deterministic" `Quick
            test_parallel_jobs_change_results_deterministically;
          Alcotest.test_case "series shape and pool metrics" `Quick
            test_parallel_series_shape;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          Alcotest.test_case "telemetry determinism" `Quick
            test_parallel_telemetry_deterministic;
        ] );
      ( "funnel",
        [
          Alcotest.test_case "defers, batches, broadcasts" `Quick
            test_funnel_defers_and_broadcasts;
          Alcotest.test_case "tenant lanes stay isolated" `Quick
            test_funnel_tenant_lanes;
          Alcotest.test_case "outbox bound" `Quick test_funnel_outbox_bound;
        ] );
    ]
