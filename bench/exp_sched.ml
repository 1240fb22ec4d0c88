(* E12: the multi-tenant campaign scheduler — aggregate throughput of K
   small snowplow campaigns multiplexed over one shared pool and one
   shared inference service, against the same K campaigns run back-to-
   back the way the solo CLI runs them (each bringing up its own
   service).

   The shared-pool win on a small host is amortization: service bring-up
   (encoder pretraining, kernel embedding, service construction) is paid
   once for the whole roster instead of once per campaign, and the pool
   overlaps tenant slices when it has workers to spare. Wall clock is
   honest, so the parallel-overlap half degrades with the cores actually
   available — the amortization half does not, which is what the >= 1.5x
   acceptance bar is sized against.

   Two modes:
   - full (default): K = 6 tenants, 900 virtual seconds each, the 1.5x
     bar, and the committed BENCH_E12.json trajectory.
   - quick (SNOWPLOW_QUICK set, used by @ci): 3 shorter tenants; the
     determinism assertions are identical (they are exact) and the
     throughput bar keeps a wide margin (1.2x) so a loaded CI box cannot
     flake it while a real scheduler regression still fails. *)

module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Rng = Sp_util.Rng
module Json = Sp_obs.Json
module Campaign = Sp_fuzz.Campaign
module Scheduler = Sp_fuzz.Scheduler
module Vm = Sp_fuzz.Vm
module Table = Sp_util.Table
module Launch = Snowplow.Launch

let quick = Exp_common.quick_mode ()

let failures = ref 0

let bar name ok detail =
  Exp_common.log "%s: %s — %s" name detail (if ok then "PASSES" else "FAILS");
  if not ok then incr failures

let tenants = if quick then 3 else 6

let duration = if quick then 600.0 else 900.0

let kernel =
  Kernel.generate
    { Build.default_config with
      num_syscalls = (if quick then 12 else 20);
      handler_budget = 150 }

let db = Kernel.spec_db kernel

let seed_of k = 1000 + (37 * k)

let cfg_for k =
  { Campaign.default_config with
    seed_corpus = Exp_common.seed_corpus db ~seed:(seed_of k lxor 0x5eed) ~size:40;
    seed = seed_of k;
    duration;
    snapshot_every = 300.0 }

let vm_for k s = Vm.create ~seed:(seed_of k + (7919 * s)) kernel

(* One service bring-up: the cold-start cost the roster either shares
   (scheduled) or pays per campaign (back-to-back). The encoder trains at
   its stock budget — no thumb on the scale — and the cost is still a
   conservative stand-in for the CLI's real per-campaign bring-up, which
   additionally trains the PMM. The same builder runs in both arms, so
   the comparison only measures how often it runs. *)
let build_service () =
  let encoder = Snowplow.Encoder.pretrain kernel in
  let model =
    Snowplow.Pmm.create
      ~encoder_dim:(Snowplow.Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  Snowplow.Inference.create ~kernel
    ~block_embs:(Snowplow.Encoder.embed_kernel encoder kernel)
    model

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Back-to-back baseline: each campaign exactly as the solo CLI runs it —
   its own freshly built service, its own funnel lane, one job. *)
let run_back_to_back () =
  timed (fun () ->
      List.init tenants (fun k ->
          let service =
            Launch.of_inference ~tenant_jobs:[| 1 |] (build_service ())
          in
          let { Launch.strategy_for; on_barrier; _ } =
            Launch.snowplow_lane service ~tenant:0 kernel
          in
          Campaign.run
            (Campaign.create_instance ~jobs:1 ~on_barrier ~vm_for:(vm_for k)
               ~strategy_for (cfg_for k))))

(* Scheduled arm: one service and one funnel with a lane per tenant,
   every campaign a tenant of one Scheduler.run over one shared pool. *)
let run_scheduled () =
  timed (fun () ->
      let service =
        Launch.of_inference ~tenant_jobs:(Array.make tenants 1) (build_service ())
      in
      let roster =
        List.init tenants (fun k ->
            let { Launch.strategy_for; on_barrier; _ } =
              Launch.snowplow_lane service ~tenant:k kernel
            in
            Scheduler.tenant
              ~name:(Printf.sprintf "t%d" k)
              ~jobs:1 ~on_barrier ~vm_for:(vm_for k) ~strategy_for (cfg_for k))
      in
      match Scheduler.run ~workers:1 roster with
      | Ok r -> r
      | Error e -> failwith ("scheduler: " ^ e))

let report_bytes r = Json.to_string (Campaign.report_json r)

let run () =
  Exp_common.section "E12: multi-tenant scheduler, shared pool vs back-to-back";
  Exp_common.log "host reports %d usable core(s)"
    (Domain.recommended_domain_count ());
  let solo_reports, solo_wall = run_back_to_back () in
  let sched, sched_wall = run_scheduled () in
  let solo_execs =
    List.fold_left (fun a (r : Campaign.report) -> a + r.Campaign.executions)
      0 solo_reports
  in
  let sched_execs =
    List.fold_left
      (fun a tr -> a + tr.Scheduler.tr_executions)
      0 sched.Scheduler.sr_tenants
  in
  let tput execs wall = float_of_int execs /. wall in
  let solo_tput = tput solo_execs solo_wall in
  let sched_tput = tput sched_execs sched_wall in
  let ratio = sched_tput /. solo_tput in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "%d campaigns x %.0f virtual seconds, 1 job each"
           tenants duration)
      ~header:[ "arm"; "execs"; "wall"; "execs/s" ]
      ()
  in
  Table.add_row t
    [ "back-to-back solo";
      string_of_int solo_execs;
      Printf.sprintf "%.2fs" solo_wall;
      Printf.sprintf "%.0f" solo_tput ];
  Table.add_row t
    [ "scheduler, shared pool";
      string_of_int sched_execs;
      Printf.sprintf "%.2fs" sched_wall;
      Printf.sprintf "%.0f" sched_tput ];
  Table.print t;
  Exp_common.log "aggregate throughput ratio: %.2fx over %d slices (%s)"
    ratio sched.Scheduler.sr_slices
    (String.concat " " sched.Scheduler.sr_schedule);
  (* Determinism: a second scheduled run (fresh service, same roster)
     replays the exact schedule and byte-identical per-tenant reports. *)
  let sched', _ = run_scheduled () in
  bar "e12 schedule deterministic"
    (sched'.Scheduler.sr_schedule = sched.Scheduler.sr_schedule)
    "replayed admission sequence";
  bar "e12 reports deterministic"
    (List.for_all2
       (fun a b ->
         report_bytes a.Scheduler.tr_report = report_bytes b.Scheduler.tr_report)
       sched.Scheduler.sr_tenants sched'.Scheduler.sr_tenants)
    "per-tenant reports byte-identical across runs";
  bar "e12 all tenants completed"
    (List.for_all (fun tr -> tr.Scheduler.tr_completed)
       sched.Scheduler.sr_tenants)
    (Printf.sprintf "%d tenants" tenants);
  let bar_ratio = if quick then 1.2 else 1.5 in
  bar "e12 throughput"
    (ratio >= bar_ratio)
    (Printf.sprintf "%.2fx against the %.1fx bar" ratio bar_ratio);
  Exp_common.emit_bench "E12"
    [ ("tenants", float_of_int tenants);
      ("duration_vs", duration);
      ("solo_wall_s", solo_wall);
      ("sched_wall_s", sched_wall);
      ("solo_execs", float_of_int solo_execs);
      ("sched_execs", float_of_int sched_execs);
      ("solo_execs_per_s", solo_tput);
      ("sched_execs_per_s", sched_tput);
      ("throughput_ratio", ratio) ];
  if !failures > 0 then begin
    Exp_common.log "e12: %d bar(s) FAILED" !failures;
    exit 1
  end
