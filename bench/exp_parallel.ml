(* E10: the campaign executor's width scaling — wall-clock speedup of N
   shards over one shard on the same workload, and reproducibility.

   "Same workload" means the same total virtual VM-time (and therefore
   ~the same number of test executions): the -jobs 1 baseline fuzzes one
   VM for W virtual seconds; the -jobs N run fuzzes N VMs for W/N
   virtual seconds each. Both run the same executor (the barrier-sliced
   instance), so the ratio isolates the cost and benefit of width. On a
   host with >= N cores the -jobs N run
   finishes the workload N-ish times faster; the speedup measured here is
   honest wall clock, so it degrades with the cores actually available
   (on a 1-core container the domains time-slice and the speedup is ~1x
   — the reproducibility half of the experiment still holds there, and
   the pass/fail verdict on the 2x bar is only asserted when the host
   has the cores to make it physically possible). *)

module Campaign = Sp_fuzz.Campaign
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Strategy = Sp_fuzz.Strategy
module Vm = Sp_fuzz.Vm
module Metrics = Sp_util.Metrics
module Table = Sp_util.Table

(* Quick mode shrinks the workload ~12x; the emitted key set (and the
   reproducibility check) stay identical, so bench-diff can compare a
   fresh quick run against the committed full-workload trajectory. *)
let workload =
  if Exp_common.quick_mode () then 1_200.0 else 14_400.0
(* virtual seconds of single-VM fuzzing *)

let kernel =
  Kernel.generate { Build.default_config with num_syscalls = 24 }

let db = Kernel.spec_db kernel

let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create 2024) db ~size:80

let config ~duration =
  { Campaign.default_config with
    seed_corpus = seeds;
    seed = 17;
    duration;
    snapshot_every = 600.0 }

let vm_for s = Vm.create ~seed:(500 + (7919 * s)) kernel

let strategy_for _ = Strategy.syzkaller db

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_jobs jobs =
  let ts = Exp_common.campaign_timeseries () in
  let r =
    timed (fun () ->
        Campaign.run
          (Campaign.create_instance ?timeseries:ts ~jobs ~vm_for ~strategy_for
             (config ~duration:(workload /. float_of_int jobs))))
  in
  (* The repeated -jobs 4 run overwrites its artifact with identical
     bytes — the timeseries shares the report's determinism contract. *)
  Exp_common.emit_timeseries (Printf.sprintf "e10-jobs%d" jobs) ts;
  r

let fingerprint (r : Campaign.report) =
  ( r.Campaign.final_blocks,
    r.Campaign.final_edges,
    r.Campaign.executions,
    r.Campaign.corpus_size,
    List.map
      (fun (s : Campaign.snapshot) -> (s.Campaign.s_edges, s.Campaign.s_execs))
      r.Campaign.series,
    r.Campaign.origin_stats )

let run () =
  Exp_common.section "E10: parallel executor speedup and reproducibility";
  let cores = Domain.recommended_domain_count () in
  Exp_common.log "host reports %d usable core(s)" cores;
  let one, one_wall = run_jobs 1 in
  let results =
    List.map
      (fun jobs ->
        let r, wall = run_jobs jobs in
        (jobs, r, wall))
      [ 2; 4 ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Same workload (%.0f virtual VM-seconds), 1 shard vs N shards"
           workload)
      ~header:[ "executor"; "execs"; "edges"; "wall"; "speedup" ]
      ()
  in
  Table.add_row t
    [ "-jobs 1";
      string_of_int one.Campaign.executions;
      string_of_int one.Campaign.final_edges;
      Printf.sprintf "%.2fs" one_wall;
      "1.00x" ];
  List.iter
    (fun (jobs, r, wall) ->
      Table.add_row t
        [ Printf.sprintf "-jobs %d" jobs;
          string_of_int r.Campaign.executions;
          string_of_int r.Campaign.final_edges;
          Printf.sprintf "%.2fs" wall;
          Printf.sprintf "%.2fx" (one_wall /. wall) ])
    results;
  Table.print t;
  Exp_common.emit_bench "E10"
    (("jobs1_wall_s", one_wall)
    :: ("jobs1_execs", float_of_int one.Campaign.executions)
    :: List.concat_map
         (fun (jobs, r, wall) ->
           [ (Printf.sprintf "jobs%d_wall_s" jobs, wall);
             (Printf.sprintf "jobs%d_speedup" jobs, one_wall /. wall);
             (Printf.sprintf "jobs%d_execs" jobs, float_of_int r.Campaign.executions)
           ])
         results);
  (match List.find_opt (fun (jobs, _, _) -> jobs = 4) results with
  | Some (_, _, wall4) ->
    let speedup = one_wall /. wall4 in
    if cores >= 4 then
      Exp_common.log "speedup at -jobs 4: %.2fx — %s the 2x bar" speedup
        (if speedup >= 2.0 then "PASSES" else "FAILS")
    else
      Exp_common.log
        "speedup at -jobs 4: %.2fx (2x bar not applicable: %d core(s) \
         available; domains time-slice one core)"
        speedup cores
  | None -> ());
  (* Reproducibility: the second half of the acceptance criterion. *)
  let again, _ = run_jobs 4 in
  let first =
    match List.find_opt (fun (jobs, _, _) -> jobs = 4) results with
    | Some (_, r, _) -> r
    | None -> assert false
  in
  Exp_common.log "two -jobs 4 runs with identical (seed, jobs): %s"
    (if fingerprint again = fingerprint first then
       "bit-for-bit identical reports"
     else "DIVERGED (nondeterminism bug!)");
  (* Pool observability from the last run's merged registry. *)
  let m = again.Campaign.metrics in
  Exp_common.log "pool: %d tasks" (Metrics.counter m "pool.tasks");
  (match Metrics.summary m "pool.barrier_wait_s" with
  | Some s ->
    Exp_common.log "pool: barrier wait mean %.1f ms over %d barriers"
      (s.Metrics.mean *. 1e3) s.Metrics.count
  | None -> ());
  (match Metrics.summary m "pool.idle_ns" with
  | Some s -> Exp_common.log "pool: worker idle mean %.1f ms" (s.Metrics.mean /. 1e6)
  | None -> ())
