(* The per-layer ledger of one traced campaign: the program's own spans
   joined with the benchmark's timers around calls it owns. On the
   scheduling domain the campaign wall splits without overlap into

     pool.barrier_wait_s + campaign.merge_s + flush + campaign.barrier_self_s
       + unattributed_s

   where flush is the time in Funnel.flush_tenant (reported as
   funnel.flush_frac) and campaign.barrier_self_s is the rest of the
   campaign.barrier spans. Barrier spans of concurrent tenants overlap, so
   their union is used, not their sum. *)

type campaign = {
  wall_s : float;  (** traced campaign wall *)
  untraced_wall_s : float;  (** median untraced campaign wall *)
  workers : int;
  propose_s : float;  (** benchmark timer around every Strategy.propose *)
  flush_s : float;  (** benchmark timer around every Funnel.flush_tenant *)
  wait_s : float;  (** pool.barrier_wait_s summed over the tenants' registries *)
}

let ratio a b = if b > 0.0 then a /. b else 0.0

let campaign_metrics spans c =
  let barrier_s = Spans.union_s spans "campaign.barrier" in
  let merge_s = Spans.total_s spans "campaign.merge" in
  let epoch_s = Spans.total_s spans "shard.epoch" in
  let slices = Spans.durations_ms spans "scheduler.slice" in
  let slice_pct p = if slices = [] then 0.0 else snd (Stat.tail slices ~want:p) in
  let unattributed_s = c.wall_s -. barrier_s in
  [ ("shard.epoch_s", epoch_s);
    ("shard.epoch_self_s", epoch_s -. c.propose_s);
    ("pool.barrier_wait_s", c.wait_s);
    ( "pool.busy_frac",
      ratio (Spans.total_s spans "pool.task") (float_of_int c.workers *. c.wall_s) );
    ("funnel.flush_frac", ratio c.flush_s c.wall_s);
    ("campaign.merge_s", merge_s);
    ("campaign.barrier_self_s", barrier_s -. merge_s -. c.flush_s -. c.wait_s);
    ("scheduler.slice_ms_p50", slice_pct 50.0);
    ("scheduler.slice_ms_p90", slice_pct 90.0);
    ("unattributed_s", unattributed_s);
    ("unattributed_frac", ratio unattributed_s c.wall_s);
    ("trace_overhead_frac", ratio c.wall_s c.untraced_wall_s -. 1.0)
  ]

type setup = {
  setup_s : float;  (** the traced set-up, end to end *)
  train_s : float;  (** benchmark timer around Pipeline.train; 0 without PMM *)
  samples : int;  (** training examples presented over all epochs *)
}

let setup_metrics spans s =
  let epoch_s = Spans.total_s spans "trainer.epoch" in
  let share name = ratio (Spans.total_s spans name) s.setup_s in
  [ ("pipeline.train_frac", ratio s.train_s s.setup_s);
    ("pipeline.dataset_frac", share "pipeline.dataset");
    ("pipeline.pretrain_frac", share "pipeline.pretrain");
    ("trainer.epoch_frac", share "trainer.epoch");
    ("trainer.samples_per_s", ratio (float_of_int s.samples) epoch_s)
  ]
