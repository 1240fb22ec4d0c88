(* Every metric the benchmark prints; benchmark/README.md defines each.
   BENCHMARK.json at the repository root mirrors the names, units and
   directions (and adds the end-to-end bounds); benchmark/test checks the
   two agree.

   [Virtual] metrics are functions of the seed and the virtual clock, so
   they repeat exactly for the same campaigns; [Measured] ones are
   wall-clock or memory readings of the host. Per-layer timings of a layer
   that only some workloads run (the funnel, PMM training, snapshots) are
   shares or rates, which read 0 where the layer is absent; seconds are
   used only for layers every workload runs. *)

type better = Higher | Lower

type kind = Measured | Virtual

type metric = { name : string; unit_ : string; better : better; kind : kind }

let m name unit_ better kind = { name; unit_; better; kind }

let end_to_end =
  [ m "execs_per_s" "execs/s" Higher Measured;
    m "setup_s" "s" Lower Measured;
    m "edges" "count" Higher Virtual;
    m "barrier_ms_p50" "ms" Lower Measured;
    m "barrier_ms_p90" "ms" Lower Measured;
    m "peak_rss_mb" "MB" Lower Measured
  ]

let per_layer =
  [ (* Sp_fuzz.Strategy / Sp_mutation.Engine / Snowplow.Hybrid *)
    m "strategy.propose_calls" "count" Higher Virtual;
    m "strategy.proposals" "count" Higher Virtual;
    m "strategy.propose_s" "s" Lower Measured;
    m "strategy.propose_us_p50" "us" Lower Measured;
    m "strategy.propose_us_p90" "us" Lower Measured;
    (* Sp_fuzz.Shard / Vm / Sp_kernel *)
    m "vm.executions" "count" Higher Virtual;
    m "shard.epoch_s" "s" Lower Measured;
    m "shard.epoch_self_s" "s" Lower Measured;
    m "kernel.exec_us_p50" "us" Lower Measured;
    m "kernel.exec_us_p90" "us" Lower Measured;
    m "kernel.exec_est_s" "s" Lower Measured;
    (* Sp_util.Pool / runtime *)
    m "pool.barrier_wait_s" "s" Lower Measured;
    m "pool.busy_frac" "fraction" Higher Measured;
    m "gc.minor_collections" "count" Lower Measured;
    m "gc.major_collections" "count" Lower Measured;
    m "gc.top_heap_mb" "MB" Lower Measured;
    (* Snowplow.Funnel / Inference / Pmm *)
    m "funnel.flush_frac" "fraction" Lower Measured;
    m "inference.predictions_per_s" "1/s" Higher Measured;
    m "inference.requests" "count" Higher Virtual;
    m "inference.computed" "count" Higher Virtual;
    m "inference.cache_hits" "count" Higher Virtual;
    m "inference.dropped" "count" Lower Virtual;
    m "inference.drop_frac" "fraction" Lower Virtual;
    (* Snowplow.Pipeline / Trainer / Encoder / Dataset *)
    m "kernel.generate_s" "s" Lower Measured;
    m "corpus.generate_s" "s" Lower Measured;
    m "pipeline.train_frac" "fraction" Lower Measured;
    m "pipeline.dataset_frac" "fraction" Lower Measured;
    m "pipeline.pretrain_frac" "fraction" Lower Measured;
    m "trainer.epoch_frac" "fraction" Lower Measured;
    m "trainer.samples_per_s" "1/s" Higher Measured;
    (* Sp_fuzz.Campaign / Snapshot / Sp_obs.Io *)
    m "campaign.merge_s" "s" Lower Measured;
    m "campaign.barrier_self_s" "s" Lower Measured;
    m "snapshot.bytes" "B" Lower Virtual;
    m "snapshot.write_mb_per_s" "MB/s" Higher Measured;
    m "snapshot.read_mb_per_s" "MB/s" Higher Measured;
    (* Sp_fuzz.Scheduler *)
    m "scheduler.slice_ms_p50" "ms" Lower Measured;
    m "scheduler.slice_ms_p90" "ms" Lower Measured;
    (* attribution *)
    m "unattributed_s" "s" Lower Measured;
    m "unattributed_frac" "fraction" Lower Measured;
    m "trace_overhead_frac" "fraction" Lower Measured
  ]

let all = end_to_end @ per_layer

let find name = List.find_opt (fun d -> d.name = name) all

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let kind_to_string = function Measured -> "measured" | Virtual -> "virtual"

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
