(* E8: performance characteristics (§5.5) — inference service throughput
   and latency, fuzzing throughput, and Bechamel micro-benchmarks of the
   pipeline's hot operations. *)

module Campaign = Sp_fuzz.Campaign
module Kernel = Sp_kernel.Kernel
module Table = Sp_util.Table

let service_numbers p =
  (* Drive the service far beyond capacity and observe saturation. *)
  let kernel = p.Snowplow.Pipeline.kernel in
  let inference =
    Snowplow.Pipeline.inference_for p kernel
  in
  let db = Kernel.spec_db kernel in
  let progs = Exp_common.seed_corpus db ~seed:4242 ~size:64 in
  let with_targets =
    List.filter_map
      (fun prog ->
        let r = Kernel.execute kernel prog in
        if r.Kernel.crash <> None then None
        else
          match Snowplow.Query_graph.frontier_blocks kernel r with
          | [] -> None
          | frontier ->
            Some (prog, List.filteri (fun i _ -> i < 20) (List.map fst frontier)))
      progs
  in
  (* Unique (prog, targets) pairs keep the memo out of the way; requests at
     200 qps against a 57 qps service. *)
  let sent = ref 0 in
  List.iteri
    (fun i (prog, targets) ->
      let now = float_of_int i /. 200.0 in
      if Snowplow.Inference.request inference ~now prog ~targets then incr sent)
    with_targets;
  let horizon = 120.0 in
  let completed = Snowplow.Inference.poll inference ~now:horizon () in
  ( Snowplow.Inference.saturation_qps inference,
    Snowplow.Inference.mean_latency inference,
    !sent,
    List.length completed )

(* Quick mode shrinks the campaigns ~12x (and skips the 24-virtual-hour
   cache-bound run plus the microbenchmarks below); the emitted key set
   is unchanged, so bench-diff can compare a fresh quick run against the
   committed full-workload trajectory. *)
let campaign_duration () =
  if Exp_common.quick_mode () then 600.0 else 7200.0

let fuzz_throughput p =
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  let seeds = Exp_common.seed_corpus db ~seed:123 ~size:60 in
  let cfg =
    { Campaign.default_config with
      seed_corpus = seeds;
      seed = 3;
      duration = campaign_duration () }
  in
  let run name strategy =
    let ts = Exp_common.campaign_timeseries () in
    let vm = Sp_fuzz.Vm.create ~seed:5 kernel in
    let r = Exp_common.run_campaign ?timeseries:ts vm strategy cfg in
    Exp_common.emit_timeseries name ts;
    (* tests per second of the modelled full-size fleet *)
    (float_of_int r.Campaign.executions /. cfg.Campaign.duration *. 96.0, r)
  in
  let syz, _ = run "e8-syzkaller" (Sp_fuzz.Strategy.syzkaller db) in
  let inference = Snowplow.Pipeline.inference_for p kernel in
  let snow, snow_report =
    run "e8-snowplow" (Snowplow.Hybrid.strategy ~inference kernel)
  in
  (syz, snow, snow_report, inference)

(* A long campaign against deliberately tiny prediction caches: over >= 24
   virtual hours of frontier churn the caches must stay at or under their
   configured bound — the eviction path, not luck, is what bounds memory.
   A large fleet_scale (slow virtual executor) keeps the real-time cost of
   simulating a full virtual day small. *)
let cache_bound_run p =
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  let cache_capacity = 64 in
  let inference =
    Snowplow.Pipeline.inference_for ~cache_capacity p kernel
  in
  let seeds = Exp_common.seed_corpus db ~seed:321 ~size:40 in
  let cfg =
    { Campaign.default_config with
      seed_corpus = seeds; seed = 11; duration = 86_400.0 }
  in
  let vm = Sp_fuzz.Vm.create ~seed:13 ~fleet_scale:(96.0 *. 24.0) kernel in
  let ts = Exp_common.campaign_timeseries () in
  let r =
    Exp_common.run_campaign ?timeseries:ts vm
      (Snowplow.Hybrid.strategy ~inference kernel)
      cfg
  in
  Exp_common.emit_timeseries "e8-cache-bound" ts;
  (r, inference)

let print_campaign_metrics (r : Campaign.report) inference =
  let m = Sp_util.Metrics.create () in
  Sp_util.Metrics.merge_into ~dst:m r.Campaign.metrics;
  Sp_util.Metrics.merge_into ~dst:m (Snowplow.Inference.metrics inference);
  print_string (Sp_util.Metrics.render m)

let microbench p =
  let open Bechamel in
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  let rng = Sp_util.Rng.create 9 in
  let prog = Sp_syzlang.Gen.program rng db () in
  let result = Kernel.execute kernel prog in
  let engine = Sp_mutation.Engine.create db in
  let targets =
    Snowplow.Query_graph.frontier_blocks kernel result
    |> List.map fst
    |> List.filteri (fun i _ -> i < 20)
  in
  let graph = Snowplow.Query_graph.build kernel prog ~result ~targets in
  let prepared = Snowplow.Pmm.prepare graph in
  let block_embs = p.Snowplow.Pipeline.block_embs in
  let model = p.Snowplow.Pipeline.model in
  let tests =
    [ Test.make ~name:"kernel execute" (Staged.stage (fun () -> Kernel.execute kernel prog));
      Test.make ~name:"mutate (engine)"
        (Staged.stage (fun () -> Sp_mutation.Engine.mutate engine rng prog));
      Test.make ~name:"query-graph build"
        (Staged.stage (fun () -> Snowplow.Query_graph.build kernel prog ~result ~targets));
      Test.make ~name:"pmm inference (fast)"
        (Staged.stage (fun () -> Snowplow.Pmm.infer_logits model ~block_embs prepared));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.6) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw
    in
    results
  in
  let t = Table.create ~title:"Micro-benchmarks (Bechamel)" ~header:[ "operation"; "time/op" ] () in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            let ns = est in
            let pretty =
              if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            Table.add_row t [ name; pretty ]
          | _ -> Table.add_row t [ name; "?" ])
        results)
    tests;
  Table.print t

let run_slow_half p =
  let bound_report, bound_inference = cache_bound_run p in
  let cache_size = Snowplow.Inference.cache_size bound_inference in
  let cache_cap = Snowplow.Inference.cache_capacity bound_inference in
  let t = Table.create ~title:"Prediction-cache boundedness (24 virtual hours)"
      ~header:[ "metric"; "value" ] () in
  Table.add_row t
    [ "campaign duration"; Printf.sprintf "%.0f virtual s" 86_400.0 ];
  Table.add_row t
    [ "campaign executions"; string_of_int bound_report.Campaign.executions ];
  Table.add_row t
    [ "inference requests";
      string_of_int
        (Sp_util.Metrics.counter
           (Snowplow.Inference.metrics bound_inference)
           "inference.requests") ];
  Table.add_row t
    [ "cache entries at end / capacity"; Printf.sprintf "%d/%d" cache_size cache_cap ];
  Table.add_row t
    [ "cache bounded";
      (if cache_size <= cache_cap then "yes (entries <= capacity)" else "NO — BUG") ];
  Table.print t;
  print_newline ();
  print_endline "Campaign + inference loop metrics (24 h bounded-cache run):";
  print_campaign_metrics bound_report bound_inference;
  print_newline ();
  microbench p;
  print_newline ()

let run () =
  Exp_common.section "E8 — Performance characteristics (§5.5)";
  let p = Exp_common.pipeline () in
  let qps, latency, sent, completed = service_numbers p in
  let syz_tps, snow_tps, snow_report, snow_inference = fuzz_throughput p in
  let t = Table.create ~title:"Service and fuzzing performance" ~header:[ "metric"; "value"; "paper" ] () in
  Table.add_row t [ "inference capacity (saturation)"; Printf.sprintf "%.0f qps" qps; "57 qps" ];
  Table.add_row t
    [ "inference latency (under load)"; Printf.sprintf "%.2f s" latency; "0.69 s" ];
  Table.add_row t
    [ "queries completed under overload"; Printf.sprintf "%d/%d" completed sent; "-" ];
  Table.add_row t
    [ "Syzkaller throughput (modelled fleet)"; Printf.sprintf "%.0f tests/s" syz_tps; "390" ];
  Table.add_row t
    [ "Snowplow throughput (modelled fleet)"; Printf.sprintf "%.0f tests/s" snow_tps; "383" ];
  Table.add_row t
    [ "Snowplow campaign executions/s (virtual)";
      Printf.sprintf "%.1f execs/s"
        (float_of_int snow_report.Campaign.executions /. campaign_duration ());
      "-" ];
  Table.print t;
  Exp_common.emit_bench "E8"
    [ ("inference_saturation_qps", qps);
      ("inference_latency_s", latency);
      ("syzkaller_fleet_tests_per_s", syz_tps);
      ("snowplow_fleet_tests_per_s", snow_tps)
    ];
  print_newline ();
  print_endline "Campaign + inference loop metrics (Snowplow run):";
  print_campaign_metrics snow_report snow_inference;
  print_newline ();
  if Exp_common.quick_mode () then
    Exp_common.log
      "quick mode: skipping the 24-virtual-hour cache-bound run and the \
       microbenchmarks"
  else run_slow_half p
