(* End-to-end integration tests: the whole pipeline at a tiny scale —
   kernel generation, dataset collection, model training, inference
   service, and side-by-side campaigns of all four fuzzers. *)

module Rng = Sp_util.Rng
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Gen = Sp_syzlang.Gen
module Campaign = Sp_fuzz.Campaign
module Pipeline = Snowplow.Pipeline

let tiny_config =
  {
    Pipeline.default_config with
    kernel_seed = 19;
    gen_bases = 40;
    corpus_bases = 40;
    warmup_duration = 900.0;
    dataset = { Snowplow.Dataset.default_config with mutations_per_base = 200 };
    encoder = { Snowplow.Encoder.default_config with steps = 600 };
    trainer = { Snowplow.Trainer.default_config with epochs = 4; log_every = 0 };
  }

let pipeline = lazy (Pipeline.train ~config:tiny_config ())

let test_pipeline_trains () =
  let p = Lazy.force pipeline in
  Alcotest.(check bool) "has training data" true
    (Array.length p.Pipeline.split.Snowplow.Dataset.train > 20);
  let s = Pipeline.eval_scores p in
  let rand = Pipeline.rand_baseline p ~k:8 in
  Alcotest.(check bool)
    (Printf.sprintf "PMM F1 (%.2f) beats Rand.8 (%.2f)" s.Sp_ml.Metrics.f1
       rand.Sp_ml.Metrics.f1)
    true
    (s.Sp_ml.Metrics.f1 > rand.Sp_ml.Metrics.f1 && s.Sp_ml.Metrics.f1 > 0.1)

let test_generalizes_across_versions () =
  let p = Lazy.force pipeline in
  let k9 = Pipeline.kernel_version p "6.9" in
  Alcotest.(check string) "version" "6.9" (Kernel.version k9);
  let embs = Pipeline.embeddings_for p k9 in
  Alcotest.(check (pair int int)) "embeddings per block"
    (Kernel.num_blocks k9, Snowplow.Encoder.dim p.Pipeline.encoder)
    (Sp_ml.Tensor.dims embs);
  (* the trained model must produce predictions on the unseen version *)
  let inference = Pipeline.inference_for p k9 in
  let prog = Gen.program (Rng.create 3) (Kernel.spec_db k9) () in
  let r = Kernel.execute k9 prog in
  if r.Kernel.crash = None then begin
    let targets =
      List.filteri (fun i _ -> i < 6)
        (List.map fst (Snowplow.Query_graph.frontier_blocks k9 r))
    in
    if targets <> [] then
      Alcotest.(check bool) "predicts on unseen kernel" true
        (Snowplow.Inference.predict_now inference prog ~targets <> [])
  end

let campaign_cfg p seed duration =
  let db = Kernel.spec_db p.Pipeline.kernel in
  let seeds = Gen.corpus (Rng.create 2024) db ~size:40 in
  { Campaign.default_config with seed_corpus = seeds; seed; duration }

(* A one-job campaign: the one-shard instance, driven to completion. *)
let run_campaign vm strategy cfg =
  Campaign.run
    (Campaign.create_instance ~jobs:1
       ~vm_for:(fun _ -> vm)
       ~strategy_for:(fun _ -> strategy)
       cfg)

let test_all_four_fuzzers_run () =
  let p = Lazy.force pipeline in
  let kernel = p.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  let cfg = campaign_cfg p 3 1800.0 in
  let strategies =
    [ Sp_fuzz.Strategy.syzkaller db;
      Sp_fuzz.Strategy.syzdirect ~target_sys:(Some 0) db;
      Snowplow.Hybrid.strategy ~inference:(Pipeline.inference_for p kernel) kernel;
      Snowplow.Directed.strategy
        ~inference:(Pipeline.inference_for p kernel)
        ~target:(Kernel.handler_exit kernel 1) kernel ]
  in
  List.iter
    (fun strategy ->
      let vm = Sp_fuzz.Vm.create ~seed:4 kernel in
      let r = run_campaign vm strategy cfg in
      Alcotest.(check bool)
        (strategy.Sp_fuzz.Strategy.name ^ " makes progress")
        true
        (r.Campaign.final_edges > 0 && r.Campaign.executions > 50))
    strategies

let test_snowplow_guided_mutations_flow () =
  (* During a Snowplow campaign, PMM-guided argument mutations must both
     happen and contribute coverage. *)
  let p = Lazy.force pipeline in
  let kernel = p.Pipeline.kernel in
  let inference = Pipeline.inference_for p kernel in
  let cfg = campaign_cfg p 5 3600.0 in
  let vm = Sp_fuzz.Vm.create ~seed:6 kernel in
  let r = run_campaign vm (Snowplow.Hybrid.strategy ~inference kernel) cfg in
  let pmm_execs =
    match List.assoc_opt "pmm-arg" r.Campaign.origin_stats with
    | Some (execs, _) -> execs
    | None -> 0
  in
  Alcotest.(check bool) "guided mutations executed" true (pmm_execs > 100);
  Alcotest.(check bool) "inference served queries" true
    (Snowplow.Inference.served inference > 10)

let test_crash_campaign_with_triage () =
  (* A longer noisy hunt on a bug-dense kernel must find, dedup and
     classify crashes. *)
  let kernel =
    Kernel.generate
      { Build.default_config with
        seed = 5; num_syscalls = 16; handler_budget = 120; max_depth = 8;
        num_known_bugs = 10; num_new_bugs = 10 }
  in
  let db = Kernel.spec_db kernel in
  let seeds = Gen.corpus (Rng.create 7) db ~size:40 in
  let cfg =
    { Campaign.default_config with
      seed_corpus = seeds; seed = 8; duration = 14_400.0; attempt_repro = true }
  in
  let vm = Sp_fuzz.Vm.create ~seed:9 kernel in
  let r = run_campaign vm (Sp_fuzz.Strategy.syzkaller db) cfg in
  Alcotest.(check bool) "found crashes" true (r.Campaign.crashes <> []);
  (* dedup: descriptions unique *)
  let descs = List.map (fun (f : Sp_fuzz.Triage.found) -> f.Sp_fuzz.Triage.description) r.Campaign.crashes in
  Alcotest.(check int) "descriptions unique" (List.length descs)
    (List.length (List.sort_uniq compare descs));
  (* every reproducer really crashes *)
  List.iter
    (fun (f : Sp_fuzz.Triage.found) ->
      match f.Sp_fuzz.Triage.reproducer with
      | None -> ()
      | Some repro ->
        let res = Kernel.execute kernel repro in
        Alcotest.(check bool) "reproducer crashes" true (res.Kernel.crash <> None))
    r.Campaign.crashes

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "trains end to end" `Slow test_pipeline_trains;
          Alcotest.test_case "generalizes across versions" `Slow
            test_generalizes_across_versions;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "all four fuzzers run" `Slow test_all_four_fuzzers_run;
          Alcotest.test_case "guided mutations flow" `Slow
            test_snowplow_guided_mutations_flow;
          Alcotest.test_case "crash campaign with triage" `Slow
            test_crash_campaign_with_triage;
        ] );
    ]
