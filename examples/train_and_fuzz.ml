(* Train a small PMM and run a side-by-side Syzkaller vs Snowplow coverage
   campaign — a miniature of §5.3.1 / Figure 6 (a reduced-budget model and
   a 6-virtual-hour campaign so the example finishes in a couple of
   minutes).

   Run with: dune exec examples/train_and_fuzz.exe *)

module Campaign = Sp_fuzz.Campaign

let () =
  let config =
    {
      Snowplow.Pipeline.default_config with
      gen_bases = 50;
      corpus_bases = 50;
      dataset = { Snowplow.Dataset.default_config with mutations_per_base = 300 };
      trainer = { Snowplow.Trainer.default_config with epochs = 5 };
      encoder = { Snowplow.Encoder.default_config with steps = 1500 };
    }
  in
  print_endline "training PMM (reduced budget)...";
  let p = Snowplow.Pipeline.train ~config () in
  Format.printf "held-out localization quality: %a@."
    Sp_ml.Metrics.pp (Snowplow.Pipeline.eval_scores p);
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Sp_kernel.Kernel.spec_db kernel in
  let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create 99) db ~size:80 in
  let cfg =
    {
      Campaign.default_config with
      seed_corpus = seeds;
      seed = 11;
      duration = 6.0 *. 3600.0;
      snapshot_every = 1800.0;
    }
  in
  (* One job: a single-shard campaign on its own VM. *)
  let fuzz strategy =
    Campaign.run
      (Campaign.create_instance ~jobs:1
         ~vm_for:(fun _ -> Sp_fuzz.Vm.create ~seed:1 kernel)
         ~strategy_for:(fun _ -> strategy)
         cfg)
  in
  print_endline "running 6 virtual hours of Syzkaller...";
  let syz = fuzz (Sp_fuzz.Strategy.syzkaller db) in
  print_endline "running 6 virtual hours of Snowplow...";
  let inference = Snowplow.Pipeline.inference_for p kernel in
  let snow = fuzz (Snowplow.Hybrid.strategy ~inference kernel) in
  Printf.printf "\n%-10s %8s %8s\n" "uptime" "Syzkaller" "Snowplow";
  List.iter2
    (fun (s : Campaign.snapshot) (n : Campaign.snapshot) ->
      Printf.printf "%6.1f h   %8d %8d\n" (s.Campaign.s_time /. 3600.0)
        s.Campaign.s_edges n.Campaign.s_edges)
    syz.Campaign.series snow.Campaign.series;
  Printf.printf "\nedge coverage after 6 h: Syzkaller %d, Snowplow %d (%+.1f%%)\n"
    syz.Campaign.final_edges snow.Campaign.final_edges
    (100.0
    *. ((float_of_int snow.Campaign.final_edges
        /. float_of_int (max 1 syz.Campaign.final_edges))
       -. 1.0));
  Printf.printf "inference service: %d queries served, %d answered from cache\n"
    (Snowplow.Inference.served inference)
    (Snowplow.Inference.cache_hits inference)
