module Rng = Sp_util.Rng
module Kernel = Sp_kernel.Kernel
module Spec = Sp_syzlang.Spec
module Prog = Sp_syzlang.Prog

type config = {
  kernel_seed : int;
  train_version : string;
  gen_bases : int;
  corpus_bases : int;
  warmup_duration : float;
  dataset : Dataset.config;
  encoder : Encoder.config;
  pmm : Pmm.config;
  trainer : Trainer.config;
}

let default_config =
  {
    kernel_seed = 7;
    train_version = "6.8";
    gen_bases = 80;
    corpus_bases = 120;
    warmup_duration = 3600.0;
    dataset = Dataset.default_config;
    encoder = Encoder.default_config;
    pmm = Pmm.default_config;
    trainer = Trainer.default_config;
  }

let quick_config =
  {
    default_config with
    kernel_seed = 19;
    gen_bases = 40;
    corpus_bases = 40;
    warmup_duration = 900.0;
    dataset = { Dataset.default_config with mutations_per_base = 200 };
    encoder = { Encoder.default_config with steps = 600 };
    trainer = { Trainer.default_config with epochs = 4; log_every = 0 };
  }

let env_config () =
  if Sys.getenv_opt "SNOWPLOW_QUICK" = None then default_config else quick_config

type t = {
  config : config;
  kernel : Kernel.t;
  bases : Prog.t list;
  split : Dataset.split;
  encoder : Encoder.t;
  block_embs : Sp_ml.Tensor.t;
  model : Pmm.t;
  history : Trainer.progress list;
}

(* Base tests: random generation plus entries evolved by a short Syzkaller
   warm-up — like the paper's Syzbot corpus, the training distribution must
   include the mutated, resource-wired programs a fuzzing loop actually
   mutates, not just freshly generated ones. *)
let collect_bases config kernel =
  let db = Kernel.spec_db kernel in
  let rng = Rng.create (config.kernel_seed lxor 0xba5e) in
  let gen_bases = Sp_syzlang.Gen.corpus rng db ~size:config.gen_bases in
  if config.corpus_bases = 0 then gen_bases
  else begin
    let warm_cfg =
      {
        Sp_fuzz.Campaign.default_config with
        seed_corpus = gen_bases;
        seed = config.kernel_seed lxor 0x3a3;
        duration = config.warmup_duration;
      }
    in
    let warm =
      Sp_fuzz.Campaign.run
        (Sp_fuzz.Campaign.create_instance ~jobs:1
           ~vm_for:(fun _ ->
             Sp_fuzz.Vm.create ~seed:(config.kernel_seed lxor 0x77) kernel)
           ~strategy_for:(fun _ -> Sp_fuzz.Strategy.syzkaller db)
           warm_cfg)
    in
    let corpus_bases =
      Sp_fuzz.Corpus.entries warm.Sp_fuzz.Campaign.corpus
      |> List.map (fun (e : Sp_fuzz.Corpus.entry) -> e.Sp_fuzz.Corpus.prog)
      |> List.filteri (fun i _ -> i < config.corpus_bases)
    in
    gen_bases @ corpus_bases
  end

let train ?(config = default_config) ?(tracer = Sp_obs.Tracer.null)
    ?(tracer_for = fun _ -> Sp_obs.Tracer.null) () =
  let kernel =
    Kernel.linux_like ~seed:config.kernel_seed ~version:config.train_version
  in
  let span name f = Sp_obs.Tracer.span tracer name f in
  let bases = span "pipeline.collect_bases" (fun () -> collect_bases config kernel) in
  let split =
    span "pipeline.dataset" (fun () ->
        Dataset.collect ~config:config.dataset kernel ~bases)
  in
  let encoder =
    span "pipeline.pretrain" (fun () -> Encoder.pretrain ~config:config.encoder kernel)
  in
  let block_embs = Encoder.embed_kernel encoder kernel in
  let model =
    Pmm.create ~config:config.pmm ~encoder_dim:(Encoder.dim encoder)
      ~num_syscalls:(Spec.count (Kernel.spec_db kernel))
      ()
  in
  let history =
    Trainer.train ~config:config.trainer ~tracer ~tracer_for model ~block_embs
      ~train:split.Dataset.train ~valid:split.Dataset.valid
  in
  { config; kernel; bases; split; encoder; block_embs; model; history }

let kernel_version t version =
  if version = t.config.train_version then t.kernel
  else Kernel.linux_like ~seed:t.config.kernel_seed ~version

let embeddings_for t kernel =
  if Kernel.version kernel = t.config.train_version then t.block_embs
  else Encoder.embed_kernel t.encoder kernel

let inference_for ?latency ?capacity_qps ?cache_capacity ?tracer t kernel =
  Inference.create ?latency ?capacity_qps ?cache_capacity ?tracer ~kernel
    ~block_embs:(embeddings_for t kernel) t.model

let eval_scores t = Trainer.evaluate t.model ~block_embs:t.block_embs t.split.Dataset.eval

let rand_baseline t ~k =
  Trainer.random_baseline ~k ~seed:(t.config.kernel_seed lxor 0xabc)
    t.split.Dataset.eval
