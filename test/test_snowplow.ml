(* Tests for the core snowplow library: query graphs, PMM, dataset
   construction, trainer metrics, the inference service and the hybrid
   strategies. A small kernel keeps everything fast. *)

module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module QG = Snowplow.Query_graph
module Pmm = Snowplow.Pmm
module Dataset = Snowplow.Dataset
module Encoder = Snowplow.Encoder
module Tensor = Sp_ml.Tensor

let small_config =
  { Build.default_config with num_syscalls = 16; handler_budget = 120; max_depth = 8 }

let kernel = Kernel.generate small_config

let db = Kernel.spec_db kernel

let encoder = Encoder.pretrain ~config:{ Encoder.default_config with steps = 300 } kernel

let block_embs = Encoder.embed_kernel encoder kernel

let model =
  Pmm.create ~encoder_dim:(Encoder.dim encoder)
    ~num_syscalls:(Sp_syzlang.Spec.count db) ()

let sample_graph seed =
  let rng = Rng.create seed in
  let prog = Gen.program rng db () in
  let result = Kernel.execute kernel prog in
  let frontier = QG.frontier_blocks kernel result in
  let targets = List.filteri (fun i _ -> i < 5) (List.map fst frontier) in
  (prog, result, QG.build kernel prog ~result ~targets)

(* ------------------------------------------------------------------ *)
(* Query graph                                                          *)
(* ------------------------------------------------------------------ *)

let prop_graph_edges_in_range =
  QCheck.Test.make ~count:60 ~name:"edges reference existing nodes"
    QCheck.(int_bound 100000)
    (fun seed ->
      let _, _, g = sample_graph seed in
      let n = Array.length g.QG.nodes in
      Array.for_all (fun (s, d, _) -> s >= 0 && s < n && d >= 0 && d < n) g.QG.edges)

let prop_graph_arg_nodes_match_prog =
  QCheck.Test.make ~count:60 ~name:"one argument node per program argument"
    QCheck.(int_bound 100000)
    (fun seed ->
      let prog, _, g = sample_graph seed in
      List.length g.QG.arg_index = Prog.num_args prog)

let prop_graph_targets_marked =
  QCheck.Test.make ~count:60 ~name:"targets are marked on frontier entries only"
    QCheck.(int_bound 100000)
    (fun seed ->
      let _, result, g = sample_graph seed in
      let frontier = List.map fst (QG.frontier_blocks kernel result) in
      List.for_all (fun b -> List.mem b frontier) g.QG.target_blocks)

let prop_graph_frontier_edges =
  QCheck.Test.make ~count:60 ~name:"cf-frontier edges go covered -> uncovered"
    QCheck.(int_bound 100000)
    (fun seed ->
      let _, _, g = sample_graph seed in
      Array.for_all
        (fun (s, d, kind) ->
          kind <> QG.Cf_frontier
          || (match (g.QG.nodes.(s), g.QG.nodes.(d)) with
             | QG.Covered_block _, (QG.Alt_block _ | QG.Target_block _) -> true
             | _ -> false))
        g.QG.edges)

let test_graph_drop_edges () =
  let rng = Rng.create 3 in
  let prog = Gen.program rng db () in
  let result = Kernel.execute kernel prog in
  let targets =
    List.filteri (fun i _ -> i < 3) (List.map fst (QG.frontier_blocks kernel result))
  in
  let g = QG.build ~drop:[ QG.Ctx_entry; QG.Ctx_exit ] kernel prog ~result ~targets in
  Alcotest.(check bool) "no ctx edges" true
    (Array.for_all
       (fun (_, _, k) -> k <> QG.Ctx_entry && k <> QG.Ctx_exit)
       g.QG.edges)

let test_graph_stats_keys () =
  let _, _, g = sample_graph 1 in
  let stats = QG.stats g in
  Alcotest.(check int) "node total consistent"
    (List.assoc "nodes" stats)
    (List.assoc "syscall nodes" stats
    + List.assoc "argument nodes" stats
    + List.assoc "covered block nodes" stats
    + List.assoc "alternative entry nodes" stats
    + List.assoc "target nodes" stats)

(* ------------------------------------------------------------------ *)
(* PMM                                                                  *)
(* ------------------------------------------------------------------ *)

let prop_fast_inference_matches_autodiff =
  QCheck.Test.make ~count:30 ~name:"tape-free inference equals autodiff forward"
    QCheck.(int_bound 100000)
    (fun seed ->
      let _, _, g = sample_graph seed in
      let p = Pmm.prepare g in
      let a = Sp_ml.Ad.value (Pmm.forward_logits model ~block_embs p) in
      let b = Pmm.infer_logits model ~block_embs p in
      let rows, _ = Tensor.dims a in
      let ok = ref true in
      for i = 0 to rows - 1 do
        if Float.abs (Tensor.get a i 0 -. Tensor.get b i 0) > 1e-9 then ok := false
      done;
      !ok)

let prop_logits_aligned_with_paths =
  QCheck.Test.make ~count:30 ~name:"one logit per argument path"
    QCheck.(int_bound 100000)
    (fun seed ->
      let _, _, g = sample_graph seed in
      let p = Pmm.prepare g in
      let logits = Pmm.infer_logits model ~block_embs p in
      fst (Tensor.dims logits) = Array.length (Pmm.prepared_paths p))

let prop_predict_mutable_paths =
  QCheck.Test.make ~count:30 ~name:"predictions are mutable argument paths"
    QCheck.(int_bound 100000)
    (fun seed ->
      let prog, _, g = sample_graph seed in
      let predicted = Pmm.predict model ~block_embs g in
      List.for_all
        (fun path ->
          match Prog.ty_at prog path with
          | Sp_syzlang.Ty.Const _ | Sp_syzlang.Ty.Len _ | Sp_syzlang.Ty.Struct _ ->
            false
          | _ -> true)
        predicted)

let test_threshold_roundtrip () =
  Pmm.set_threshold model 0.42;
  Alcotest.(check (float 1e-9)) "threshold" 0.42 (Pmm.threshold model);
  Pmm.set_threshold model 0.5

(* ------------------------------------------------------------------ *)
(* Encoder                                                              *)
(* ------------------------------------------------------------------ *)

let test_encoder_shapes () =
  Alcotest.(check (pair int int)) "one row per block"
    (Kernel.num_blocks kernel, Encoder.dim encoder)
    (Tensor.dims block_embs)

let test_embed_kernel_bit_identical () =
  (* [block_embs] above came from the batched embed_kernel; every row
     must equal the per-block embed bit for bit (the batched path shares
     one matmul per linear layer but row results are independent). *)
  let n = min 60 (Kernel.num_blocks kernel) in
  for b = 0 to n - 1 do
    let e = Encoder.embed encoder (Kernel.block kernel b).Sp_kernel.Ir.tokens in
    Array.iteri
      (fun j v ->
        if Int64.bits_of_float v
           <> Int64.bits_of_float (Tensor.get block_embs b j)
        then Alcotest.failf "block %d col %d differs" b j)
      e
  done

let test_encoder_learns () =
  (* pretrained masked-token accuracy should beat uniform guessing *)
  let acc = Encoder.masked_lm_accuracy encoder kernel ~samples:300 ~seed:4 in
  Alcotest.(check bool) "beats uniform guessing" true
    (acc > 3.0 /. float_of_int Sp_kernel.Token.vocab_size)

(* ------------------------------------------------------------------ *)
(* Dataset                                                              *)
(* ------------------------------------------------------------------ *)

let tiny_dataset_config =
  { Dataset.default_config with mutations_per_base = 120; max_examples_per_base = 4 }

let bases = Gen.corpus (Rng.create 21) db ~size:30

let split = Dataset.collect ~config:tiny_dataset_config kernel ~bases

let all_examples =
  Array.to_list split.Dataset.train
  @ Array.to_list split.Dataset.valid
  @ Array.to_list split.Dataset.eval

let test_dataset_nonempty () =
  Alcotest.(check bool) "collected examples" true (List.length all_examples > 10)

let test_dataset_labels_aligned () =
  List.iter
    (fun (ex : Dataset.example) ->
      Alcotest.(check int) "labels aligned with paths"
        (Array.length (Pmm.prepared_paths ex.Dataset.prepared))
        (Array.length ex.Dataset.labels);
      (* every MUTATE label corresponds to a gold path *)
      let gold =
        List.map (fun (p : Prog.path) -> (p.Prog.call, p.Prog.arg)) ex.Dataset.mutated_args
      in
      Array.iteri
        (fun i l ->
          if l > 0.5 then begin
            let p = (Pmm.prepared_paths ex.Dataset.prepared).(i) in
            if not (List.mem (p.Prog.call, p.Prog.arg) gold) then
              Alcotest.fail "positive label without gold path"
          end)
        ex.Dataset.labels)
    all_examples

let test_dataset_targets_are_frontier () =
  List.iter
    (fun (ex : Dataset.example) ->
      let frontier = List.map fst (QG.frontier_blocks kernel ex.Dataset.exec) in
      Alcotest.(check bool) "targets from frontier" true
        (List.for_all (fun b -> List.mem b frontier) ex.Dataset.targets);
      Alcotest.(check bool) "has targets" true (ex.Dataset.targets <> []))
    all_examples

let test_dataset_split_no_leak () =
  (* no base test may appear in two splits *)
  let key (ex : Dataset.example) = Prog.hash ex.Dataset.base in
  let of_arr a = List.sort_uniq compare (List.map key (Array.to_list a)) in
  let tr = of_arr split.Dataset.train
  and va = of_arr split.Dataset.valid
  and ev = of_arr split.Dataset.eval in
  let inter a b = List.filter (fun x -> List.mem x b) a in
  Alcotest.(check (list int)) "train/valid disjoint" [] (inter tr va);
  Alcotest.(check (list int)) "train/eval disjoint" [] (inter tr ev);
  Alcotest.(check (list int)) "valid/eval disjoint" [] (inter va ev)

let test_exact_targets_mode () =
  let cfg = { tiny_dataset_config with exact_targets = true } in
  let s = Dataset.collect ~config:cfg kernel ~bases in
  Array.iter
    (fun (ex : Dataset.example) ->
      (* with option (a), every target is genuinely new coverage *)
      Alcotest.(check bool) "targets are real new blocks" true
        (List.for_all (fun b -> List.mem b ex.Dataset.new_blocks) ex.Dataset.targets))
    s.Dataset.train

let test_unstratified_split_unchanged () =
  (* A second collect reproduces the module-level [split] exactly. *)
  let s = Dataset.collect ~config:tiny_dataset_config kernel ~bases in
  let sig_of a =
    Array.to_list a
    |> List.map (fun (ex : Dataset.example) ->
           (Prog.hash ex.Dataset.base, Array.to_list ex.Dataset.labels))
  in
  Alcotest.(check bool) "train identical" true
    (sig_of s.Dataset.train = sig_of split.Dataset.train);
  Alcotest.(check bool) "valid identical" true
    (sig_of s.Dataset.valid = sig_of split.Dataset.valid);
  Alcotest.(check bool) "eval identical" true
    (sig_of s.Dataset.eval = sig_of split.Dataset.eval)

(* ------------------------------------------------------------------ *)
(* Trainer                                                              *)
(* ------------------------------------------------------------------ *)

let test_training_beats_random () =
  let m =
    Pmm.create ~encoder_dim:(Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  let cfg = { Snowplow.Trainer.default_config with epochs = 4; log_every = 0 } in
  let _ =
    Snowplow.Trainer.train ~config:cfg m ~block_embs ~train:split.Dataset.train
      ~valid:split.Dataset.valid
  in
  let pmm_scores = Snowplow.Trainer.evaluate m ~block_embs split.Dataset.eval in
  let rand = Snowplow.Trainer.random_baseline ~k:8 ~seed:5 split.Dataset.eval in
  Alcotest.(check bool)
    (Printf.sprintf "trained F1 (%.2f) beats Rand.8 (%.2f)"
       pmm_scores.Sp_ml.Metrics.f1 rand.Sp_ml.Metrics.f1)
    true
    (pmm_scores.Sp_ml.Metrics.f1 > rand.Sp_ml.Metrics.f1 +. 0.05)

let test_striped_training_deterministic () =
  let mk () =
    Pmm.create ~encoder_dim:(Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  let run jobs =
    let m = mk () in
    let cfg =
      { Snowplow.Trainer.default_config with epochs = 2; log_every = 7; jobs }
    in
    let h =
      Snowplow.Trainer.train ~config:cfg m ~block_embs
        ~train:split.Dataset.train ~valid:split.Dataset.valid
    in
    ( h,
      Pmm.threshold m,
      List.map (fun p -> Tensor.to_array (Sp_ml.Ad.value p)) (Pmm.params m) )
  in
  let h1, t1, p1 = run 2 in
  let h2, t2, p2 = run 2 in
  Alcotest.(check bool) "histories identical" true (h1 = h2);
  Alcotest.(check bool) "threshold identical" true (Float.equal t1 t2);
  List.iter2
    (fun a b -> Alcotest.(check bool) "params identical" true (a = b))
    p1 p2;
  (* jobs=1 trains too and lands near the striped run (different float
     association, so tolerance, not equality). *)
  let _, t_seq, p_seq = run 1 in
  Alcotest.(check bool) "thresholds comparable" true
    (Float.abs (t1 -. t_seq) <= 0.25);
  List.iter2
    (fun a b ->
      Array.iteri
        (fun i v ->
          if Float.abs (v -. b.(i)) > 1e-3 *. (1.0 +. Float.abs v) then
            Alcotest.failf "striped/sequential diverged: %g vs %g" v b.(i))
        a)
    p1 p_seq

(* The one-stripe trainer reproduces the sequential trainer it replaced:
   this digest of the parameters, the calibrated threshold and the loss
   history is what the sequential loop of commit 2952697 produced on the
   same model, data and config. *)
let test_one_stripe_digest () =
  let m =
    Pmm.create ~encoder_dim:(Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  let cfg =
    { Snowplow.Trainer.default_config with epochs = 2; log_every = 7; jobs = 1 }
  in
  let history =
    Snowplow.Trainer.train ~config:cfg m ~block_embs
      ~train:split.Dataset.train ~valid:split.Dataset.valid
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Sp_ml.Serialize.params_to_string (Pmm.params m));
  Printf.bprintf b "threshold %h\n" (Pmm.threshold m);
  List.iter
    (fun (p : Snowplow.Trainer.progress) ->
      Printf.bprintf b "%d %h\n" p.Snowplow.Trainer.step p.Snowplow.Trainer.loss)
    history;
  Alcotest.(check bool) "history recorded" true (List.length history > 2);
  Alcotest.(check string) "parameters, threshold and history"
    "05bd5798600fefa23aeb1f47a7200c56"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* Inference service                                                    *)
(* ------------------------------------------------------------------ *)

let test_inference_latency_and_cache () =
  let inference = Snowplow.Inference.create ~kernel ~block_embs model in
  let prog = Gen.program (Rng.create 31) db () in
  let r = Kernel.execute kernel prog in
  let targets =
    List.filteri (fun i _ -> i < 4) (List.map fst (QG.frontier_blocks kernel r))
  in
  Alcotest.(check bool) "request accepted" true
    (Snowplow.Inference.request inference ~now:0.0 prog ~targets);
  Alcotest.(check (list (pair int int))) "not ready immediately" []
    (List.map (fun _ -> (0, 0)) (Snowplow.Inference.poll inference ~now:0.1 ()));
  let done_at_1s = Snowplow.Inference.poll inference ~now:1.0 () in
  Alcotest.(check int) "ready after latency" 1 (List.length done_at_1s);
  (* same query again: served from the cache instantly *)
  ignore (Snowplow.Inference.request inference ~now:2.0 prog ~targets);
  Alcotest.(check int) "cache answers instantly" 1
    (List.length (Snowplow.Inference.poll inference ~now:2.0 ()));
  Alcotest.(check int) "cache hit counted" 1 (Snowplow.Inference.cache_hits inference)

let test_inference_queue_capacity () =
  let inference =
    Snowplow.Inference.create ~max_pending:2 ~kernel ~block_embs model
  in
  let progs = Gen.corpus (Rng.create 33) db ~size:5 in
  let accepted =
    List.filter
      (fun prog ->
        let r = Kernel.execute kernel prog in
        match QG.frontier_blocks kernel r with
        | [] -> false
        | f ->
          Snowplow.Inference.request inference ~now:0.0 prog
            ~targets:[ fst (List.hd f) ])
      progs
  in
  Alcotest.(check bool) "queue capacity enforced" true (List.length accepted <= 2);
  Alcotest.(check bool) "drops counted" true (Snowplow.Inference.dropped inference > 0)

let test_inference_cache_hits_respect_max_pending () =
  (* Regression: the cache-hit path used to enqueue unconditionally, so a
     stream of memoized requests could grow the pending queue past its
     configured bound. *)
  let inference =
    Snowplow.Inference.create ~max_pending:2 ~kernel ~block_embs model
  in
  let prog = Gen.program (Rng.create 31) db () in
  let r = Kernel.execute kernel prog in
  let targets =
    List.filteri (fun i _ -> i < 4) (List.map fst (QG.frontier_blocks kernel r))
  in
  Alcotest.(check bool) "first request admitted" true
    (Snowplow.Inference.request inference ~now:0.0 prog ~targets);
  (* identical query: every further admission is a cache hit *)
  Alcotest.(check bool) "cache hit admitted while below bound" true
    (Snowplow.Inference.request inference ~now:0.1 prog ~targets);
  Alcotest.(check int) "queue at bound" 2 (Snowplow.Inference.pending inference);
  for _ = 1 to 10 do
    Alcotest.(check bool) "cache hit dropped at bound" false
      (Snowplow.Inference.request inference ~now:0.2 prog ~targets)
  done;
  Alcotest.(check int) "queue never exceeds max_pending" 2
    (Snowplow.Inference.pending inference);
  Alcotest.(check bool) "drops counted" true
    (Snowplow.Inference.dropped inference >= 10)

let test_inference_cache_hits_not_served () =
  (* Regression: zero-latency cache hits were folded into served /
     latency_sum, deflating the reported mean service latency. *)
  let inference = Snowplow.Inference.create ~kernel ~block_embs model in
  let prog = Gen.program (Rng.create 31) db () in
  let r = Kernel.execute kernel prog in
  let targets =
    List.filteri (fun i _ -> i < 4) (List.map fst (QG.frontier_blocks kernel r))
  in
  ignore (Snowplow.Inference.request inference ~now:0.0 prog ~targets);
  ignore (Snowplow.Inference.poll inference ~now:10.0 ());
  let latency_after_compute = Snowplow.Inference.mean_latency inference in
  Alcotest.(check bool) "computed request has real latency" true
    (latency_after_compute > 0.0);
  (* hammer the cache: delivered instantly, but the mean must not move *)
  for i = 1 to 20 do
    ignore
      (Snowplow.Inference.request inference ~now:(10.0 +. float_of_int i) prog
         ~targets);
    ignore (Snowplow.Inference.poll inference ~now:(10.0 +. float_of_int i) ())
  done;
  Alcotest.(check int) "hits counted as hits" 20
    (Snowplow.Inference.cache_hits inference);
  Alcotest.(check int) "hits not counted as served" 1
    (Snowplow.Inference.served inference);
  Alcotest.(check (float 1e-9)) "mean latency undistorted by cache hits"
    latency_after_compute
    (Snowplow.Inference.mean_latency inference)

let test_inference_cache_bounded () =
  (* Eviction: across a long virtual campaign of ever-changing queries the
     prediction caches must stay within their configured capacity. *)
  let capacity = 32 in
  let inference =
    Snowplow.Inference.create ~max_pending:1000 ~cache_capacity:capacity
      ~kernel ~block_embs model
  in
  let progs = Gen.corpus (Rng.create 91) db ~size:12 in
  let usable =
    List.filter_map
      (fun prog ->
        let r = Kernel.execute kernel prog in
        if r.Kernel.crash <> None then None
        else
          match QG.frontier_blocks kernel r with
          | f when List.length f >= 2 ->
            Some (prog, Array.of_list (List.map fst f))
          | _ -> None)
      progs
    |> List.filteri (fun i _ -> i < 3)
  in
  Alcotest.(check bool) "enough usable programs" true (List.length usable >= 2);
  (* >24 virtual hours of rotating (base, target-set) queries: each round
     picks a different pair of real frontier blocks, so distinct cache keys
     keep arriving for the whole run — far more than [capacity] *)
  let now = ref 0.0 in
  let rounds = 150 in
  let step = 90_000.0 /. float_of_int (rounds * List.length usable) in
  for round = 0 to rounds - 1 do
    List.iter
      (fun (prog, frontier) ->
        let n = Array.length frontier in
        let targets =
          [ frontier.(round mod n); frontier.(((round * 7) + 3) mod n) ]
        in
        ignore (Snowplow.Inference.request inference ~now:!now prog ~targets);
        ignore (Snowplow.Inference.poll inference ~now:!now ());
        now := !now +. step)
      usable
  done;
  Alcotest.(check bool) "ran >= 24 virtual hours" true (!now >= 86_400.0);
  Alcotest.(check bool)
    (Printf.sprintf "cache entries (%d) within capacity (%d)"
       (Snowplow.Inference.cache_size inference)
       (Snowplow.Inference.cache_capacity inference))
    true
    (Snowplow.Inference.cache_size inference
    <= Snowplow.Inference.cache_capacity inference)

(* Two distinct programs that share [Prog.hash]: they differ only in one
   string, and the two strings collide under the 24-bit string hash that
   [Prog.hash] mixes ([Value.scalar]). A birthday search over
   fixed-width names finds such a pair within a few thousand tries. *)
let hash_twins () =
  let module Value = Sp_syzlang.Value in
  let str_hash s = Value.scalar (Value.Vstr s) in
  let seen = Hashtbl.create 8192 in
  let rec search i =
    let s = Printf.sprintf "./file%06d" i in
    match Hashtbl.find_opt seen (str_hash s) with
    | Some s' -> (s', s)
    | None ->
      Hashtbl.add seen (str_hash s) s;
      search (i + 1)
  in
  let s1, s2 = search 0 in
  let is_str p (path, _) =
    match Prog.get p path with Value.Vstr _ -> true | _ -> false
  in
  let rec with_string seed =
    let p = Gen.program (Rng.create seed) db () in
    match List.find_opt (is_str p) (Prog.arg_nodes p) with
    | Some (path, _) -> (p, path)
    | None -> with_string (seed + 1)
  in
  let p, path = with_string 0 in
  let a = Prog.set p path (Value.Vstr s1) and b = Prog.set p path (Value.Vstr s2) in
  Alcotest.(check bool) "distinct programs" false (Prog.equal a b);
  Alcotest.(check int) "that share Prog.hash" (Prog.hash a) (Prog.hash b);
  (a, b)

let test_inference_hash_twins () =
  (* Both programs' answers live in the caches at once: the second is
     computed, not refused as a collision, and evicts nothing. *)
  let a, b = hash_twins () in
  let inference = Snowplow.Inference.create ~kernel ~block_embs model in
  let targets =
    List.filteri (fun i _ -> i < 4)
      (List.map fst (QG.frontier_blocks kernel (Kernel.execute kernel a)))
  in
  let ask ~now p =
    Alcotest.(check bool) "request admitted" true
      (Snowplow.Inference.request inference ~now p ~targets)
  in
  ask ~now:0.0 a;
  ask ~now:0.0 b;
  Alcotest.(check int) "both computed" 0 (Snowplow.Inference.cache_hits inference);
  Alcotest.(check int) "both answers cached in both caches" 4
    (Snowplow.Inference.cache_size inference);
  ignore (Snowplow.Inference.poll inference ~now:10.0 ());
  ask ~now:10.0 a;
  ask ~now:10.0 b;
  Alcotest.(check int) "each answered from the cache" 2
    (Snowplow.Inference.cache_hits inference)

(* ------------------------------------------------------------------ *)
(* Strategies                                                           *)
(* ------------------------------------------------------------------ *)

let test_hybrid_proposals_valid () =
  let inference = Snowplow.Inference.create ~kernel ~block_embs model in
  let strategy = Snowplow.Hybrid.strategy ~inference kernel in
  let corpus = Sp_fuzz.Corpus.create () in
  let entry prog =
    let r = Kernel.execute kernel prog in
    { Sp_fuzz.Corpus.prog; blocks = r.Kernel.covered; edges = r.Kernel.covered_edges;
      added_at = 0.0 }
  in
  List.iter
    (fun p -> ignore (Sp_fuzz.Corpus.add corpus (entry p)))
    (Gen.corpus (Rng.create 41) db ~size:8);
  let covered = Bitset.create (Kernel.num_blocks kernel) in
  let rng = Rng.create 6 in
  for i = 0 to 20 do
    let e = Sp_fuzz.Corpus.choose rng corpus in
    let props =
      strategy.Sp_fuzz.Strategy.propose rng ~now:(float_of_int i) ~covered corpus e
    in
    List.iter
      (fun (p : Sp_fuzz.Strategy.proposal) ->
        match Prog.validate p.Sp_fuzz.Strategy.prog with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid proposal: %s" e)
      props
  done

let test_hybrid_with_insertion_model () =
  (* An (untrained) insertion model plugged into the hybrid strategy must
     still yield well-formed proposals, including learned-insert ones. *)
  let inference = Snowplow.Inference.create ~kernel ~block_embs model in
  let ins = Snowplow.Insertion.create kernel in
  let strategy = Snowplow.Hybrid.strategy ~insertion:ins ~inference kernel in
  let corpus = Sp_fuzz.Corpus.create () in
  List.iter
    (fun prog ->
      let r = Kernel.execute kernel prog in
      ignore
        (Sp_fuzz.Corpus.add corpus
           { Sp_fuzz.Corpus.prog; blocks = r.Kernel.covered;
             edges = r.Kernel.covered_edges; added_at = 0.0 }))
    (Gen.corpus (Rng.create 43) db ~size:6);
  let covered = Bitset.create (Kernel.num_blocks kernel) in
  let rng = Rng.create 44 in
  let saw_learned = ref false in
  for i = 0 to 30 do
    let e = Sp_fuzz.Corpus.choose rng corpus in
    List.iter
      (fun (p : Sp_fuzz.Strategy.proposal) ->
        if p.Sp_fuzz.Strategy.origin = "learned-insert" then saw_learned := true;
        match Prog.validate p.Sp_fuzz.Strategy.prog with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "invalid proposal: %s" msg)
      (strategy.Sp_fuzz.Strategy.propose rng ~now:(float_of_int i) ~covered corpus e)
  done;
  Alcotest.(check bool) "learned insertions proposed" true !saw_learned

let test_hybrid_memo_hash_twins () =
  (* Predictions delivered for both programs stay in the memo together,
     and each guides mutation of its own base. *)
  let a, b = hash_twins () in
  let paths p = List.filteri (fun i _ -> i < 2) (List.map fst (Prog.mutable_nodes p)) in
  let delivered = ref [ (Prog.fingerprint a, paths a); (Prog.fingerprint b, paths b) ] in
  let endpoint =
    { Snowplow.Inference.ep_request = (fun ~now:_ _ ~targets:_ -> false);
      ep_poll =
        (fun ~now:_ ->
          let d = !delivered in
          delivered := [];
          d) }
  in
  let predictions = Snowplow.Hybrid.make_predictions () in
  let strategy =
    Snowplow.Hybrid.strategy_with ~mutations_per_base:64 ~predictions ~endpoint kernel
  in
  let corpus = Sp_fuzz.Corpus.create () in
  let covered = Bitset.create (Kernel.num_blocks kernel) in
  let rng = Rng.create 8 in
  let guided prog =
    let r = Kernel.execute kernel prog in
    let entry =
      { Sp_fuzz.Corpus.prog; blocks = r.Kernel.covered;
        edges = r.Kernel.covered_edges; added_at = 0.0 }
    in
    List.exists
      (fun (p : Sp_fuzz.Strategy.proposal) -> p.Sp_fuzz.Strategy.origin = "pmm-arg")
      (strategy.Sp_fuzz.Strategy.propose rng ~now:0.0 ~covered corpus entry)
  in
  Alcotest.(check bool) "the first program's prediction guides it" true (guided a);
  Alcotest.(check bool) "its hash twin's prediction guides it" true (guided b);
  match Snowplow.Hybrid.predictions_json predictions with
  | Sp_obs.Json.Arr entries ->
    Alcotest.(check int) "the memo holds both" 2 (List.length entries)
  | _ -> Alcotest.fail "memo dump is not an array"

let test_directed_targets_move_towards () =
  let target = Kernel.handler_exit kernel 3 in
  let dist = Sp_cfg.Cfg.distances_to (Kernel.cfg kernel) target in
  let prog = Gen.program (Rng.create 51) db () in
  let r = Kernel.execute kernel prog in
  let entry =
    { Sp_fuzz.Corpus.prog; blocks = r.Kernel.covered; edges = r.Kernel.covered_edges;
      added_at = 0.0 }
  in
  let covered = Bitset.create (Kernel.num_blocks kernel) in
  let picked =
    Snowplow.Directed.pick_targets_towards (Rng.create 1) kernel ~covered ~dist entry
      ~max_targets:8
  in
  (* all picked targets are frontier entries with finite distance *)
  let frontier = List.map fst (QG.frontier_blocks kernel r) in
  Alcotest.(check bool) "picked from frontier, finite distance" true
    (List.for_all (fun b -> List.mem b frontier && dist.(b) < max_int) picked)

(* ------------------------------------------------------------------ *)
(* Persistence                                                          *)
(* ------------------------------------------------------------------ *)

let test_pmm_save_load () =
  let path = Filename.temp_file "pmm" ".weights" in
  Pmm.set_threshold model 0.61;
  Pmm.save model path;
  let fresh =
    Pmm.create ~encoder_dim:(Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  (match Pmm.load fresh path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path;
  Alcotest.(check (float 1e-9)) "threshold restored" 0.61 (Pmm.threshold fresh);
  (* identical predictions after the round trip *)
  let _, _, g = sample_graph 77 in
  let p = Pmm.prepare g in
  let a = Pmm.infer_logits model ~block_embs p in
  let b = Pmm.infer_logits fresh ~block_embs p in
  let rows, _ = Tensor.dims a in
  for i = 0 to rows - 1 do
    Alcotest.(check (float 1e-12)) "same logit" (Tensor.get a i 0) (Tensor.get b i 0)
  done;
  Pmm.set_threshold model 0.5

(* ------------------------------------------------------------------ *)
(* Insertion extension (sec. 6)                                         *)
(* ------------------------------------------------------------------ *)

let test_insertion_learns () =
  let bases = Gen.corpus (Rng.create 71) db ~size:30 in
  (* coverage context: what a short campaign would already have seen *)
  let covered = Bitset.create (Kernel.num_blocks kernel) in
  List.iter
    (fun p ->
      let r = Kernel.execute kernel p in
      if r.Kernel.crash = None then
        ignore (Bitset.union_into ~dst:covered r.Kernel.covered))
    (Gen.corpus (Rng.create 99) db ~size:120);
  let examples = Snowplow.Insertion.collect_examples ~seed:72 ~covered kernel ~bases in
  Alcotest.(check bool) "collected insertion examples" true
    (List.length examples > 30);
  let n = List.length examples in
  let train_ex = List.filteri (fun i _ -> i < n * 8 / 10) examples in
  let eval_ex = List.filteri (fun i _ -> i >= n * 8 / 10) examples in
  let m = Snowplow.Insertion.create kernel in
  let losses = Snowplow.Insertion.train m ~covered train_ex in
  (match (losses, List.rev losses) with
  | first :: _, last :: _ ->
    Alcotest.(check bool) "loss decreased" true (last < first)
  | _ -> Alcotest.fail "no training happened");
  let acc = Snowplow.Insertion.accuracy m ~covered eval_ex ~k:3 in
  let uniform = 3.0 /. float_of_int (Sp_syzlang.Spec.count db) in
  Alcotest.(check bool)
    (Printf.sprintf "top-3 accuracy (%.2f) beats uniform (%.2f)" acc uniform)
    true (acc > uniform)

let test_insertion_scores_normalized () =
  let m = Snowplow.Insertion.create kernel in
  let covered = Bitset.create (Kernel.num_blocks kernel) in
  let prog = Gen.program (Rng.create 73) db () in
  let s = Snowplow.Insertion.scores m ~covered prog in
  let total = Array.fold_left ( +. ) 0.0 s in
  Alcotest.(check (float 1e-6)) "softmax sums to 1" 1.0 total;
  Alcotest.(check int) "one score per syscall" (Sp_syzlang.Spec.count db)
    (Array.length s)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "snowplow"
    [
      qsuite "query-graph-props"
        [
          prop_graph_edges_in_range;
          prop_graph_arg_nodes_match_prog;
          prop_graph_targets_marked;
          prop_graph_frontier_edges;
        ];
      ( "query-graph",
        [
          Alcotest.test_case "drop edges" `Quick test_graph_drop_edges;
          Alcotest.test_case "stats consistent" `Quick test_graph_stats_keys;
        ] );
      qsuite "pmm-props"
        [
          prop_fast_inference_matches_autodiff;
          prop_logits_aligned_with_paths;
          prop_predict_mutable_paths;
        ];
      ( "pmm",
        [ Alcotest.test_case "threshold" `Quick test_threshold_roundtrip ] );
      ( "encoder",
        [
          Alcotest.test_case "shapes" `Quick test_encoder_shapes;
          Alcotest.test_case "batched embed bit-identical" `Quick
            test_embed_kernel_bit_identical;
          Alcotest.test_case "masked LM learns" `Slow test_encoder_learns;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "nonempty" `Quick test_dataset_nonempty;
          Alcotest.test_case "labels aligned" `Quick test_dataset_labels_aligned;
          Alcotest.test_case "targets from frontier" `Quick test_dataset_targets_are_frontier;
          Alcotest.test_case "split no leak" `Quick test_dataset_split_no_leak;
          Alcotest.test_case "exact targets mode" `Quick test_exact_targets_mode;
          Alcotest.test_case "unstratified split unchanged" `Quick
            test_unstratified_split_unchanged;
        ] );
      ( "trainer",
        [
          Alcotest.test_case "training beats random" `Slow test_training_beats_random;
          Alcotest.test_case "striped training deterministic" `Slow
            test_striped_training_deterministic;
          Alcotest.test_case "one stripe matches the sequential digest" `Slow
            test_one_stripe_digest;
        ] );
      ( "inference",
        [
          Alcotest.test_case "latency and cache" `Quick test_inference_latency_and_cache;
          Alcotest.test_case "queue capacity" `Quick test_inference_queue_capacity;
          Alcotest.test_case "cache hits respect max_pending" `Quick
            test_inference_cache_hits_respect_max_pending;
          Alcotest.test_case "cache hits excluded from latency" `Quick
            test_inference_cache_hits_not_served;
          Alcotest.test_case "caches bounded over long campaign" `Quick
            test_inference_cache_bounded;
          Alcotest.test_case "hash twins cached apart" `Quick
            test_inference_hash_twins;
        ] );
      ( "persistence",
        [ Alcotest.test_case "save/load" `Quick test_pmm_save_load ] );
      ( "insertion",
        [
          Alcotest.test_case "scores normalized" `Quick test_insertion_scores_normalized;
          Alcotest.test_case "learns which call to insert" `Slow test_insertion_learns;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "hybrid proposals valid" `Quick test_hybrid_proposals_valid;
          Alcotest.test_case "hybrid with insertion model" `Quick
            test_hybrid_with_insertion_model;
          Alcotest.test_case "directed target picking" `Quick test_directed_targets_move_towards;
          Alcotest.test_case "hash twins memoized apart" `Quick
            test_hybrid_memo_hash_twins;
        ] );
    ]
