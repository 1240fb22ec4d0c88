(* E13: the Bigarray tensor core — batched/striped training throughput
   and steady-state allocation, against the boxed float-array reference
   core (Oracle.Ml_reference, the pre-optimization implementation kept as a
   differential oracle).

   The controlled comparison is a 2-layer MLP trained with MSE + Adam on
   synthetic data, identical math on both sides:
   - reference: per-sample loops, every operation allocating
     (Reference.Mlp — how the core executed before this optimization);
   - dense: whole-batch matrix ops into preallocated buffers
     (Dense.train_step, ~0 minor words per steady-state step);
   - striped: the same batch sharded into contiguous row stripes on
     Sp_util.Pool domains (Dense.train_step_striped).

   Two modes, like E11:
   - full (default): long loops, the >=3x training-throughput bar of the
     acceptance criterion, plus informational numbers from the real PMM
     path (striped Trainer samples/s, inference batch latency).
   - quick (SNOWPLOW_QUICK, from @ci): short loops, a wide 1.1x sanity
     bar so a loaded CI box cannot flake it; equivalence and the
     words/step assertion are deterministic and hold in both modes. *)

module Rng = Sp_util.Rng
module Pool = Sp_util.Pool
module Table = Sp_util.Table
module Tensor = Sp_ml.Tensor
module Reference = Oracle.Ml_reference
module Dense = Sp_ml.Dense

let quick = Sys.getenv_opt "SNOWPLOW_QUICK" <> None

let failures = ref 0

let bar name ok detail =
  Exp_common.log "%s: %s — %s" name detail (if ok then "PASSES" else "FAILS");
  if not ok then incr failures

type measurement = { samples_per_s : float; words_per_step : float }

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Throughput loop (no per-step clock), then an allocation loop. [rows]
   samples are consumed per step. *)
let measure ~iters ~rows step =
  for _ = 1 to iters / 10 do
    step ()
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    step ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let w0 = Gc.minor_words () in
  let alloc_iters = min iters 2000 in
  for _ = 1 to alloc_iters do
    step ()
  done;
  let w1 = Gc.minor_words () in
  {
    samples_per_s = float_of_int (iters * rows) /. wall;
    words_per_step = (w1 -. w0) /. float_of_int alloc_iters;
  }

(* Informational: the real PMM path — striped Trainer throughput and the
   tape-free inference latency — on a reduced end-to-end pipeline. Quick
   mode shrinks it further but emits the same key set, so bench-diff can
   compare a fresh quick run against the committed full trajectory. *)
let pmm_numbers () =
  let kernel = Sp_kernel.Kernel.linux_like ~seed:7 ~version:"6.8" in
  let enc =
    Snowplow.Encoder.pretrain
      ~config:
        { Snowplow.Encoder.default_config with
          steps = (if quick then 150 else 400) }
      kernel
  in
  let embs = Snowplow.Encoder.embed_kernel enc kernel in
  let bases =
    Sp_syzlang.Gen.corpus (Rng.create 3) (Sp_kernel.Kernel.spec_db kernel)
      ~size:(if quick then 12 else 30)
  in
  let split = Snowplow.Dataset.collect kernel ~bases in
  let eligible =
    Array.of_list
      (List.filter
         (fun (ex : Snowplow.Dataset.example) -> Array.length ex.labels > 0)
         (Array.to_list split.Snowplow.Dataset.train))
  in
  let n_train = Array.length eligible in
  let train_rate jobs =
    let model =
      Snowplow.Pmm.create ~encoder_dim:(Snowplow.Encoder.dim enc)
        ~num_syscalls:(Sp_syzlang.Spec.count (Sp_kernel.Kernel.spec_db kernel))
        ()
    in
    let epochs = if quick then 2 else 3 in
    let cfg =
      { Snowplow.Trainer.default_config with epochs; log_every = 0; jobs }
    in
    let t0 = Unix.gettimeofday () in
    ignore
      (Snowplow.Trainer.train ~config:cfg model ~block_embs:embs
         ~train:split.Snowplow.Dataset.train ~valid:[||]);
    let wall = Unix.gettimeofday () -. t0 in
    (model, float_of_int (epochs * n_train) /. wall)
  in
  let model, rate_j1 = train_rate 1 in
  let _, rate_j2 = train_rate 2 in
  (* Inference batch latency: predict_scores (prepare + tape-free
     forward in one workspace generation) per eval example. *)
  let evals =
    if Array.length split.Snowplow.Dataset.eval > 0 then
      split.Snowplow.Dataset.eval
    else split.Snowplow.Dataset.train
  in
  let samples = if quick then 100 else 400 in
  let lat = Array.make samples 0.0 in
  for i = 0 to samples - 1 do
    let ex = evals.(i mod Array.length evals) in
    let s0 = Unix.gettimeofday () in
    ignore
      (Snowplow.Pmm.predict_scores model ~block_embs:embs
         ex.Snowplow.Dataset.graph);
    lat.(i) <- (Unix.gettimeofday () -. s0) *. 1e6
  done;
  Array.sort compare lat;
  (rate_j1, rate_j2, percentile lat 0.50, percentile lat 0.99)

let run () =
  Exp_common.section
    (if quick then "E13 — ML tensor core (quick smoke)"
     else "E13 — ML tensor core: batch striping vs reference");
  let d_in = 32 and hidden = 64 and d_out = 16 in
  let rows = if quick then 32 else 64 in
  let jobs = if quick then 2 else 4 in
  let lr = 1e-3 in
  (* Identical synthetic data on both cores. *)
  let rng = Rng.create 99 in
  let xs = Array.init (rows * d_in) (fun _ -> Rng.gaussian rng) in
  let ts = Array.init (rows * d_out) (fun _ -> Rng.gaussian rng) in
  let x_ref = Reference.of_array ~rows ~cols:d_in (Array.copy xs)
  and t_ref = Reference.of_array ~rows ~cols:d_out (Array.copy ts)
  and x = Tensor.of_array ~rows ~cols:d_in xs
  and target = Tensor.of_array ~rows ~cols:d_out ts in
  (* Equivalence first: same seed, same draws, K steps each — the
     batched kernels must reproduce the per-sample math. *)
  let mlp_ref = Reference.Mlp.create (Rng.create 7) ~d_in ~hidden ~d_out ~lr in
  let dense = Dense.create (Rng.create 7) ~d_in ~hidden ~d_out ~lr in
  let p = Dense.plan dense ~rows in
  let max_diff = ref 0.0 in
  for _ = 1 to 50 do
    let l_ref = Reference.Mlp.train_step mlp_ref ~x:x_ref ~target:t_ref in
    let l_dense = Dense.train_step dense p ~x ~target in
    max_diff := Float.max !max_diff (Float.abs (l_ref -. l_dense))
  done;
  List.iter2
    (fun (rp : Reference.t) dp ->
      let da = Tensor.to_array dp in
      Array.iteri
        (fun i v -> max_diff := Float.max !max_diff (Float.abs (v -. rp.Reference.data.(i))))
        da)
    (Reference.Mlp.params mlp_ref)
    (Dense.params dense);
  bar "equivalence (dense == reference after 50 steps)" (!max_diff <= 1e-9)
    (Printf.sprintf "max |diff| = %.3g over losses and all parameters" !max_diff);
  (* Throughput + allocation. Fresh models so Adam state starts equal. *)
  let iters = if quick then 400 else 4_000 in
  let mlp_ref = Reference.Mlp.create (Rng.create 7) ~d_in ~hidden ~d_out ~lr in
  let m_ref =
    measure ~iters:(max 1 (iters / 8)) ~rows (fun () ->
        ignore (Reference.Mlp.train_step mlp_ref ~x:x_ref ~target:t_ref))
  in
  let dense = Dense.create (Rng.create 7) ~d_in ~hidden ~d_out ~lr in
  let p = Dense.plan dense ~rows in
  let m_dense =
    measure ~iters ~rows (fun () -> ignore (Dense.train_step dense p ~x ~target))
  in
  let striped = Dense.create (Rng.create 7) ~d_in ~hidden ~d_out ~lr in
  let plans = Dense.stripe_plans striped ~rows ~jobs in
  let m_striped =
    Pool.with_pool ~workers:jobs (fun pool ->
        measure ~iters ~rows (fun () ->
            ignore (Dense.train_step_striped striped pool plans ~x ~target)))
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "MLP training (%dx%dx%d, batch %d)" d_in hidden d_out
           rows)
      ~header:[ "core"; "samples/s"; "minor words/step"; "speedup" ]
      ()
  in
  let row name (m : measurement) =
    Table.add_row t
      [ name;
        Printf.sprintf "%.0f" m.samples_per_s;
        Printf.sprintf "%.1f" m.words_per_step;
        Printf.sprintf "%.2fx" (m.samples_per_s /. m_ref.samples_per_s) ]
  in
  row "reference (per-sample, boxed)" m_ref;
  row "dense (batched, preallocated)" m_dense;
  row (Printf.sprintf "striped (%d domains)" jobs) m_striped;
  Table.print t;
  (let ts = Sp_obs.Timeseries.create () in
   List.iteri
     (fun i (m : measurement) ->
       Sp_obs.Timeseries.sample ts ~time:(float_of_int i)
         [
           ("samples_per_s", m.samples_per_s);
           ("words_per_step", m.words_per_step);
         ])
     [ m_ref; m_dense; m_striped ];
   Exp_common.emit_timeseries "e13-ml" (Some ts));
  (* The real PMM path, informational — a reduced retrained pipeline
     (further reduced in quick mode; the emitted key set is identical
     either way, which the bench-diff gate depends on). *)
  let pmm_fields =
    Exp_common.log "measuring the real PMM train/inference path...";
    let rate_j1, rate_j2, p50, p99 = pmm_numbers () in
    Exp_common.log
      "PMM trainer: %.1f samples/s (jobs=1), %.1f samples/s (jobs=2) — %d \
       core(s) available; with one core, striping only adds overhead and \
       determinism is what the gate checks"
      rate_j1 rate_j2
      (Domain.recommended_domain_count ());
    Exp_common.log "PMM inference (predict_scores): p50 %.0f us, p99 %.0f us"
      p50 p99;
    [ ("pmm_train_samples_per_s_j1", rate_j1);
      ("pmm_train_samples_per_s_j2", rate_j2);
      ("pmm_infer_p50_us", p50);
      ("pmm_infer_p99_us", p99) ]
  in
  Exp_common.emit_bench "E13"
    ([ ("ref_samples_per_s", m_ref.samples_per_s);
       ("dense_samples_per_s", m_dense.samples_per_s);
       ("striped_samples_per_s", m_striped.samples_per_s);
       ("striped_jobs", float_of_int jobs);
       ("dense_words_per_step", m_dense.words_per_step);
       ("speedup_vs_reference", m_dense.samples_per_s /. m_ref.samples_per_s)
     ]
    @ pmm_fields);
  let speedup = m_dense.samples_per_s /. m_ref.samples_per_s in
  bar "steady-state allocation"
    (m_dense.words_per_step <= 64.0)
    (Printf.sprintf "%.1f minor words/step on the dense path (bound 64)"
       m_dense.words_per_step);
  if quick then
    (* Sanity bar only: quick-mode loops are short enough that scheduler
       noise on a loaded 1-core CI host skews the ratio (observed 1.48x
       under a full concurrent @ci build vs 3.5x uncontended). The real
       perf-rot gate is the 3x floor on the committed full-scale
       baseline, enforced by bench-diff. *)
    bar "training throughput (quick)" (speedup >= 1.1)
      (Printf.sprintf "dense %.2fx reference (quick sanity bar 1.1x)" speedup)
  else
    bar "training throughput" (speedup >= 3.0)
      (Printf.sprintf "dense %.2fx reference (bar 3x)" speedup);
  if !failures > 0 then begin
    Exp_common.log "e13: %d bar(s) FAILED" !failures;
    exit 1
  end
