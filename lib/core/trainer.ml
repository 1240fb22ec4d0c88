module Rng = Sp_util.Rng
module Pool = Sp_util.Pool
module Prog = Sp_syzlang.Prog
module Ad = Sp_ml.Ad
module Optim = Sp_ml.Optim
module Metrics = Sp_ml.Metrics
module Tensor = Sp_ml.Tensor
module Workspace = Sp_ml.Workspace
module Tracer = Sp_obs.Tracer

type config = {
  epochs : int;
  lr : float;
  batch : int;
  seed : int;
  log_every : int;
  jobs : int;
}

let default_config =
  { epochs = 8; lr = 3e-3; batch = 8; seed = 31; log_every = 400; jobs = 1 }

type progress = { step : int; loss : float }

let path_compare (a : Prog.path) (b : Prog.path) = Prog.path_compare a b

let score_example model ~block_embs (ex : Dataset.example) =
  let predicted = Pmm.predict model ~block_embs ex.Dataset.graph in
  Metrics.score ~compare:path_compare ~pred:predicted ~gold:ex.Dataset.mutated_args

let evaluate model ~block_embs examples =
  Metrics.mean (Array.to_list (Array.map (score_example model ~block_embs) examples))

let calibrate_threshold model ~block_embs examples =
  let candidates = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  let best = ref (Pmm.threshold model) and best_f1 = ref neg_infinity in
  List.iter
    (fun th ->
      Pmm.set_threshold model th;
      let scores = evaluate model ~block_embs examples in
      if scores.Metrics.f1 > !best_f1 then begin
        best_f1 := scores.Metrics.f1;
        best := th
      end)
    candidates;
  Pmm.set_threshold model !best;
  !best

(* History/throughput bookkeeping on the main domain. *)
type progress_state = {
  mutable step : int;
  mutable running_loss : float;
  mutable running_n : int;
  mutable history : progress list;
  mutable last_step_at : float;
}

let fresh_progress () =
  { step = 0; running_loss = 0.0; running_n = 0; history = [];
    last_step_at = Unix.gettimeofday () }

(* One eligible example's loss has been observed: advance the step
   counter and emit a history record at [log_every] boundaries. Losses
   are replayed in batch order after each barrier, so the cadence does
   not depend on [jobs]. *)
let observe_loss st ~config ~tracer loss_value =
  st.step <- st.step + 1;
  st.running_loss <- st.running_loss +. loss_value;
  st.running_n <- st.running_n + 1;
  if config.log_every > 0 && st.step mod config.log_every = 0 then begin
    let mean = st.running_loss /. float_of_int st.running_n in
    st.history <- { step = st.step; loss = mean } :: st.history;
    Tracer.counter tracer "trainer.loss" mean;
    st.running_loss <- 0.0;
    st.running_n <- 0
  end

let note_step_rate st ~tracer samples =
  let now = Unix.gettimeofday () in
  let dt = now -. st.last_step_at in
  if dt > 0.0 then
    Tracer.counter tracer "trainer.samples_per_s" (float_of_int samples /. dt);
  st.last_step_at <- now

(* Runs the stripes and returns their results in stripe order: with
   [helpers], stripe 0 on the calling domain (which would otherwise wait
   at the barrier) and the others as tasks on the pool; without, every
   stripe on the calling domain. The first failure re-raises; stripes
   still queued are drained by the pool's shutdown. *)
let run_stripes helpers stripes =
  match (helpers, stripes) with
  | Some pool, first :: rest ->
    let handles = List.map (Pool.submit pool) rest in
    let r = first () in
    r
    :: List.map
         (fun h -> match Pool.await h with Ok a -> a | Error e -> raise e)
         handles
  | _ -> List.map (fun stripe -> stripe ()) stripes

(* Minibatch striping: each mini-batch's eligible examples are split into
   [jobs] contiguous stripes, each stripe builds tapes and accumulates
   gradients into a [Pmm.clone_shared] view (shared parameter values,
   private gradient slots, private workspace), stripe 0 on the calling
   domain and the others on a pool of [jobs - 1] workers, and the calling
   domain reduces the per-stripe gradients in stripe order before one
   Adam step.

   Deterministic for a fixed (seed, jobs): stripes are reduced in stripe
   order and each stripe accumulates its examples in batch order. With
   [jobs = 1] the one stripe accumulates the whole batch in batch order
   and [Ad.accum] copies that sum into the model's cleared gradient slot,
   so the result equals accumulating into the model directly; it runs on
   the calling domain and starts no pool. (A fresh pool domain allocates
   the stripe's tape buffers from its own malloc arena, so training runs
   one after another could strand one run's buffers, about 450 MB for the
   benchmark's PMM, beside the next run's.) Across job counts the
   floating-point association differs (stripe subtotals are summed, not
   one long chain). *)
let train ?(config = default_config) ?(tracer = Tracer.null)
    ?(tracer_for = fun _ -> Tracer.null) model ~block_embs ~train:train_exs
    ~valid =
  let jobs = config.jobs in
  if jobs < 1 then invalid_arg "Trainer.train: jobs must be >= 1";
  let rng = Rng.create config.seed in
  let optim = Optim.adam ~lr:config.lr (Pmm.params model) in
  let primary_params = Pmm.params model in
  let clones = Array.init jobs (fun _ -> Pmm.clone_shared model) in
  let clone_params = Array.map Pmm.params clones in
  (* Per-stripe tracers, not per-worker: a stripe runs exactly once per
     barrier interval, so each stripe tracer has a single writer at any
     instant (hand-offs are ordered by the barrier). *)
  let stripe_tracers = Array.init jobs tracer_for in
  let st = fresh_progress () in
  let pending = ref [] and n_pending = ref 0 in
  let helpers =
    if jobs > 1 then Some (Pool.create ~workers:(jobs - 1) ()) else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown helpers)
    (fun () ->
      let flush () =
        if !n_pending > 0 then begin
          let batch = Array.of_list (List.rev !pending) in
          pending := [];
          n_pending := 0;
          let n = Array.length batch in
          let tasks =
            List.init jobs (fun s ->
                let start = n * s / jobs in
                let stop = n * (s + 1) / jobs in
                let clone = clones.(s) in
                let stracer = stripe_tracers.(s) in
                fun () ->
                  Tracer.span stracer "trainer.stripe" (fun () ->
                      Workspace.with_active (Pmm.workspace clone) (fun () ->
                          Array.init (stop - start) (fun k ->
                              let ex = batch.(start + k) in
                              let loss =
                                Pmm.loss clone ~block_embs ex.Dataset.prepared
                                  ~labels:ex.Dataset.labels
                              in
                              Ad.backward loss;
                              Tensor.get (Ad.value loss) 0 0))))
          in
          let losses = run_stripes helpers tasks in
          (* Reduce in stripe order, then zero the clone's slots so the
             next generation starts clean; the clones' workspaces are
             only recycled after their gradients have been consumed. *)
          Array.iter
            (fun cps ->
              List.iter2
                (fun p cp ->
                  (match Ad.grad_opt cp with
                  | Some g -> Ad.accum p g
                  | None -> ());
                  Ad.zero_grad cp)
                primary_params cps)
            clone_params;
          Optim.step optim;
          Optim.zero_grad optim;
          Array.iter (fun c -> Workspace.tick (Pmm.workspace c)) clones;
          note_step_rate st ~tracer n;
          List.iter
            (fun stripe_losses ->
              Array.iter
                (fun l -> observe_loss st ~config ~tracer l)
                stripe_losses)
            losses
        end
      in
      for _epoch = 1 to config.epochs do
        Tracer.span tracer "trainer.epoch" (fun () ->
            let order = Array.init (Array.length train_exs) Fun.id in
            Rng.shuffle rng order;
            Array.iter
              (fun i ->
                let ex = train_exs.(i) in
                if Array.length ex.Dataset.labels > 0 then begin
                  pending := ex :: !pending;
                  incr n_pending;
                  if !n_pending >= config.batch then flush ()
                end)
              order)
      done;
      (* The leftover partial batch after all epochs takes one more
         step. *)
      flush ());
  if Array.length valid > 0 then ignore (calibrate_threshold model ~block_embs valid);
  List.rev st.history

let random_baseline ~k ~seed examples =
  let rng = Rng.create seed in
  let scores =
    Array.to_list examples
    |> List.map (fun (ex : Dataset.example) ->
           let nodes = Prog.mutable_nodes ex.Dataset.base in
           let pred =
             Rng.sample rng (Array.of_list (List.map fst nodes)) k
           in
           Metrics.score ~compare:path_compare ~pred ~gold:ex.Dataset.mutated_args)
  in
  Metrics.mean scores
