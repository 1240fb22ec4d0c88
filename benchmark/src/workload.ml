(* The four workloads, their set-up, and one campaign of each, driven
   through Sp_fuzz.Scheduler exactly as the CLI's serve command drives a
   roster. *)

module J = Sp_obs.Json
module Kernel = Sp_kernel.Kernel
module Prog = Sp_syzlang.Prog
module Campaign = Sp_fuzz.Campaign
module Scheduler = Sp_fuzz.Scheduler
module Snapshot = Sp_fuzz.Snapshot
module Strategy = Sp_fuzz.Strategy
module Pipeline = Snowplow.Pipeline
module Funnel = Snowplow.Funnel
module Inference = Snowplow.Inference

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

type system = Syzkaller | Snowplow

type tenant = {
  name : string;
  system : system;
  jobs : int;
  hours : float;
  weight : float;
  budget : int option;
}

(* Why each workload exists is recorded in BENCHMARK.json and
   benchmark/README.md. *)
type t = {
  name : string;
  tenants : tenant list;
  snapshots : bool;  (** a snapshot per tenant at every barrier *)
  campaign_s : float;
      (** wall seconds of one campaign on the reference host (README),
          which turns a run length into a fixed campaign count *)
}

let tenant ?(jobs = 1) ?(weight = 1.0) ?budget name system hours =
  { name; system; jobs; hours; weight; budget }

(* Campaigns are short because a run measures many of them: on a shared
   host the wall time of one campaign varies with a coefficient of
   variation of 12-17%, on the same inputs too, and only the median over
   many campaigns repeats from run to run. Each campaign has its own inputs, so a run also covers
   many seed corpora. Every tenant but the budget-capped one sees at
   least two of serve's barriers; syz-solo and snowplow-solo differ only
   in the strategy. *)
let all =
  [ { name = "syz-solo";
      tenants = [ tenant "solo" Syzkaller 1.0 ];
      snapshots = false;
      campaign_s = 0.5 };
    { name = "syz-sharded";
      tenants = [ tenant ~jobs:2 "sharded" Syzkaller 0.5 ];
      snapshots = false;
      campaign_s = 0.7 };
    { name = "snowplow-solo";
      tenants = [ tenant "solo" Snowplow 1.0 ];
      snapshots = false;
      campaign_s = 0.9 };
    { name = "roster-durable";
      tenants =
        [ tenant ~jobs:2 ~weight:2.0 "a" Syzkaller 0.25;
          tenant ~budget:2000 "b" Syzkaller 0.5;
          tenant "s0" Snowplow 0.25;
          tenant "s1" Snowplow 0.25 ];
      snapshots = true;
      campaign_s = 3.4 }
  ]

let find name = List.find_opt (fun (w : t) -> w.name = name) all

let uses_pmm w = List.exists (fun tn -> tn.system = Snowplow) w.tenants

(* How many campaigns a run of [seconds] measures: a count, not a
   deadline, so that the same seed always measures the same work and a
   faster program finishes it sooner. At least one. *)
let campaigns w ~seconds = max 1 (Float.to_int (Float.round (seconds /. w.campaign_s)))

(* serve's barrier grid (bin/snowplow_cli.ml): twelve barriers per
   campaign, but never closer than ten virtual minutes. *)
let snapshot_every (tn : tenant) = Float.max 600.0 (tn.hours *. 3600.0 /. 12.0)

(* Every seed of a run derives from the one --seed: campaign [index]'s
   tenant [i] gets its own campaign seed, and from it its seed corpus and
   VM seeds, as serve derives them from a roster's run_seed. *)
let tenant_seed ~seed ~index i = ((((seed * 100_000) + index) * 16) + i)

(* The kernel is fixed: the CLI's default. *)
let make_kernel () = Kernel.linux_like ~seed:7 ~version:"6.8"

(* One campaign's inputs: each tenant's launch config, seed corpus
   included (100 programs, serve's default). *)
let campaign_configs w db ~seed ~index =
  List.mapi
    (fun i tn ->
      let seed = tenant_seed ~seed ~index i in
      {
        Campaign.default_config with
        seed_corpus = Sp_syzlang.Gen.corpus (Sp_util.Rng.create (seed lxor 0x5eed)) db ~size:100;
        seed;
        duration = tn.hours *. 3600.0;
        snapshot_every = snapshot_every tn;
        attempt_repro = true;
      })
    w.tenants

(* About a tenth of the CLI's SNOWPLOW_QUICK training (fewer bases,
   pretraining steps and epochs), so that three set-ups fit in one run.
   The model keeps the default shape, so a prediction costs what it costs
   in serve. Kept here so that changing the CLI cannot change the
   benchmark. *)
let pmm_config =
  {
    Pipeline.default_config with
    kernel_seed = 19;
    gen_bases = 12;
    corpus_bases = 12;
    warmup_duration = 600.0;
    dataset = { Snowplow.Dataset.default_config with mutations_per_base = 100 };
    encoder = { Snowplow.Encoder.default_config with steps = 200 };
    trainer = { Snowplow.Trainer.default_config with epochs = 1; log_every = 0 };
  }

type env = {
  kernel : Kernel.t;
  pipeline : Pipeline.t option;
  inputs : Campaign.config list array;  (** per campaign index, per tenant *)
}

type setup_times = {
  total_s : float;
  generate_s : float;  (** Kernel.linux_like *)
  corpus_s : float;  (** every campaign's seed corpora *)
  train_s : float;  (** Pipeline.train; 0 without PMM *)
  samples : int;  (** training examples presented over all epochs *)
}

(* What serve does before its first slice: generate the kernel and the
   seed corpora and, for snowplow tenants, train the PMM and start its
   inference service. *)
let setup ?(tracer = Sp_obs.Tracer.null) w ~seed ~campaigns =
  let t0 = now_ns () in
  let kernel = make_kernel () in
  let generate_s = seconds_since t0 in
  let t1 = now_ns () in
  let db = Kernel.spec_db kernel in
  let inputs = Array.init campaigns (fun index -> campaign_configs w db ~seed ~index) in
  let corpus_s = seconds_since t1 in
  let pipeline, train_s, samples =
    if not (uses_pmm w) then (None, 0.0, 0)
    else begin
      let t = now_ns () in
      let p = Pipeline.train ~config:pmm_config ~tracer () in
      let train_s = seconds_since t in
      ignore (Pipeline.inference_for p kernel);
      let split = p.Pipeline.split in
      let eligible =
        Array.fold_left
          (fun acc (ex : Snowplow.Dataset.example) ->
            if Array.length ex.Snowplow.Dataset.labels > 0 then acc + 1 else acc)
          0 split.Snowplow.Dataset.train
      in
      (* serve keeps only the inference service; the training data is
         dropped here too, so campaigns do not carry it in their heap. *)
      let empty = { Snowplow.Dataset.train = [||]; valid = [||]; eval = [||] } in
      ( Some { p with Pipeline.bases = []; split = empty; history = [] },
        train_s,
        eligible * pmm_config.Pipeline.trainer.Snowplow.Trainer.epochs )
    end
  in
  ( { kernel; pipeline; inputs },
    { total_s = seconds_since t0; generate_s; corpus_s; train_s; samples } )

(* Per-shard accumulators around Strategy.propose, written only by the
   domain running the shard's epoch and read after the campaign. *)
type shard_probe = {
  mutable calls : int;
  mutable proposals : int;
  mutable propose_ns : int64;
  mutable durs_us : float array;  (** per call, first [calls] slots *)
  mutable sampled : Prog.t list;  (** every 64th proposal *)
}

let new_shard_probe () =
  { calls = 0; proposals = 0; propose_ns = 0L; durs_us = Array.make 4096 0.0; sampled = [] }

let probed sp (s : Strategy.t) =
  let propose rng ~now ~covered corpus entry =
    let t0 = now_ns () in
    let out = s.Strategy.propose rng ~now ~covered corpus entry in
    let dt = Int64.sub (now_ns ()) t0 in
    if sp.calls = Array.length sp.durs_us then begin
      let grown = Array.make (2 * sp.calls) 0.0 in
      Array.blit sp.durs_us 0 grown 0 sp.calls;
      sp.durs_us <- grown
    end;
    sp.durs_us.(sp.calls) <- Int64.to_float dt /. 1e3;
    sp.calls <- sp.calls + 1;
    sp.propose_ns <- Int64.add sp.propose_ns dt;
    List.iter
      (fun (p : Strategy.proposal) ->
        sp.proposals <- sp.proposals + 1;
        if sp.proposals mod 64 = 0 then sp.sampled <- p.Strategy.prog :: sp.sampled)
      out;
    out
  in
  { s with Strategy.propose }

(* What the benchmark keeps of one campaign: a run holds dozens, so no
   report, corpus or service is retained. *)
type outcome = {
  wall_s : float;
  executions : int;
  edges : int;  (** final edges, summed over tenants *)
  barrier_ms : float list;
      (** intervals between a tenant's consecutive barriers, from the run's
          start *)
  digest : string;  (** the schedule and every tenant's Campaign.report_json *)
  problems : string list;
  workers : int;
  wait_s : float;  (** pool.barrier_wait_s, summed over tenants *)
  flush_s : float;  (** inside Funnel.flush_tenant *)
  gc_minor : int;  (** collections during the campaign *)
  gc_major : int;
  requests : int;  (** localization requests the strategies issued *)
  computed : int;  (** predictions the PMM computed *)
  cache_hits : int;
  dropped : int;  (** requests refused by a funnel outbox or the service queue *)
  shard_probes : shard_probe list;
}

(* A tenant ends completed, or budget-exhausted when it has a budget, and
   never fails or retries. *)
let tenant_problems (tn : tenant) (tr : Scheduler.tenant_report) =
  let module S = Scheduler in
  let status =
    match tn.budget with
    | Some _ when not tr.S.tr_budget_exhausted ->
      [ Printf.sprintf "tenant %s did not exhaust its budget" tn.name ]
    | None when not tr.S.tr_completed ->
      [ Printf.sprintf "tenant %s did not complete" tn.name ]
    | _ -> []
  in
  let failures =
    List.map
      (fun (fl : S.failure) ->
        Printf.sprintf "tenant %s failed at barrier %d: %s" tn.name fl.S.fl_barrier
          fl.S.fl_exn)
      tr.S.tr_failures
  in
  status @ failures

(* Each tenant's newest snapshot must reload and match its launch config
   and final barrier. *)
let snapshot_problems ~dir (tn : tenant) cfg (tr : Scheduler.tenant_report) =
  match Snapshot.latest_valid ~dir () with
  | None -> [ Printf.sprintf "tenant %s: no readable snapshot in %s" tn.name dir ]
  | Some (barrier, file, doc) -> (
    match
      J.Decode.run (fun () ->
          Campaign.validate_snapshot ~snapshot:doc ~jobs:tn.jobs cfg)
    with
    | Error e -> [ Printf.sprintf "tenant %s: %s: %s" tn.name file e ]
    | Ok () when barrier <> tr.Scheduler.tr_slices ->
      [ Printf.sprintf "tenant %s: newest snapshot is barrier %d, ran %d" tn.name
          barrier tr.Scheduler.tr_slices ]
    | Ok () -> [])

let tenant_dir ~work_dir (tn : tenant) = Filename.concat work_dir tn.name

(* Campaign [index] of the set-up's inputs. *)
let run_campaign ?trace ?(probe = false) env w ~index ~work_dir =
  let kernel = env.kernel in
  let db = Kernel.spec_db kernel in
  let parse = Sp_syzlang.Parser.program db in
  let configs = env.inputs.(index) in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let service =
    Option.map
      (fun p ->
        let inference = Pipeline.inference_for p kernel in
        let tenant_shards = Array.of_list (List.map (fun tn -> tn.jobs) w.tenants) in
        (inference, Funnel.create_multi ~tenant_shards inference))
      env.pipeline
  in
  (* The start of the run counts as every tenant's barrier 0. *)
  let stamps = Array.make (List.length w.tenants) [ t0 ] in
  let flush_ns = ref 0L in
  let shard_probes = ref [] in
  let tenants =
    List.mapi
      (fun i (tn, cfg) ->
        let vm_for sh =
          Sp_fuzz.Vm.create ~seed:(cfg.Campaign.seed + (7919 * sh)) kernel
        in
        let stamp () = stamps.(i) <- now_ns () :: stamps.(i) in
        let strategy_for, on_barrier, aux =
          match (tn.system, service) with
          | Syzkaller, _ ->
            ((fun _ -> Strategy.syzkaller db), (fun ~now:_ -> stamp ()), None)
          | Snowplow, None -> invalid_arg "Workload.run_campaign: no PMM was trained"
          | Snowplow, Some (inference, funnel) ->
            let predictions =
              Array.init tn.jobs (fun _ -> Snowplow.Hybrid.make_predictions ())
            in
            ( (fun sh ->
                Snowplow.Hybrid.strategy_with ~predictions:predictions.(sh)
                  ~degraded:(fun () -> Funnel.lane_degraded funnel ~tenant:i)
                  ~endpoint:(Funnel.endpoint_for funnel ~tenant:i ~shard:sh)
                  kernel),
              (fun ~now ->
                stamp ();
                let f0 = now_ns () in
                ignore (Funnel.flush_tenant funnel ~tenant:i ~now);
                flush_ns := Int64.add !flush_ns (Int64.sub (now_ns ()) f0)),
              Some (Snowplow.Persist.aux ~parse ~inference ~funnel ~predictions) )
        in
        let strategy_for =
          if not probe then strategy_for
          else fun sh ->
            let sp = new_shard_probe () in
            shard_probes := sp :: !shard_probes;
            probed sp (strategy_for sh)
        in
        let snapshot_dir =
          if w.snapshots then Some (tenant_dir ~work_dir tn) else None
        in
        Scheduler.tenant ~weight:tn.weight ?exec_budget:tn.budget ~on_barrier
          ?snapshot_dir ?aux ~name:tn.name ~jobs:tn.jobs ~vm_for ~strategy_for cfg)
      (List.combine w.tenants configs)
  in
  let result =
    try Scheduler.run ?trace tenants with e -> Error (Printexc.to_string e)
  in
  let wall_s = seconds_since t0 in
  let gc1 = Gc.quick_stat () in
  let barrier_ms =
    Array.to_list stamps
    |> List.concat_map (fun ts ->
           let rec gaps = function
             | later :: (earlier :: _ as rest) ->
               (Int64.to_float (Int64.sub later earlier) /. 1e6) :: gaps rest
             | _ -> []
           in
           gaps ts)
  in
  let requests, computed, cache_hits, dropped =
    match service with
    | None -> (0, 0, 0, 0)
    | Some (inference, funnel) ->
      ( Funnel.requests_deferred funnel + Funnel.dropped funnel,
        Sp_util.Metrics.counter (Inference.metrics inference) "inference.computed",
        Inference.cache_hits inference,
        Funnel.dropped funnel + Inference.dropped inference )
  in
  let base =
    {
      wall_s;
      executions = 0;
      edges = 0;
      barrier_ms;
      digest = "";
      problems = [];
      workers = 1;
      wait_s = 0.0;
      flush_s = Int64.to_float !flush_ns /. 1e9;
      gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
      requests;
      computed;
      cache_hits;
      dropped;
      shard_probes = List.rev !shard_probes;
    }
  in
  match result with
  | Error e -> { base with problems = [ "scheduler: " ^ e ] }
  | Ok r ->
    let module S = Scheduler in
    let per_tenant = List.combine (List.combine w.tenants configs) r.S.sr_tenants in
    let problems =
      List.concat_map
        (fun ((tn, cfg), tr) ->
          tenant_problems tn tr
          @
          if w.snapshots then snapshot_problems ~dir:(tenant_dir ~work_dir tn) tn cfg tr
          else [])
        per_tenant
    in
    let digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (String.concat "," r.S.sr_schedule
              :: List.map
                   (fun tr -> J.to_string (Campaign.report_json tr.S.tr_report))
                   r.S.sr_tenants)))
    in
    {
      base with
      executions = List.fold_left (fun acc tr -> acc + tr.S.tr_executions) 0 r.S.sr_tenants;
      edges =
        List.fold_left
          (fun acc tr -> acc + tr.S.tr_report.Campaign.final_edges)
          0 r.S.sr_tenants;
      digest;
      problems;
      workers = r.S.sr_workers;
      wait_s =
        List.fold_left
          (fun acc tr ->
            match
              Sp_util.Metrics.summary tr.S.tr_report.Campaign.metrics "pool.barrier_wait_s"
            with
            | Some s -> acc +. s.Sp_util.Metrics.sum
            | None -> acc)
          0.0 r.S.sr_tenants;
    }
