module Kernel = Sp_kernel.Kernel
module Campaign = Sp_fuzz.Campaign
module Json = Sp_obs.Json

type system = [ `Syzkaller | `Snowplow ]

type spec = {
  name : string;
  system : system;
  jobs : int;
  hours : float;
  run_seed : int;
  weight : float;
  exec_budget : int option;
  corpus_size : int;
}

let default_spec =
  { name = ""; system = `Syzkaller; jobs = 1; hours = 1.0; run_seed = 11;
    weight = 1.0; exec_budget = None; corpus_size = 100 }

let max_jobs = 127

let check_count field n =
  if n < 1 || n > max_jobs then
    Error (Printf.sprintf "%s: must be between 1 and %d (got %d)" field max_jobs n)
  else Ok ()

let check_workers n = check_count "workers" n

let check_spec s =
  let positive x = Float.is_finite x && x > 0.0 in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match check_count "jobs" s.jobs with
  | Error _ as e -> e
  | Ok () ->
    if not (positive s.weight) then
      fail "weight: must be finite and positive (got %g)" s.weight
    else if not (positive s.hours) then
      fail "hours: must be finite and positive (got %g)" s.hours
    else if not (positive (s.hours *. 3600.0)) then
      fail "hours: %g h overflows the virtual clock" s.hours
    else
      match s.exec_budget with
      | Some b when b < 0 -> fail "exec_budget: must be >= 0 (got %d)" b
      | _ when s.corpus_size < 0 ->
        fail "corpus_size: must be >= 0 (got %d)" s.corpus_size
      | _ -> Ok ()

(* A tenant's name is its directory under [serve --snapshot-root] and the
   prefix of its fault sites and retry labels ([name#N]), so it must be
   one safe path component: no separator, no [.] or [..], no [#]. *)
let safe_name name =
  let n = String.length name in
  n <= 64
  && Seq.for_all
       (fun (i, c) ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true
         | '.' -> i > 0
         | _ -> false)
       (String.to_seqi name)

let roster_of_string text =
  let module D = Json.Decode in
  let opt name f default tj = if Json.member name tj = None then default else f name tj in
  let spec tj =
    let s =
      {
        name = D.str_field "name" tj;
        system =
          (match opt "system" D.str_field "syzkaller" tj with
          | "syzkaller" -> `Syzkaller
          | "snowplow" -> `Snowplow
          | s -> D.error "system: unknown fuzzer %S" s);
        jobs = opt "jobs" D.int_field default_spec.jobs tj;
        hours = opt "hours" D.num_field default_spec.hours tj;
        run_seed = opt "run_seed" D.int_field default_spec.run_seed tj;
        weight = opt "weight" D.num_field default_spec.weight tj;
        exec_budget = opt "exec_budget" (fun n j -> Some (D.int_field n j)) None tj;
        corpus_size = opt "corpus_size" D.int_field default_spec.corpus_size tj;
      }
    in
    if s.name = "" then D.error "name: must be non-empty";
    if not (safe_name s.name) then
      D.error
        "name: %S is not one path component ([A-Za-z0-9_-] then \
         [A-Za-z0-9_.-], at most 64 bytes)"
        s.name;
    Result.iter_error (D.error "%s") (check_spec s);
    s
  in
  (* Every invalid entry is reported, so a bad roster is fixed in one
     edit. *)
  let rec duplicates seen = function
    | [] -> []
    | s :: rest when List.mem s.name seen ->
      Printf.sprintf "duplicate tenant name %S" s.name :: duplicates seen rest
    | s :: rest -> duplicates (s.name :: seen) rest
  in
  match Json.of_string text with
  | Error e -> Error ("JSON parse error: " ^ e)
  | Ok (Json.Arr []) -> Error "tenants file: at least one tenant required"
  | Ok (Json.Arr tenants) ->
    let decoded =
      List.mapi
        (fun i tj ->
          Result.map_error (Printf.sprintf "tenant entry %d: %s" i)
            (D.run (fun () -> spec tj)))
        tenants
    in
    let specs = List.filter_map Result.to_option decoded in
    let errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) decoded
      @ duplicates [] specs
    in
    if errors <> [] then Error (String.concat "\n" errors) else Ok specs
  | Ok _ -> Error "tenants file: expected a JSON array of tenant objects"

let config db s =
  let duration = s.hours *. 3600.0 in
  {
    Campaign.default_config with
    seed_corpus =
      Sp_syzlang.Gen.corpus
        (Sp_util.Rng.create (s.run_seed lxor 0x5eed))
        db ~size:s.corpus_size;
    seed = s.run_seed;
    duration;
    snapshot_every = Float.max 600.0 (duration /. 12.0);
    attempt_repro = true;
  }

let vm_for kernel s shard =
  Sp_fuzz.Vm.create ~seed:(s.run_seed + (7919 * shard)) kernel

type service = {
  inference : Inference.t;
  funnel : Funnel.t;
  tenant_jobs : int array;
  samples_per_s : float;  (* PMM training throughput; 0 when not trained here *)
  (* Latest barrier virtual time across the lanes: the clock the gauges
     read the breakers at. Written only by barrier hooks and read only
     between slices, both on the scheduling domain. *)
  mutable last_barrier : float;
}

let make ?tracer ?degrade ?faults ?events ?(samples_per_s = 0.0) ~tenant_jobs
    inference =
  {
    inference;
    funnel =
      Funnel.create_multi ?tracer ?degrade ?faults ?events
        ~tenant_shards:tenant_jobs inference;
    tenant_jobs = Array.copy tenant_jobs;
    samples_per_s;
    last_barrier = 0.0;
  }

let of_inference ~tenant_jobs inference = make ~tenant_jobs inference

let start ~pipeline ~tracer ~faults ~events kernel specs =
  if not (List.exists (fun s -> s.system = `Snowplow) specs) then None
  else begin
    let t0 = Unix.gettimeofday () in
    let p = Pipeline.train ~config:pipeline ~tracer () in
    let train_wall = Unix.gettimeofday () -. t0 in
    (* Example presentations per wall second over the whole run. *)
    let samples_per_s =
      let presented =
        Array.length p.Pipeline.split.Dataset.train
        * pipeline.Pipeline.trainer.Trainer.epochs
      in
      if train_wall > 0.0 then float_of_int presented /. train_wall else 0.0
    in
    let degrade =
      if Sp_util.Faults.enabled faults then Some Funnel.default_degrade else None
    in
    Some
      (make ~tracer ?degrade ~faults ~events
         ~tenant_jobs:(Array.of_list (List.map (fun s -> s.jobs) specs))
         ~samples_per_s
         (Pipeline.inference_for ~tracer p kernel))
  end

type lane = {
  strategy_for : int -> Sp_fuzz.Strategy.t;
  on_barrier : now:float -> unit;
  aux : Campaign.aux;
}

let snowplow_lane svc ~tenant kernel =
  let funnel = svc.funnel in
  let predictions =
    Array.init svc.tenant_jobs.(tenant) (fun _ -> Hybrid.make_predictions ())
  in
  {
    strategy_for =
      (fun shard ->
        Hybrid.strategy_with ~predictions:predictions.(shard)
          ~degraded:(fun () -> Funnel.lane_degraded funnel ~tenant)
          ~endpoint:(Funnel.endpoint_for funnel ~tenant ~shard)
          kernel);
    on_barrier =
      (fun ~now ->
        svc.last_barrier <- Float.max svc.last_barrier now;
        ignore (Funnel.flush_tenant funnel ~tenant ~now));
    (* Shared-service state rides in every snowplow tenant's snapshot; on
       a multi-tenant resume the last restored tenant's view wins (best
       effort — solo resume is exact). *)
    aux =
      Persist.aux
        ~parse:(Sp_syzlang.Parser.program (Kernel.spec_db kernel))
        ~inference:svc.inference ~funnel ~predictions;
  }

let wiring service kernel ~tenant s =
  match (s.system, service) with
  | `Syzkaller, _ ->
    ((fun _ -> Sp_fuzz.Strategy.syzkaller (Kernel.spec_db kernel)), None, None)
  | `Snowplow, None -> invalid_arg "Launch: a snowplow spec needs a service"
  | `Snowplow, Some svc ->
    let l = snowplow_lane svc ~tenant kernel in
    (l.strategy_for, Some l.on_barrier, Some l.aux)

(* Service-side time-series columns, sampled on the grid from
   barrier-merged state, so they stay inside the determinism contract. *)
let columns svc ~tenant () =
  let n x = float_of_int x in
  let inf = svc.inference in
  [ ("inference.pending", n (Inference.pending inf));
    ("inference.served", n (Inference.served inf));
    ("inference.cache_hits", n (Inference.cache_hits inf));
    ("inference.cache_size", n (Inference.cache_size inf));
    ("funnel.deferred", n (Funnel.tenant_deferred svc.funnel ~tenant));
    ("funnel.dropped", n (Funnel.tenant_dropped svc.funnel ~tenant))
  ]

let instance ~trace ~timeseries ~snapshot_dir ~restore service kernel s =
  let strategy_for, on_barrier, aux = wiring service kernel ~tenant:0 s in
  let ts_extra =
    match s.system with
    | `Snowplow -> Option.map (fun svc -> columns svc ~tenant:0) service
    | `Syzkaller -> None
  in
  Json.Decode.run (fun () ->
      Campaign.create_instance ~trace ?timeseries ?ts_extra ?on_barrier ?aux
        ?snapshot_dir ?restore ~jobs:s.jobs ~vm_for:(vm_for kernel s)
        ~strategy_for
        (config (Kernel.spec_db kernel) s))

let tenant ~snapshot_dir ~restore service kernel ~index s =
  let strategy_for, on_barrier, aux = wiring service kernel ~tenant:index s in
  Sp_fuzz.Scheduler.tenant ~weight:s.weight ?exec_budget:s.exec_budget
    ?on_barrier ?snapshot_dir ?restore ?aux ~name:s.name ~jobs:s.jobs
    ~vm_for:(vm_for kernel s) ~strategy_for
    (config (Kernel.spec_db kernel) s)

let gauges service specs =
  let module E = Sp_obs.Exposition in
  match service with
  | None -> []
  | Some svc ->
    let inf = svc.inference and funnel = svc.funnel in
    let n x = float_of_int x in
    let series ?labels rows =
      List.map (fun (ty, name, help, v) -> E.metric ~help ?labels ty name v) rows
    in
    let base =
      series
        [ (E.Gauge, "snowplow_trainer_samples_per_second",
           "PMM training throughput over the pretraining run", svc.samples_per_s);
          (E.Gauge, "snowplow_inference_pending", "requests queued in the shared service",
           n (Inference.pending inf));
          (E.Counter, "snowplow_inference_served", "predictions served",
           n (Inference.served inf));
          (E.Counter, "snowplow_inference_cache_hits", "prediction cache hits",
           n (Inference.cache_hits inf));
          (E.Gauge, "snowplow_inference_cache_size", "cached predictions",
           n (Inference.cache_size inf)) ]
    in
    let lane tenant s =
      let breaker =
        match Funnel.lane_stats funnel ~tenant ~now:svc.last_barrier with
        | None -> []
        | Some ls ->
          [ (E.Gauge, "snowplow_breaker_state",
             "breaker state (0 closed, 1 open, 2 half-open)",
             n (Breaker.state_code ls.Funnel.ls_state));
            (E.Counter, "snowplow_breaker_trips", "breaker trips", n ls.Funnel.ls_trips);
            (E.Counter, "snowplow_breaker_errors", "lane errors (timeouts + failures)",
             n ls.Funnel.ls_errors);
            (E.Counter, "snowplow_breaker_shed", "requests shed while degraded",
             n ls.Funnel.ls_shed) ]
      in
      series ~labels:[ ("tenant", s.name) ]
        ([ (E.Gauge, "snowplow_funnel_queue_depth",
            "outbox + inbox + pending-retry requests parked in the lane",
            n (Funnel.tenant_queue_depth funnel ~tenant));
           (E.Counter, "snowplow_funnel_deferred", "requests accepted into the lane",
            n (Funnel.tenant_deferred funnel ~tenant));
           (E.Counter, "snowplow_funnel_dropped", "requests refused by the lane",
            n (Funnel.tenant_dropped funnel ~tenant)) ]
        @ breaker)
    in
    base @ List.concat (List.mapi lane specs)
