module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Metrics = Sp_util.Metrics
module Pool = Sp_util.Pool
module Faults = Sp_util.Faults
module Trace = Sp_obs.Trace
module Tracer = Sp_obs.Tracer
module Timeseries = Sp_obs.Timeseries
module Events = Sp_obs.Events
module Kernel = Sp_kernel.Kernel
module Bug = Sp_kernel.Bug
module Prog = Sp_syzlang.Prog
module Parser = Sp_syzlang.Parser
module Accum = Sp_coverage.Accum
module Json = Sp_obs.Json

type config = {
  duration : float;
  seed : int;
  seed_corpus : Prog.t list;
  snapshot_every : float;
  attempt_repro : bool;
  target : int option;
}

let default_config =
  {
    duration = 86_400.0;
    seed = 0;
    seed_corpus = [];
    snapshot_every = 1200.0;
    attempt_repro = false;
    target = None;
  }

type snapshot = {
  s_time : float;
  s_blocks : int;
  s_edges : int;
  s_crashes : int;
  s_execs : int;
}

(* Telemetry sampler: one timeseries row per snapshot-grid point, fed
   from the same state the snapshot reads. Rows carry only virtual-clock
   and merged-state values, so the exported series inherits the
   executor's determinism contract — no wall clock, no scheduling. *)
type sampler = {
  sm_ts : Timeseries.t option;
  sm_extra : unit -> (string * float) list;
  mutable sm_prev_time : float;
  mutable sm_prev_execs : int;
}

let make_sampler ?timeseries ?(ts_extra = fun () -> []) () =
  { sm_ts = timeseries; sm_extra = ts_extra; sm_prev_time = 0.0;
    sm_prev_execs = 0 }

let sample_row sampler ~time ~blocks ~edges ~crashes ~execs ~corpus_size =
  match sampler.sm_ts with
  | None -> ()
  | Some ts ->
    let dt = time -. sampler.sm_prev_time in
    let execs_per_s =
      if dt > 0.0 then float_of_int (execs - sampler.sm_prev_execs) /. dt
      else 0.0
    in
    sampler.sm_prev_time <- time;
    sampler.sm_prev_execs <- execs;
    Timeseries.sample ts ~time
      ([
         ("blocks", float_of_int blocks);
         ("edges", float_of_int edges);
         ("execs", float_of_int execs);
         ("execs_per_s", execs_per_s);
         ("corpus", float_of_int corpus_size);
         ("crashes", float_of_int crashes);
       ]
      @ sampler.sm_extra ())

type report = {
  series : snapshot list;
  final_blocks : int;
  final_edges : int;
  crashes : Triage.found list;
  new_crashes : Triage.found list;
  known_crashes : Triage.found list;
  executions : int;
  corpus_size : int;
  target_hit_at : float option;
  origin_stats : (string * (int * int)) list;
      (* per proposal origin: executions, new edges discovered *)
  corpus : Corpus.t;
  covered_blocks : Sp_util.Bitset.t;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Serialization helpers (snapshot documents and report fingerprints)   *)
(* ------------------------------------------------------------------ *)

let row_to_json s =
  Json.Obj
    [ ("time", Json.Num s.s_time);
      ("blocks", Json.Num (float_of_int s.s_blocks));
      ("edges", Json.Num (float_of_int s.s_edges));
      ("crashes", Json.Num (float_of_int s.s_crashes));
      ("execs", Json.Num (float_of_int s.s_execs))
    ]

let row_of_json j =
  let open Json.Decode in
  {
    s_time = num_field "time" j;
    s_blocks = int_field "blocks" j;
    s_edges = int_field "edges" j;
    s_crashes = int_field "crashes" j;
    s_execs = int_field "execs" j;
  }

let origin_stats_to_json stats =
  Json.Arr
    (List.map
       (fun (origin, (execs, new_edges)) ->
         Json.Obj
           [ ("origin", Json.Str origin);
             ("execs", Json.Num (float_of_int execs));
             ("new_edges", Json.Num (float_of_int new_edges))
           ])
       stats)

let origin_stats_of_json j =
  let open Json.Decode in
  match j with
  | Json.Arr items ->
    List.map
      (fun it ->
        (str_field "origin" it, (int_field "execs" it, int_field "new_edges" it)))
      items
  | _ -> Json.Decode.error "origin_stats: expected array"

let opt_time_to_json = function None -> Json.Null | Some t -> Json.Num t

let opt_time_of_json name j =
  match Json.Decode.field name j with
  | Json.Null -> None
  | Json.Num t -> Some t
  | _ -> Json.Decode.error "field %S: expected number or null" name

let report_json r =
  Json.Obj
    [ ("series", Json.Arr (List.map row_to_json r.series));
      ("final_blocks", Json.Num (float_of_int r.final_blocks));
      ("final_edges", Json.Num (float_of_int r.final_edges));
      ("crashes", Json.Arr (List.map Triage.found_to_json r.crashes));
      ("new_crashes", Json.Arr (List.map Triage.found_to_json r.new_crashes));
      ( "known_crashes",
        Json.Arr (List.map Triage.found_to_json r.known_crashes) );
      ("executions", Json.Num (float_of_int r.executions));
      ("corpus_size", Json.Num (float_of_int r.corpus_size));
      ("target_hit_at", opt_time_to_json r.target_hit_at);
      ("origin_stats", origin_stats_to_json r.origin_stats);
      ("corpus", Snapshot.corpus_to_json r.corpus);
      ("covered_blocks", Accum.bitset_to_json r.covered_blocks)
    ]

(* ------------------------------------------------------------------ *)
(* The executor: campaign instances                                     *)
(* ------------------------------------------------------------------ *)

(* A campaign is an [instance]: the merged global state plus the shard
   array (one shard per job, jobs = 1 included), stepped one barrier
   slice at a time against a worker pool. [run] drives one instance to
   completion over a private pool; the multi-tenant {!Scheduler}
   interleaves slices of many instances over one shared pool. Shards
   fuzz independently between snapshot barriers, against private copies
   of the barrier-frozen global corpus and accumulator; at each barrier
   the main domain folds every shard's epoch results into the global
   state in shard order (0..jobs-1). Each shard's epoch is a pure
   function of the frozen global snapshot and its own RNG stream, and
   the merge order is fixed, so the whole run is bit-for-bit
   reproducible given (config.seed, jobs) — thread scheduling (and, for
   the scheduler, slice interleaving) can change wall-clock time, never
   the report. *)

type aux = {
  aux_json : unit -> Json.t;
  aux_restore : version:int -> Json.t -> unit;
}

type instance = {
  i_config : config;
  i_jobs : int;
  i_shards : Shard.t array;
  i_corpus : Corpus.t;
  i_accum : Accum.t;
  i_triage : Triage.t;
  i_metrics : Metrics.t;
  i_trace : Trace.t;
  i_tracer : Tracer.t;  (* the instance's main-domain lane *)
  i_sampler : sampler;
  i_merge_rng : Rng.t;
  i_origin_stats : (string, int * int) Hashtbl.t;
  i_on_barrier : now:float -> unit;
  i_snapshot_dir : string option;
  i_aux : aux option;
  i_faults : Faults.t;
  i_events : Events.t;
  i_label : string option;
  i_fsite : string -> string;  (* site name, prefixed with the label *)
  mutable i_series_rev : snapshot list;
  mutable i_next_snapshot : float;
  mutable i_crash_count : int;
  mutable i_target_hit_at : float option;
  mutable i_barrier : int;
  mutable i_stopped : bool;
}

type slice = {
  sl_now : float;
  sl_handles : Shard.epoch Pool.handle array;
}

(* Raises [Json.Decode.Error]; callers wrap in [Json.Decode.run]. *)
let validate_snapshot ~snapshot ~jobs config =
  let open Json.Decode in
  (match Json.member "format" snapshot with
  | Some (Json.Str "snowplow-campaign-snapshot") -> ()
  | _ -> error "not a campaign snapshot (missing or wrong \"format\")");
  let v = int_field "version" snapshot in
  if not (List.mem v Snapshot.readable_versions) then
    error "snapshot format version %d, this build reads %s" v
      (String.concat ", " (List.map string_of_int Snapshot.readable_versions));
  let c = field "config" snapshot in
  let mismatch what = error "snapshot config mismatch: %s differs" what in
  if int_field "seed" c <> config.seed then mismatch "seed";
  if int_field "jobs" c <> jobs then mismatch "jobs";
  if num_field "duration" c <> config.duration then mismatch "duration";
  if num_field "snapshot_every" c <> config.snapshot_every then
    mismatch "snapshot_every";
  if bool_field "attempt_repro" c <> config.attempt_repro then
    mismatch "attempt_repro";
  match (field "target" c, config.target) with
  | Json.Null, None -> ()
  | Json.Num f, Some b when Float.is_integer f && int_of_float f = b -> ()
  | _ -> mismatch "target"

let create_instance ?snapshot_dir ?restore ?(on_barrier = fun ~now:_ -> ())
    ?(trace = Trace.disabled) ?timeseries ?ts_extra ?aux ?(pid_base = 0)
    ?label ?(faults = Faults.disabled) ?(events = Events.null) ~jobs ~vm_for
    ~strategy_for config =
  if jobs < 1 then invalid_arg "Campaign.create_instance: jobs must be >= 1";
  if config.snapshot_every <= 0.0 then
    invalid_arg "Campaign.create_instance: snapshot_every must be positive";
  (* Before any VM or strategy is built: a restore path cannot skip the
     launch-parameter check. *)
  Option.iter (fun snapshot -> validate_snapshot ~snapshot ~jobs config) restore;
  let metrics = Metrics.create () in
  (* Tracer handouts happen here, on the main domain, before any worker
     exists; each shard then owns its tracer exclusively. *)
  let lane suffix =
    match label with None -> suffix | Some l -> l ^ "-" ^ suffix
  in
  let main_tracer =
    Trace.tracer trace ~pid:pid_base ~name:(lane "campaign-main")
  in
  let sampler = make_sampler ?timeseries ?ts_extra () in
  let root_rng = Rng.create config.seed in
  (* Named splits do not advance the parent, so shard streams and the
     merge stream are independent of jobs ordering and of each other. *)
  let merge_rng = Rng.split_named root_rng "merge" in
  let shards =
    Array.init jobs (fun s ->
        let seeds =
          List.filteri (fun i _ -> i mod jobs = s) config.seed_corpus
        in
        Shard.create
          ~tracer:
            (Trace.tracer trace ~pid:(pid_base + 1 + s)
               ~name:(lane (Printf.sprintf "shard-%d" s)))
          ~id:s ~vm:(vm_for s) ~strategy:(strategy_for s)
          ~rng:(Rng.split_named root_rng (Printf.sprintf "shard-%d" s))
          ~seeds ())
  in
  let kernel = Vm.kernel (Shard.vm shards.(0)) in
  let dist_to_target =
    match config.target with
    | Some b -> Sp_cfg.Cfg.distances_to (Kernel.cfg kernel) b
    | None -> [||]
  in
  (* Directed mode: an entry's distance to the target is fixed once its
     coverage is known, so it is computed exactly once, on admission, and
     the corpus keeps the minimum tier indexed (no per-choice scan and no
     hash-keyed memo). *)
  let entry_distance (entry : Corpus.entry) =
    Bitset.fold
      (fun b acc -> min acc dist_to_target.(b))
      entry.Corpus.blocks max_int
  in
  let corpus =
    Corpus.create
      ?distance:(if config.target = None then None else Some entry_distance)
      ()
  in
  let num_blocks = Kernel.num_blocks kernel in
  let num_edges = Sp_cfg.Cfg.num_edges (Kernel.cfg kernel) in
  let accum =
    match restore with
    | None -> Accum.create ~num_blocks ~num_edges
    | Some snap ->
      let a = Accum.of_json (Json.Decode.field "accum" snap) in
      if Accum.capacities a <> (num_blocks, num_edges) then
        Json.Decode.error
          "snapshot accumulator capacities do not match the kernel";
      a
  in
  let inst =
    {
      i_config = config;
      i_jobs = jobs;
      i_shards = shards;
      i_corpus = corpus;
      i_accum = accum;
      i_triage = Triage.create kernel;
      i_metrics = metrics;
      i_trace = trace;
      i_tracer = main_tracer;
      i_sampler = sampler;
      i_merge_rng = merge_rng;
      i_origin_stats = Hashtbl.create 16;
      i_on_barrier = on_barrier;
      i_snapshot_dir = snapshot_dir;
      i_aux = aux;
      i_faults = faults;
      i_events = events;
      i_label = label;
      i_fsite =
        (match label with
        | None -> Fun.id
        | Some l -> fun site -> l ^ "/" ^ site);
      i_series_rev = [];
      i_next_snapshot = config.snapshot_every;
      i_crash_count = 0;
      i_target_hit_at = None;
      i_barrier = 0;
      i_stopped = false;
    }
  in
  let parse = Parser.program (Kernel.spec_db kernel) in
  (* Restore the merged global state and each shard's private stream
     state from a barrier snapshot. Everything below is exactly the
     state the uninterrupted run held at that barrier, so the loop
     continues bit-for-bit. *)
  (match restore with
  | None -> ()
  | Some snap ->
    let open Json.Decode in
    Rng.set_state merge_rng (int64_field "merge_rng" snap);
    List.iter
      (fun e -> ignore (Corpus.add corpus e))
      (Snapshot.corpus_entries_of_json ~parse (field "corpus" snap));
    Triage.restore_state inst.i_triage
      ~bug_of_id:(fun id ->
        Array.find_opt (fun b -> b.Bug.id = id) (Kernel.bugs kernel))
      ~parse (field "triage" snap);
    inst.i_crash_count <- List.length (Triage.all_found inst.i_triage);
    inst.i_target_hit_at <- opt_time_of_json "target_hit_at" snap;
    inst.i_next_snapshot <- num_field "next_snapshot" snap;
    inst.i_series_rev <- List.rev_map row_of_json (arr_field "series" snap);
    (match inst.i_series_rev with
    | last :: _ ->
      sampler.sm_prev_time <- last.s_time;
      sampler.sm_prev_execs <- last.s_execs
    | [] -> ());
    List.iter
      (fun (o, v) -> Hashtbl.replace inst.i_origin_stats o v)
      (origin_stats_of_json (field "origin_stats" snap));
    let shard_states = arr_field "shards" snap in
    if List.length shard_states <> jobs then
      error "snapshot has %d shards, resuming with jobs=%d"
        (List.length shard_states) jobs;
    let version = int_field "version" snap in
    List.iteri
      (fun i sj -> Shard.restore_state shards.(i) ~parse ~version sj)
      shard_states;
    (* Strategy-side state (inference/funnel/prediction caches) rides in
       the snapshot's [aux] field; a caller that supplies an [aux] hook
       gets it back, others ignore it. *)
    (match (aux, Json.member "aux" snap) with
    | Some a, Some (Json.Obj _ as j) -> a.aux_restore ~version j
    | Some _, (Some Json.Null | None) -> ()
    | Some _, Some _ -> error "snapshot aux: expected object or null"
    | None, _ -> ());
    inst.i_barrier <- int_field "barrier" snap;
    inst.i_stopped <- bool_field "stopped" snap);
  inst

let instance_stopped inst = inst.i_stopped

let instance_barrier inst = inst.i_barrier

let instance_executions inst =
  Array.fold_left
    (fun acc sh -> acc + Vm.executions (Shard.vm sh))
    0 inst.i_shards

(* Virtual time the next slice will run up to — the stride scheduler's
   per-tenant virtual clock. *)
let instance_next_time inst =
  Float.min inst.i_config.duration
    (float_of_int (inst.i_barrier + 1) *. inst.i_config.snapshot_every)

let snapshot_doc inst ~stopped ~barrier =
  let config = inst.i_config in
  Json.Obj
    [ ("format", Json.Str "snowplow-campaign-snapshot");
      ("version", Json.Num (float_of_int Snapshot.format_version));
      ( "config",
        Json.Obj
          [ ("seed", Json.Num (float_of_int config.seed));
            ("jobs", Json.Num (float_of_int inst.i_jobs));
            ("duration", Json.Num config.duration);
            ("snapshot_every", Json.Num config.snapshot_every);
            ("attempt_repro", Json.Bool config.attempt_repro);
            ( "target",
              match config.target with
              | None -> Json.Null
              | Some b -> Json.Num (float_of_int b) )
          ] );
      ("barrier", Json.Num (float_of_int barrier));
      ("next_snapshot", Json.Num inst.i_next_snapshot);
      ("stopped", Json.Bool stopped);
      ("target_hit_at", opt_time_to_json inst.i_target_hit_at);
      ("series", Json.Arr (List.rev_map row_to_json inst.i_series_rev));
      ( "origin_stats",
        origin_stats_to_json
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.i_origin_stats []
          |> List.sort compare) );
      ("merge_rng", Json.Decode.int64_to_json (Rng.state inst.i_merge_rng));
      ("corpus", Snapshot.corpus_to_json inst.i_corpus);
      ("accum", Accum.to_json inst.i_accum);
      ("triage", Triage.state_json inst.i_triage);
      ( "shards",
        Json.Arr (Array.to_list (Array.map Shard.state_json inst.i_shards)) );
      ( "aux",
        match inst.i_aux with None -> Json.Null | Some a -> a.aux_json () )
    ]

let take_snapshots inst now =
  let config = inst.i_config in
  while
    now >= inst.i_next_snapshot -. 1e-9
    && inst.i_next_snapshot <= config.duration
  do
    let s_blocks = Accum.blocks_covered inst.i_accum in
    let s_edges = Accum.edges_covered inst.i_accum in
    let s_execs = instance_executions inst in
    inst.i_series_rev <-
      {
        s_time = inst.i_next_snapshot;
        s_blocks;
        s_edges;
        s_crashes = inst.i_crash_count;
        s_execs;
      }
      :: inst.i_series_rev;
    (* Sampled after the shard-order merge, from merged global state
       only: the timeseries stays bit-for-bit reproducible. *)
    sample_row inst.i_sampler ~time:inst.i_next_snapshot ~blocks:s_blocks
      ~edges:s_edges ~crashes:inst.i_crash_count ~execs:s_execs
      ~corpus_size:(Corpus.size inst.i_corpus);
    Tracer.instant inst.i_tracer "campaign.snapshot";
    Tracer.counter inst.i_tracer "edges" (float_of_int s_edges);
    inst.i_next_snapshot <- inst.i_next_snapshot +. config.snapshot_every
  done

let merge_epoch inst (ep : Shard.epoch) =
  (* Admissions first, re-judged against the evolving global
     accumulator: an entry enters the global corpus only if it still
     contributes coverage no earlier shard (or barrier) already has. *)
  List.iter
    (fun (entry : Corpus.entry) ->
      let delta =
        Accum.add inst.i_accum ~blocks:entry.Corpus.blocks
          ~edges:entry.Corpus.edges
      in
      if delta.Accum.new_blocks > 0 || delta.Accum.new_edges > 0 then
        if Corpus.add inst.i_corpus entry then
          Metrics.incr inst.i_metrics "campaign.corpus_adds")
    ep.Shard.ep_admissions;
  (* Then the rest of the epoch's coverage (crashing and non-novel
     executions contribute coverage without corpus entries). The epoch
     accumulator also holds the frozen global set, which the global
     accumulator already contains, so the union adds exactly what the
     epoch observed. *)
  Accum.merge_into ~dst:inst.i_accum ep.Shard.ep_coverage;
  List.iter
    (fun (ce : Shard.crash_event) ->
      match
        Triage.record ~attempt_repro:inst.i_config.attempt_repro inst.i_triage
          inst.i_merge_rng
          ~vm:(Shard.vm inst.i_shards.(ep.Shard.ep_shard))
          ~now:ce.Shard.ce_time ce.Shard.ce_crash ce.Shard.ce_prog
      with
      | Some _ ->
        inst.i_crash_count <- inst.i_crash_count + 1;
        Metrics.incr inst.i_metrics "campaign.crashes"
      | None -> ())
    ep.Shard.ep_crashes;
  List.iter
    (fun (origin, (execs, new_edges)) ->
      let e0, n0 =
        Option.value ~default:(0, 0)
          (Hashtbl.find_opt inst.i_origin_stats origin)
      in
      Hashtbl.replace inst.i_origin_stats origin (e0 + execs, n0 + new_edges))
    ep.Shard.ep_origin

(* Submit one barrier slice (all shards' next epoch) to [pool]. The
   instance is in-slice until {!complete_slice} folds the results back —
   interleaving other instances' slices in between is what the scheduler
   does, and it cannot affect this instance's state: the epochs already
   hold their frozen inputs.

   [max_execs] caps the slice's total VM executions; the cap is dealt
   across shards as evenly as possible (floor per shard, remainder to
   the lowest shard ids) so the split — like everything else — is a pure
   function of (cap, jobs). *)
let begin_slice inst ~pool ?max_execs () =
  if inst.i_stopped then invalid_arg "Campaign.begin_slice: instance stopped";
  inst.i_barrier <- inst.i_barrier + 1;
  let now =
    Float.min inst.i_config.duration
      (float_of_int inst.i_barrier *. inst.i_config.snapshot_every)
  in
  Metrics.incr inst.i_metrics "campaign.barriers";
  Tracer.begin_span inst.i_tracer "campaign.barrier";
  let cap_for s =
    match max_execs with
    | None -> None
    | Some c ->
      let base = c / inst.i_jobs and rem = c mod inst.i_jobs in
      Some (base + if s < rem then 1 else 0)
  in
  (* Epoch fault decisions are consulted here, on the main domain in
     shard order (k = slice-wide epoch ordinal), so the plan's stats are
     schedule-independent; the doomed task then raises from its worker,
     exercising the same await/backtrace path a genuine epoch crash
     takes. *)
  let epoch_site = inst.i_fsite "shard.epoch" in
  let epoch_fails =
    if not (Faults.enabled inst.i_faults) then fun _ -> false
    else begin
      let base = (inst.i_barrier - 1) * inst.i_jobs in
      let flags =
        Array.init inst.i_jobs (fun s ->
            Faults.should_fail inst.i_faults epoch_site ~k:(base + s))
      in
      fun s -> flags.(s)
    end
  in
  let handles =
    Array.map
      (fun sh ->
        Pool.submit pool (fun () ->
            if epoch_fails (Shard.id sh) then
              raise (Faults.Injected epoch_site);
            Shard.run_epoch sh
              ?max_execs:(cap_for (Shard.id sh))
              ~corpus:inst.i_corpus ~accum:inst.i_accum
              ~target:inst.i_config.target ~until:now ()))
      inst.i_shards
  in
  { sl_now = now; sl_handles = handles }

let complete_slice inst slice =
  let config = inst.i_config in
  let now = slice.sl_now in
  (* Await EVERY handle before judging any: a raising epoch must not
     leave sibling epochs in flight (the scheduler rebuilds the instance
     on failure, which requires the slice quiescent). The first failure
     in shard order then re-raises with its original backtrace. *)
  let results =
    Metrics.time_wall inst.i_metrics "pool.barrier_wait_s" (fun () ->
        Array.map Pool.await_full slice.sl_handles)
  in
  Array.iter
    (function
      | Ok _ -> ()
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    results;
  let epochs =
    Array.to_list results
    |> List.map (function Ok ep -> ep | Error _ -> assert false)
  in
  (* Fold in shard order — the whole determinism story. *)
  Tracer.span inst.i_tracer "campaign.merge" (fun () ->
      List.iter (merge_epoch inst) epochs);
  (* First barrier that observed the target wins; among shards of one
     barrier, the earliest shard-local hit time. *)
  (match config.target with
  | Some _ when inst.i_target_hit_at = None ->
    List.iter
      (fun (ep : Shard.epoch) ->
        match ep.Shard.ep_target_hit_at with
        | Some at ->
          inst.i_target_hit_at <-
            Some
              (match inst.i_target_hit_at with
              | None -> at
              | Some best -> Float.min best at)
        | None -> ())
      epochs
  | Some _ | None -> ());
  inst.i_on_barrier ~now;
  take_snapshots inst now;
  let all_idle =
    List.for_all (fun (ep : Shard.epoch) -> ep.Shard.ep_idle) epochs
  in
  if
    now >= config.duration
    || (config.target <> None && inst.i_target_hit_at <> None)
    || all_idle
  then inst.i_stopped <- true;
  (* Persist the merged state after the stop decision, so the snapshot
     carries it: resuming from a final snapshot goes straight to report
     assembly instead of re-entering the loop. *)
  (match inst.i_snapshot_dir with
  | Some dir ->
    (* [k] = barrier number: the crash-before-rename site is addressable
       per barrier and stable across resume. *)
    let inject =
      if Faults.enabled inst.i_faults then
        Some
          (fun () ->
            Faults.fire inst.i_faults
              (inst.i_fsite "io.write_atomic")
              ~k:inst.i_barrier)
      else None
    in
    let file =
      Snapshot.write ?inject ~dir ~barrier:inst.i_barrier
        (snapshot_doc inst ~stopped:inst.i_stopped ~barrier:inst.i_barrier)
    in
    Events.log inst.i_events ~kind:"snapshot.write"
      [ ( "label",
          match inst.i_label with None -> Json.Null | Some l -> Json.Str l );
        ("file", Json.Str file);
        ("barrier", Json.Num (float_of_int inst.i_barrier));
        ("now", Json.Num now);
        ("stopped", Json.Bool inst.i_stopped)
      ]
  | None -> ());
  Tracer.end_span inst.i_tracer "campaign.barrier"

let finish_instance inst =
  let config = inst.i_config in
  (* Close the series grid out to the configured duration: a campaign
     that stopped early (target hit, no work) still reports a full grid. *)
  take_snapshots inst config.duration;
  let needs_final =
    match inst.i_series_rev with
    | last :: _ -> last.s_time < config.duration
    | [] -> true
  in
  if needs_final then begin
    let s_blocks = Accum.blocks_covered inst.i_accum in
    let s_edges = Accum.edges_covered inst.i_accum in
    let s_execs = instance_executions inst in
    inst.i_series_rev <-
      {
        s_time = config.duration;
        s_blocks;
        s_edges;
        s_crashes = inst.i_crash_count;
        s_execs;
      }
      :: inst.i_series_rev;
    sample_row inst.i_sampler ~time:config.duration ~blocks:s_blocks
      ~edges:s_edges ~crashes:inst.i_crash_count ~execs:s_execs
      ~corpus_size:(Corpus.size inst.i_corpus)
  end;
  (* Fold per-shard registries (loop + vm counters) into the report's,
     in shard order; no slice is in flight, so no registry is written
     concurrently. *)
  Array.iter
    (fun sh -> Metrics.merge_into ~dst:inst.i_metrics (Shard.metrics sh))
    inst.i_shards;
  {
    series = List.rev inst.i_series_rev;
    final_blocks = Accum.blocks_covered inst.i_accum;
    final_edges = Accum.edges_covered inst.i_accum;
    crashes = Triage.all_found inst.i_triage;
    new_crashes = Triage.new_crashes inst.i_triage;
    known_crashes = Triage.known_crashes inst.i_triage;
    executions = instance_executions inst;
    corpus_size = Corpus.size inst.i_corpus;
    target_hit_at = inst.i_target_hit_at;
    origin_stats =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) inst.i_origin_stats []
      |> List.sort compare;
    corpus = inst.i_corpus;
    covered_blocks = Accum.snapshot_blocks inst.i_accum;
    metrics = inst.i_metrics;
  }

let run inst =
  let pool_metrics = Metrics.create () in
  Pool.with_pool ~metrics:pool_metrics
    ~tracer_for:(fun i ->
      Trace.tracer inst.i_trace ~pid:(1001 + i)
        ~name:(Printf.sprintf "pool-worker-%d" i))
    ~workers:inst.i_jobs
    (fun pool ->
      while not inst.i_stopped do
        complete_slice inst (begin_slice inst ~pool ())
      done);
  let report = finish_instance inst in
  (* The pool's registry merges after shutdown: workers are joined. *)
  Metrics.merge_into ~dst:report.metrics pool_metrics;
  report

let coverage_at report time =
  let rec go last = function
    | [] -> last
    | s :: rest -> if s.s_time > time then last else go s.s_edges rest
  in
  go 0 report.series

let time_to_edges report level =
  let rec go = function
    | [] -> None
    | s :: rest -> if s.s_edges >= level then Some s.s_time else go rest
  in
  go report.series
