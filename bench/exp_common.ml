(* Shared state and helpers for the experiment harness.

   The trained pipeline (kernel generation, dataset collection, encoder
   pretraining, PMM training) is expensive, so it is trained once and
   shared by every experiment that needs it. *)

module Campaign = Sp_fuzz.Campaign

let t0 = Unix.gettimeofday ()

let log fmt =
  Printf.ksprintf
    (fun s -> Printf.printf "[%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) s)
    fmt

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let shared : Snowplow.Pipeline.t option ref = ref None

(* Quick mode (SNOWPLOW_QUICK, used by @ci) shrinks PMM training to the
   integration-test scale, as the CLI does. The model is bad; the
   plumbing and the emitted key sets are the same. *)
let pipeline () =
  match !shared with
  | Some p -> p
  | None ->
    log "training PMM (dataset collection + encoder pretraining + GNN)...";
    let p = Snowplow.Pipeline.train ~config:(Snowplow.Pipeline.env_config ()) () in
    log "PMM trained: %d train / %d valid / %d eval examples, %d parameters"
      (Array.length p.Snowplow.Pipeline.split.Snowplow.Dataset.train)
      (Array.length p.Snowplow.Pipeline.split.Snowplow.Dataset.valid)
      (Array.length p.Snowplow.Pipeline.split.Snowplow.Dataset.eval)
      (Snowplow.Pmm.num_parameters p.Snowplow.Pipeline.model);
    shared := Some p;
    p

(* Telemetry artifacts: when SNOWPLOW_ARTIFACTS names a directory, the
   campaign experiments sample an [Sp_obs.Timeseries] per run and export
   it there as <name>.jsonl (readable with `snowplow stats --timeseries`)
   — the source of truth for coverage/throughput trajectories. Unset (the
   default, including CI), nothing is allocated and nothing is written. *)
let artifacts_dir = Sys.getenv_opt "SNOWPLOW_ARTIFACTS"

let campaign_timeseries () =
  Option.map (fun _ -> Sp_obs.Timeseries.create ()) artifacts_dir

let emit_timeseries name ts =
  match (artifacts_dir, ts) with
  | Some dir, Some ts when Sp_obs.Timeseries.length ts > 0 ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".jsonl") in
    Sp_obs.Timeseries.write_file ts path;
    log "timeseries artifact: %s" path
  | _ -> ()

(* Perf-trajectory files: each perf-sensitive experiment persists its
   headline numbers as BENCH_<NAME>.json at the repo root, so regressions
   show up as diffs in review. The bench binary runs from _build/default;
   walking up past the [_build] component finds the source root. Quick
   mode (SNOWPLOW_QUICK, used by @ci) runs reduced workloads whose
   numbers are junk — it must never overwrite the committed trajectory. *)
let repo_root () =
  let cwd = Sys.getcwd () in
  let rec strip dir =
    let base = Filename.basename dir in
    let parent = Filename.dirname dir in
    if base = "_build" then Some parent
    else if parent = dir then None
    else strip parent
  in
  (* No [_build] component: the binary was invoked from the source tree
     itself (e.g. a copied executable), so the cwd is the root. *)
  Option.value (strip cwd) ~default:cwd

let quick_mode () = Sys.getenv_opt "SNOWPLOW_QUICK" <> None

(* SNOWPLOW_BENCH_OUT redirects the trajectory files to another
   directory — how CI captures a fresh quick-mode run for
   [snowplow bench-diff] without ever overwriting the committed
   full-workload baselines. Without it, quick mode writes nothing. *)
let emit_bench name fields =
  let write path =
    let json =
      Sp_obs.Json.Obj
        (("experiment", Sp_obs.Json.Str name)
        :: List.map (fun (k, v) -> (k, Sp_obs.Json.Num v)) fields)
    in
    Sp_obs.Io.write_atomic path (Sp_obs.Json.to_string json ^ "\n");
    log "bench trajectory: %s" path
  in
  match Sys.getenv_opt "SNOWPLOW_BENCH_OUT" with
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    write (Filename.concat dir (Printf.sprintf "BENCH_%s.json" name))
  | None ->
    if quick_mode () then
      log "quick mode: not writing BENCH_%s.json (reduced workload)" name
    else
      write
        (Filename.concat (repo_root ()) (Printf.sprintf "BENCH_%s.json" name))

(* A one-job campaign on [vm]: the one-shard instance, run to completion. *)
let run_campaign ?timeseries vm strategy cfg =
  Campaign.run
    (Campaign.create_instance ?timeseries ~jobs:1
       ~vm_for:(fun _ -> vm)
       ~strategy_for:(fun _ -> strategy)
       cfg)

let seed_corpus db ~seed ~size =
  Sp_syzlang.Gen.corpus (Sp_util.Rng.create seed) db ~size

let hours s = s /. 3600.0

(* Mean coverage series across repeated runs, resampled on the snapshot
   grid, with min/max band. *)
let mean_series (reports : Campaign.report list) =
  match reports with
  | [] -> ([], [])
  | first :: _ ->
    let times = List.map (fun (s : Campaign.snapshot) -> s.Campaign.s_time) first.Campaign.series in
    let at t (r : Campaign.report) = float_of_int (Campaign.coverage_at r t) in
    let mean =
      List.map
        (fun t -> (hours t, Sp_util.Stats.mean (List.map (at t) reports)))
        times
    in
    let band =
      List.map
        (fun t ->
          let vs = List.map (at t) reports in
          let lo, hi = Sp_util.Stats.min_max vs in
          (hours t, lo, hi))
        times
    in
    (mean, band)
