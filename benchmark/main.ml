(* The repository benchmark. See benchmark/README.md.

     main.exe [--workload W,..] [--seed N] [--seconds S] [--trace 0|1]
              [--json FILE]
     main.exe compare BASE.json NEW.json [BASE.json NEW.json ..]
              [--benchmark BENCHMARK.json]

   One workload runs in this process; several run one child process each
   (this executable, re-executed), so set-up time and peak memory are
   measured per workload. *)

module J = Sp_obs.Json
open Benchkit
module W = Workload

(* Set-ups per run; setup_s is their median. *)
let setup_runs = 3

let work_root = ".bench_work"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:0.0

let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
    let line = In_channel.input_line ic in
    (match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> l
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;  (** run length; sets each workload's campaign count *)
  trace : bool;
  json : string option;
  child : bool;  (** print the full result of the one workload, for a parent *)
}

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let metric ~value samples = { Report.value; dist = Stat.summarize samples }

let median_of samples = metric ~value:(Stat.median samples) samples

let single v = metric ~value:v [ v ]

(* ------------------------------------------------------------------ *)
(* End-to-end metrics: the untraced campaigns                          *)
(* ------------------------------------------------------------------ *)

let end_to_end_metrics ~(setup_times : W.setup_times list) (measured : W.outcome list) =
  let f = float_of_int in
  let intervals = List.concat_map (fun (o : W.outcome) -> o.W.barrier_ms) measured in
  let barrier want =
    if intervals = [] then (want, single 0.0)
    else
      let p, v = Stat.tail intervals ~want in
      (p, metric ~value:v intervals)
  in
  let p90, barrier_p90 = barrier 90.0 in
  let notes =
    if p90 >= 90.0 then []
    else
      [ Printf.sprintf "barrier_ms_p90 reported at p%.1f (%d intervals)" p90
          (List.length intervals) ]
  in
  ( [ ( "execs_per_s",
        median_of (List.map (fun (o : W.outcome) -> f o.W.executions /. o.W.wall_s) measured) );
      ("setup_s", median_of (List.map (fun (s : W.setup_times) -> s.W.total_s) setup_times));
      ("edges", median_of (List.map (fun (o : W.outcome) -> f o.W.edges) measured));
      ("barrier_ms_p50", snd (barrier 50.0));
      ("barrier_ms_p90", barrier_p90);
      ("peak_rss_mb", single (peak_rss_mb ())) ],
    notes )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics: the same campaigns again, traced                 *)
(* ------------------------------------------------------------------ *)

let snapshot_files dir =
  match Sys.readdir dir with
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           String.starts_with ~prefix:"snapshot-" f && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

type snapshot_io = { bytes : int; read_s : float; write_s : float }

(* Every snapshot a campaign wrote, re-read through Snapshot.read and
   re-written through Snapshot.write. *)
let snapshot_io (w : W.t) ~work_dir =
  let files =
    List.concat_map (fun tn -> snapshot_files (W.tenant_dir ~work_dir tn)) w.W.tenants
  in
  let rewrite_dir = Filename.concat work_dir "rewrite" in
  List.fold_left
    (fun acc (i, f) ->
      let t0 = W.now_ns () in
      let doc = Sp_fuzz.Snapshot.read f in
      let read_s = W.seconds_since t0 in
      let t1 = W.now_ns () in
      (match doc with
      | Ok doc -> ignore (Sp_fuzz.Snapshot.write ~dir:rewrite_dir ~barrier:i doc)
      | Error _ -> ());
      {
        bytes = acc.bytes + (Unix.stat f).Unix.st_size;
        read_s = acc.read_s +. read_s;
        write_s = acc.write_s +. W.seconds_since t1;
      })
    { bytes = 0; read_s = 0.0; write_s = 0.0 }
    (List.mapi (fun i f -> (i, f)) files)

(* Every 64th proposal, executed again on a fresh scratch: µs per
   execution, each sample the mean of 16 back-to-back runs. *)
let replay_exec_us (env : W.env) progs =
  let kernel = env.W.kernel in
  let scratch = Sp_kernel.Kernel.create_scratch kernel in
  List.map
    (fun prog ->
      Sp_kernel.Kernel.execute_into kernel scratch prog;
      let t0 = W.now_ns () in
      for _ = 1 to 16 do
        Sp_kernel.Kernel.execute_into kernel scratch prog
      done;
      W.seconds_since t0 *. 1e6 /. 16.0)
    progs

let per_layer_metrics env ~(setup : W.setup_times) ~setup_spans ~untraced_wall_s
    ~trace (traced : (W.outcome * snapshot_io) list) =
  let f = float_of_int in
  let outcomes = List.map fst traced in
  let spans = Spans.of_trace (Sp_obs.Trace.export trace) in
  let probes = List.concat_map (fun (o : W.outcome) -> o.W.shard_probes) outcomes in
  let durs =
    List.concat_map (fun sp -> Array.to_list (Array.sub sp.W.durs_us 0 sp.W.calls)) probes
  in
  let propose_s = fsum (fun sp -> Int64.to_float sp.W.propose_ns) probes /. 1e9 in
  let pct xs p = if xs = [] then 0.0 else snd (Stat.tail xs ~want:p) in
  let exec_us = replay_exec_us env (List.concat_map (fun sp -> sp.W.sampled) probes) in
  let executions = isum (fun (o : W.outcome) -> o.W.executions) outcomes in
  let flush_s = fsum (fun (o : W.outcome) -> o.W.flush_s) outcomes in
  let ledger =
    Ledger.campaign_metrics spans
      {
        Ledger.wall_s = fsum (fun (o : W.outcome) -> o.W.wall_s) outcomes;
        untraced_wall_s;
        workers = List.fold_left (fun acc (o : W.outcome) -> max acc o.W.workers) 1 outcomes;
        propose_s;
        flush_s;
        wait_s = fsum (fun (o : W.outcome) -> o.W.wait_s) outcomes;
      }
  in
  let setup_ledger =
    Ledger.setup_metrics setup_spans
      {
        Ledger.setup_s = setup.W.total_s;
        train_s = setup.W.train_s;
        samples = setup.W.samples;
      }
  in
  let requests = isum (fun (o : W.outcome) -> o.W.requests) outcomes in
  let computed = isum (fun (o : W.outcome) -> o.W.computed) outcomes in
  let dropped = isum (fun (o : W.outcome) -> o.W.dropped) outcomes in
  let io = List.map snd traced in
  let mb_per_s secs =
    let bytes = isum (fun s -> s.bytes) io in
    if secs > 0.0 then f bytes /. 1e6 /. secs else 0.0
  in
  let values =
    [ ("strategy.propose_calls", f (isum (fun sp -> sp.W.calls) probes));
      ("strategy.proposals", f (isum (fun sp -> sp.W.proposals) probes));
      ("strategy.propose_s", propose_s);
      ("strategy.propose_us_p50", pct durs 50.0);
      ("strategy.propose_us_p90", pct durs 90.0);
      ("vm.executions", f executions);
      ("kernel.exec_us_p50", pct exec_us 50.0);
      ("kernel.exec_us_p90", pct exec_us 90.0);
      ("kernel.exec_est_s", Sp_util.Stats.mean exec_us *. f executions /. 1e6);
      ("gc.minor_collections", f (isum (fun (o : W.outcome) -> o.W.gc_minor) outcomes));
      ("gc.major_collections", f (isum (fun (o : W.outcome) -> o.W.gc_major) outcomes));
      ("gc.top_heap_mb", f (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6);
      ("inference.predictions_per_s", if flush_s > 0.0 then f computed /. flush_s else 0.0);
      ("inference.requests", f requests);
      ("inference.computed", f computed);
      ("inference.cache_hits", f (isum (fun (o : W.outcome) -> o.W.cache_hits) outcomes));
      ("inference.dropped", f dropped);
      ("inference.drop_frac", if requests = 0 then 0.0 else f dropped /. f requests);
      ("kernel.generate_s", setup.W.generate_s);
      ("corpus.generate_s", setup.W.corpus_s);
      ("snapshot.bytes", f (isum (fun s -> s.bytes) io));
      ("snapshot.write_mb_per_s", mb_per_s (fsum (fun s -> s.write_s) io));
      ("snapshot.read_mb_per_s", mb_per_s (fsum (fun s -> s.read_s) io))
    ]
    @ ledger @ setup_ledger
  in
  let dropped_events =
    List.fold_left (fun acc t -> acc + Sp_obs.Tracer.dropped t) 0 (Sp_obs.Trace.tracers trace)
  in
  let problems =
    (if dropped_events > 0 then
       [ Printf.sprintf "ledger: the trace ring dropped %d events" dropped_events ]
     else [])
    @
    match List.assoc_opt "unattributed_frac" values with
    | Some u when u >= 0.10 ->
      [ Printf.sprintf "ledger: unattributed_frac %.3f is not below 0.10" u ]
    | _ -> []
  in
  let notes =
    List.filter_map
      (fun (name, xs) ->
        match xs with
        | [] -> None
        | _ ->
          let p, _ = Stat.tail xs ~want:90.0 in
          if p >= 90.0 then None
          else Some (Printf.sprintf "%s reported at p%.1f (%d samples)" name p (List.length xs)))
      [ ("strategy.propose_us_p90", durs);
        ("kernel.exec_us_p90", exec_us);
        ("scheduler.slice_ms_p90", Spans.durations_ms spans "scheduler.slice") ]
  in
  (List.map (fun (n, v) -> (n, single v)) values, problems, notes)

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

(* Set-ups; one warm-up campaign (campaign 0); then campaigns 0 .. n-1,
   each on its own inputs, with n fixed by the run length; then, with
   --trace 1, one traced set-up and the same campaigns again, traced. A
   campaign that runs twice must produce the same report digest both
   times: the seed fixes all inputs, training is deterministic, and
   neither tracing nor the benchmark's probes may change a report. *)
let run_workload o (w : W.t) =
  let campaigns = W.campaigns w ~seconds:o.seconds in
  let root = Filename.concat work_root (Printf.sprintf "%s-%d" w.W.name (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      (* Only the newest environment is kept alive. *)
      let rec setups n times =
        let env, t = W.setup w ~seed:o.seed ~campaigns in
        if n = 1 then (env, List.rev (t :: times))
        else begin
          Gc.full_major ();
          setups (n - 1) (t :: times)
        end
      in
      let env, setup_times = setups setup_runs [] in
      let count = ref 0 in
      let digests = Hashtbl.create 64 in
      (* One campaign in a fresh work directory, which [f] may read before
         it is removed; returns the outcome, its failed checks, and [f]'s
         result. *)
      let with_campaign ?trace ?(probe = false) env ~index f =
        incr count;
        let work_dir = Filename.concat root (Printf.sprintf "c%d" !count) in
        mkdir_p work_dir;
        (* The previous campaign's garbage is collected here rather than
           inside the next campaign's wall time. *)
        Gc.full_major ();
        let out = W.run_campaign ?trace ~probe env w ~index ~work_dir in
        let r = f out work_dir in
        rm_rf work_dir;
        let problems =
          match (out.W.problems, Hashtbl.find_opt digests index) with
          | [], Some d when d <> out.W.digest ->
            [ Printf.sprintf "campaign %d: report digest differs from its first run's" index ]
          | [], None ->
            Hashtbl.add digests index out.W.digest;
            []
          | ps, _ -> List.map (Printf.sprintf "campaign %d: %s" index) ps
        in
        (out, problems, r)
      in
      let campaign index =
        let out, problems, () = with_campaign env ~index (fun _ _ -> ()) in
        (out, problems)
      in
      let warm = campaign 0 in
      let measured = List.init campaigns campaign in
      let outcomes = List.map fst measured in
      (* [checked]: the failed checks of every campaign run; [run_problems]:
         those of the run as a whole. *)
      let metrics, checked, run_problems, notes =
        if not o.trace then
          let metrics, notes = end_to_end_metrics ~setup_times outcomes in
          (metrics, List.map snd (warm :: measured), [], notes)
        else begin
          let setup_trace = Sp_obs.Trace.create ~enabled:true () in
          let env, setup =
            W.setup
              ~tracer:(Sp_obs.Trace.tracer setup_trace ~pid:0 ~name:"setup")
              w ~seed:o.seed ~campaigns
          in
          let trace = Sp_obs.Trace.create ~capacity:(1 lsl 17) ~enabled:true () in
          let traced =
            List.init campaigns (fun index ->
                with_campaign ~trace ~probe:true env ~index (fun _ work_dir ->
                    if w.W.snapshots then snapshot_io w ~work_dir
                    else { bytes = 0; read_s = 0.0; write_s = 0.0 }))
          in
          let metrics, ledger_problems, notes =
            per_layer_metrics env ~setup
              ~setup_spans:(Spans.of_trace (Sp_obs.Trace.export setup_trace))
              ~untraced_wall_s:(fsum (fun (m : W.outcome) -> m.W.wall_s) outcomes)
              ~trace
              (List.map (fun (out, _, io) -> (out, io)) traced)
          in
          ( metrics,
            List.map snd (warm :: measured) @ List.map (fun (_, ps, _) -> ps) traced,
            ledger_problems,
            notes )
        end
      in
      let expected = if o.trace then Catalog.per_layer else Catalog.end_to_end in
      let run_problems =
        run_problems
        @ List.filter_map
            (fun (d : Catalog.metric) ->
              if List.mem_assoc d.Catalog.name metrics then None
              else Some ("metric missing: " ^ d.Catalog.name))
            expected
      in
      let failed_campaigns = List.length (List.filter (( <> ) []) checked) in
      {
        Report.workload = w.W.name;
        correct = failed_campaigns = 0 && run_problems = [];
        attempted = List.length checked;
        failed = (if run_problems = [] then failed_campaigns else max 1 failed_campaigns);
        problems = List.concat checked @ run_problems;
        notes;
        metrics =
          List.filter_map
            (fun (d : Catalog.metric) ->
              Option.map (fun m -> (d.Catalog.name, m)) (List.assoc_opt d.Catalog.name metrics))
            expected;
      })

(* ------------------------------------------------------------------ *)
(* Several workloads: one child process each                           *)
(* ------------------------------------------------------------------ *)

let run_child o name =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; "--workload"; name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = List.fold_left (fun _ l -> Some l) None (In_channel.input_lines ic) in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let failed why =
    {
      Report.workload = name;
      correct = false;
      attempted = 1;
      failed = 1;
      problems = [ why ];
      notes = [];
      metrics = [];
    }
  in
  match (status, Option.map J.of_string last) with
  | Unix.WEXITED (0 | 1), Some (Ok j) -> (
    match J.Decode.run (fun () -> Report.workload_of_json j) with
    | Ok r -> r
    | Error e -> failed ("unreadable child result: " ^ e))
  | _ -> failed "child process failed"

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let print_metrics (r : Report.workload) =
  List.iter
    (fun (name, (m : Report.metric)) ->
      let unit_ = match Catalog.find name with Some d -> d.Catalog.unit_ | None -> "" in
      Printf.printf "%s %s %s %s\n" r.Report.workload name (J.num_to_string m.Report.value)
        unit_)
    r.Report.metrics;
  List.iter (fun p -> Printf.eprintf "%s: FAILED %s\n" r.Report.workload p) r.Report.problems;
  List.iter (fun n -> Printf.eprintf "%s: note: %s\n" r.Report.workload n) r.Report.notes

let provenance o ~started =
  [ ("started", J.Num started);
    ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", J.Str Sys.ocaml_version);
    ("commit", J.Str (git_commit ()));
    ("seed", J.Num (float_of_int o.seed));
    ("seconds", J.Num o.seconds);
    ("trace", J.Bool o.trace)
  ]

let usage =
  "main.exe [--workload W,..] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
   main.exe compare BASE.json NEW.json [BASE.json NEW.json ..] [--benchmark \
   BENCHMARK.json]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json path =
  match J.of_string (Sp_obs.Io.read_file path) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e
  | exception Sys_error e -> fail "%s" e

let compare_cmd args =
  let benchmark = ref "BENCHMARK.json" in
  let files = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list ("compare" :: args))
       [ ("--benchmark", Arg.Set_string benchmark, "FILE bounds (default BENCHMARK.json)") ]
       (fun f -> files := !files @ [ f ])
       usage
   with Arg.Bad msg | Arg.Help msg -> fail "%s" msg);
  let load path =
    match Report.of_json (read_json path) with Ok r -> r | Error e -> fail "%s: %s" path e
  in
  let rec pairs = function
    | b :: n :: rest -> (load b, load n) :: pairs rest
    | [] -> []
    | [ _ ] -> fail "compare needs result files in BASE NEW pairs"
  in
  let pairs = pairs !files in
  if pairs = [] then fail "compare needs result files in BASE NEW pairs";
  let bounds =
    match Report.bounds_of_benchmark (read_json !benchmark) with
    | Ok b -> b
    | Error e -> fail "%s: %s" !benchmark e
  in
  let rows = Report.compare ~bounds pairs in
  Printf.printf "%d pair(s) of runs, %s; a gain needs %d or more alternating pairs\n"
    (List.length pairs)
    (if Report.alternated pairs then "alternating which program ran first"
     else "not alternating which program ran first")
    Report.min_pairs;
  List.iter
    (fun (r : Report.row) ->
      Printf.printf "%-15s %-15s %12.6g -> %12.6g  %+7.1f%%  spread %5.1f%%  wins %d/%d  %s\n"
        r.Report.r_workload r.r_metric r.r_base r.r_next (100.0 *. r.r_change)
        (100.0 *. r.r_spread) r.r_wins r.r_pairs
        (Report.verdict_to_string r.r_verdict))
    rows;
  if List.exists (fun (r : Report.row) -> r.Report.r_verdict = Report.Worse) rows then exit 1

let run_cmd argv =
  let workloads = ref (List.map (fun (w : W.t) -> w.W.name) W.all) in
  let seed = ref 1 and seconds = ref 15.0 in
  let trace = ref false and json = ref None and child = ref false in
  let spec =
    [ ( "--workload",
        Arg.String (fun s -> workloads := String.split_on_char ',' s),
        "W,.. workloads (default all)" );
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S run length, which fixes each workload's campaign count (default 15; 0 runs one \
         campaign)" );
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 run the campaigns again, traced, and report per-layer metrics" );
      ("--json", Arg.String (fun f -> json := Some f), "FILE write the result document");
      ("--child", Arg.Set child, " (internal) print the full result for a parent")
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) argv spec (fun a -> fail "unexpected argument %s" a) usage
   with
  | Arg.Bad msg -> fail "%s" msg
  | Arg.Help msg -> print_string msg; exit 0);
  let o =
    {
      workloads = !workloads;
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      json = !json;
      child = !child;
    }
  in
  if not (o.seconds >= 0.0) then fail "--seconds must not be negative";
  let started = Unix.gettimeofday () in
  let ws =
    List.map
      (fun name ->
        match W.find name with Some w -> w | None -> fail "unknown workload %s" name)
      o.workloads
  in
  let results =
    match ws with
    | [ w ] -> [ run_workload o w ]
    | _ -> List.map (fun (w : W.t) -> run_child o w.W.name) ws
  in
  (try Sys.rmdir work_root with Sys_error _ -> ());
  if not o.child then List.iter print_metrics results;
  Option.iter
    (fun path ->
      Sp_obs.Io.write_atomic path
        (J.to_string
           (Report.to_json { Report.provenance = provenance o ~started; workloads = results })
        ^ "\n"))
    o.json;
  (match results with
  | [ r ] when o.child -> print_endline (J.to_string (Report.workload_json r))
  | _ -> print_endline (Report.contract_line results));
  if List.exists (fun (r : Report.workload) -> not r.Report.correct) results then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: args -> compare_cmd args
  | _ -> run_cmd Sys.argv
