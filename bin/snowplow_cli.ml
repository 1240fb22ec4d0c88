(* Command-line interface to the Snowplow reproduction.

   snowplow kernel-info  — describe a generated kernel
   snowplow gen          — generate and print random test programs
   snowplow run          — execute a test program from a file or stdin
   snowplow fuzz         — run a coverage campaign (syzkaller or snowplow)
   snowplow serve        — multiplex several campaigns over one shared pool
   snowplow train        — train PMM and print Table-1 metrics
   snowplow directed     — directed fuzzing towards a bug's crash site
   snowplow stats        — inspect exported traces / time-series *)

open Cmdliner

module Kernel = Sp_kernel.Kernel
module Campaign = Sp_fuzz.Campaign
module Prog = Sp_syzlang.Prog
module Trace = Sp_obs.Trace
module Timeseries = Sp_obs.Timeseries
module Trace_check = Sp_obs.Trace_check

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Kernel generation seed.")

let version_arg =
  Arg.(
    value
    & opt (enum [ ("6.8", "6.8"); ("6.9", "6.9"); ("6.10", "6.10") ]) "6.8"
    & info [ "kernel" ] ~docv:"VERSION" ~doc:"Kernel version (6.8, 6.9 or 6.10).")

let hours_arg =
  Arg.(
    value & opt float 2.0
    & info [ "hours" ] ~docv:"H" ~doc:"Virtual campaign duration in hours.")

let campaign_seed_arg =
  Arg.(value & opt int 11 & info [ "run-seed" ] ~docv:"SEED" ~doc:"Campaign RNG seed.")

let make_kernel seed version = Kernel.linux_like ~seed ~version

(* ------------------------------------------------------------------ *)
(* kernel-info                                                         *)
(* ------------------------------------------------------------------ *)

let kernel_info seed version =
  let k = make_kernel seed version in
  let db = Kernel.spec_db k in
  Printf.printf "kernel %s (seed %d)\n" (Kernel.version k) seed;
  Printf.printf "  basic blocks : %d\n" (Kernel.num_blocks k);
  Printf.printf "  static edges : %d\n" (Sp_cfg.Cfg.num_edges (Kernel.cfg k));
  Printf.printf "  syscalls     : %d\n" (Sp_syzlang.Spec.count db);
  Printf.printf "  bugs         : %d (%d known / %d new)\n"
    (Array.length (Kernel.bugs k))
    (List.length (List.filter (fun (b : Sp_kernel.Bug.t) -> b.known)
                    (Array.to_list (Kernel.bugs k))))
    (List.length (List.filter (fun (b : Sp_kernel.Bug.t) -> not b.known)
                    (Array.to_list (Kernel.bugs k))));
  print_endline "  interface:";
  List.iter
    (fun spec -> Format.printf "    %a@." Sp_syzlang.Spec.pp spec)
    (Sp_syzlang.Spec.all db)

let kernel_info_cmd =
  Cmd.v
    (Cmd.info "kernel-info" ~doc:"Describe a generated synthetic kernel.")
    Term.(const kernel_info $ seed_arg $ version_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen seed version count =
  let k = make_kernel seed version in
  let rng = Sp_util.Rng.create (seed lxor 0x9e9) in
  List.iter
    (fun prog ->
      print_string (Prog.to_string prog);
      print_newline ())
    (Sp_syzlang.Gen.corpus rng (Kernel.spec_db k) ~size:count)

let gen_cmd =
  let count =
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of programs.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate random well-formed test programs.")
    Term.(const gen $ seed_arg $ version_arg $ count)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_prog seed version file =
  let k = make_kernel seed version in
  let db = Kernel.spec_db k in
  let text =
    match file with
    | Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    | None -> In_channel.input_all stdin
  in
  match Sp_syzlang.Parser.program db text with
  | Error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 1
  | Ok prog ->
    let r = Kernel.execute k prog in
    Printf.printf "covered %d blocks, %d edges\n"
      (Sp_util.Bitset.cardinal r.Kernel.covered)
      (Sp_util.Bitset.cardinal r.Kernel.covered_edges);
    (match r.Kernel.crash with
    | Some c ->
      Printf.printf "CRASH at call %d: %s\n" c.Kernel.crash_call
        (Sp_kernel.Bug.description c.Kernel.bug)
    | None -> print_endline "no crash")

let run_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Program file (defaults to stdin).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a test program against the kernel.")
    Term.(const run_prog $ seed_arg $ version_arg $ file)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

(* All artifact writes go through the atomic writer: the old in-place
   writer leaked its channel on exception and could leave a torn file. *)
let write_text_file path data = Sp_obs.Io.write_atomic path data

let fuzz seed version hours run_seed system jobs trace_file ts_file
    snapshot_dir resume_file =
  if jobs < 1 then begin
    prerr_endline "snowplow fuzz: -jobs must be >= 1";
    exit 1
  end;
  let k = make_kernel seed version in
  let db = Kernel.spec_db k in
  let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create (run_seed lxor 0x5eed)) db ~size:100 in
  let cfg =
    {
      Campaign.default_config with
      seed_corpus = seeds;
      seed = run_seed;
      duration = hours *. 3600.0;
      snapshot_every = Float.max 600.0 (hours *. 3600.0 /. 12.0);
      attempt_repro = true;
    }
  in
  let trace =
    if trace_file = None then Trace.disabled
    else Trace.create ~enabled:true ()
  in
  let timeseries = Option.map (fun _ -> Timeseries.create ()) ts_file in
  (* Shared with the campaign's own pid-0 handout (Trace.tracer memoizes
     by pid): the inference/funnel spans land in the main domain's lane,
     which is also where their calls run. *)
  let main_tracer = Trace.tracer trace ~pid:0 ~name:"campaign-main" in
  (* Per-shard VM seeds are a pure function of (run_seed, shard), so a
     parallel run is reproducible from (seed, jobs) alone. *)
  let vm_for s = Sp_fuzz.Vm.create ~seed:(run_seed + (7919 * s)) k in
  (* One launcher for both systems: fresh campaigns start from the
     config (snapshotting at barriers when --snapshot-dir is given),
     resumed ones restore from the snapshot file, which the constructor
     validates against the flags — resuming demands the same
     seed/hours/jobs/system flags the snapshotted campaign was launched
     with. *)
  let launch ?ts_extra ?on_barrier ?aux ~strategy_for () =
    let create ?restore () =
      Campaign.create_instance ~trace ?timeseries ?ts_extra ?on_barrier ?aux
        ?snapshot_dir ?restore ~jobs ~vm_for ~strategy_for cfg
    in
    let inst =
      match resume_file with
      | None -> create ()
      | Some file -> (
        match Sp_fuzz.Snapshot.read file with
        | Error msg ->
          Printf.eprintf "snowplow fuzz: cannot read snapshot %s: %s\n" file msg;
          exit 1
        | Ok snap -> (
          match Sp_obs.Json.Decode.run (fun () -> create ~restore:snap ()) with
          | Ok inst -> inst
          | Error msg ->
            Printf.eprintf "snowplow fuzz: cannot resume from %s: %s\n" file
              msg;
            exit 1))
    in
    Campaign.run inst
  in
  let name, run_campaign =
    match system with
    | `Syzkaller ->
      ( "Syzkaller",
        fun () ->
          launch ~strategy_for:(fun _ -> Sp_fuzz.Strategy.syzkaller db) () )
    | `Snowplow ->
      ( "Snowplow",
        fun () ->
          print_endline "training PMM first (this takes a few minutes)...";
          let p = Snowplow.Pipeline.train ~tracer:main_tracer () in
          let inference =
            Snowplow.Pipeline.inference_for ~tracer:main_tracer p k
          in
          (* Service-side columns for the time-series: all read at the
             snapshot grid on the main domain from barrier-merged state,
             so they stay inside the determinism contract. *)
          let ts_extra () =
            [
              ("inference.pending",
               float_of_int (Snowplow.Inference.pending inference));
              ("inference.served",
               float_of_int (Snowplow.Inference.served inference));
              ("inference.cache_hits",
               float_of_int (Snowplow.Inference.cache_hits inference));
              ("inference.cache_size",
               float_of_int (Snowplow.Inference.cache_size inference));
            ]
          in
          (* One inference service for the whole fleet: shards enqueue
             into per-shard outboxes and the funnel forwards them as one
             batch at each snapshot barrier, on the main domain. *)
          let funnel =
            Snowplow.Funnel.create ~tracer:main_tracer ~shards:jobs inference
          in
          (* Service, funnel lanes and per-shard prediction memos ride in
             the snapshot's aux field, so a resumed snowplow campaign
             matches its uninterrupted run exactly. *)
          let predictions =
            Array.init jobs (fun _ -> Snowplow.Hybrid.make_predictions ())
          in
          let aux =
            Snowplow.Persist.aux
              ~parse:(Sp_syzlang.Parser.program db)
              ~inference ~funnel ~predictions
          in
          let ts_extra () =
            ts_extra ()
            @ [
                ("funnel.deferred",
                 float_of_int (Snowplow.Funnel.requests_deferred funnel));
                ("funnel.dropped", float_of_int (Snowplow.Funnel.dropped funnel));
              ]
          in
          launch ~ts_extra ~aux
            ~strategy_for:(fun s ->
              Snowplow.Hybrid.strategy_with ~predictions:(predictions.(s))
                ~endpoint:(Snowplow.Funnel.endpoint funnel ~shard:s)
                k)
            ~on_barrier:(fun ~now -> ignore (Snowplow.Funnel.flush funnel ~now))
            () )
  in
  Printf.printf "fuzzing %s for %.1f virtual hours with %s (%d job%s)...\n%!"
    version hours name jobs
    (if jobs = 1 then "" else "s");
  let r = run_campaign () in
  Printf.printf "%-8s %10s %10s %8s\n" "uptime" "blocks" "edges" "crashes";
  List.iter
    (fun (s : Campaign.snapshot) ->
      Printf.printf "%6.1f h %10d %10d %8d\n" (s.Campaign.s_time /. 3600.0)
        s.Campaign.s_blocks s.Campaign.s_edges s.Campaign.s_crashes)
    r.Campaign.series;
  Printf.printf "\nexecutions %d, corpus %d, crashes %d (%d new)\n"
    r.Campaign.executions r.Campaign.corpus_size
    (List.length r.Campaign.crashes)
    (List.length r.Campaign.new_crashes);
  List.iter
    (fun (f : Sp_fuzz.Triage.found) ->
      Printf.printf "  [%s] %s%s\n"
        (if Sp_fuzz.Triage.is_known
              (Sp_fuzz.Triage.create k) f.Sp_fuzz.Triage.description
         then "known" else " new ")
        f.Sp_fuzz.Triage.description
        (match f.Sp_fuzz.Triage.reproducer with
        | Some _ -> " (reproducer available)"
        | None -> ""))
    r.Campaign.crashes;
  (match trace_file with
  | Some path ->
    Trace.write_file trace path;
    Printf.printf "trace written to %s\n" path
  | None -> ());
  match (ts_file, timeseries) with
  | Some path, Some ts ->
    let data =
      if Filename.check_suffix path ".csv" then Timeseries.to_csv ts
      else Timeseries.to_jsonl ts
    in
    write_text_file path data;
    Printf.printf "timeseries written to %s (%d rows)\n" path
      (Timeseries.length ts)
  | _ -> ()

let snapshot_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the campaign state to $(docv)/snapshot-NNNNNN.json after \
           every merge barrier (written atomically: a kill mid-write leaves \
           the previous snapshot intact). A killed campaign can then be \
           continued with $(b,--resume).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume a campaign from a snapshot file written via \
           $(b,--snapshot-dir). Pass the same seed/hours/jobs/system flags \
           as the original launch (validated against the snapshot). The \
           resumed report is bit-identical to the uninterrupted run's — \
           snowplow's inference/funnel caches are part of the snapshot.")

let system_arg =
  Arg.(
    value
    & opt (enum [ ("syzkaller", `Syzkaller); ("snowplow", `Snowplow) ]) `Syzkaller
    & info [ "system" ] ~docv:"SYS" ~doc:"Fuzzer to run: syzkaller or snowplow.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker shards (OCaml domains): N VMs fuzz independently \
           between snapshot barriers and merge deterministically, so \
           results are reproducible given (run-seed, jobs).")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON trace of the campaign to \
           $(docv) (load it in chrome://tracing or Perfetto, or inspect \
           it with $(b,snowplow stats --trace)).")

let timeseries_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Write the campaign time-series to $(docv): one JSON object per \
           snapshot-grid row (JSONL), or CSV when $(docv) ends in .csv. \
           Rows are sampled from barrier-merged state on the virtual \
           clock, so the file is bit-for-bit reproducible given \
           (run-seed, jobs).")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a coverage-directed fuzzing campaign.")
    Term.(
      const fuzz $ seed_arg $ version_arg $ hours_arg $ campaign_seed_arg
      $ system_arg $ jobs_arg $ trace_file_arg $ timeseries_file_arg
      $ snapshot_dir_arg $ resume_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

type tenant_spec = {
  tn_name : string;
  tn_system : [ `Syzkaller | `Snowplow ];
  tn_jobs : int;
  tn_hours : float;
  tn_seed : int;
  tn_weight : float;
  tn_budget : int option;
  tn_corpus : int;
}

(* The --tenants file: a JSON array of {"name", "system", "jobs",
   "hours", "run_seed", "weight", "exec_budget", "corpus_size"}; only
   "name" is required. Every invalid entry is reported — one pass over
   the roster collects them all into a single error message, so a bad
   ten-tenant file is fixed in one edit, not ten. *)
let tenant_specs_of_json j =
  let module J = Sp_obs.Json in
  let module D = J.Decode in
  let opt name f default tj = if J.member name tj = None then default else f name tj in
  let spec tj =
    let s =
      {
        tn_name = D.str_field "name" tj;
        tn_system =
          (match opt "system" D.str_field "syzkaller" tj with
          | "syzkaller" -> `Syzkaller
          | "snowplow" -> `Snowplow
          | s -> D.error "system: unknown fuzzer %S" s);
        tn_jobs = opt "jobs" D.int_field 1 tj;
        tn_hours = opt "hours" D.num_field 1.0 tj;
        tn_seed = opt "run_seed" D.int_field 11 tj;
        tn_weight = opt "weight" D.num_field 1.0 tj;
        tn_budget =
          (if J.member "exec_budget" tj = None then None
           else Some (D.int_field "exec_budget" tj));
        tn_corpus = opt "corpus_size" D.int_field 100 tj;
      }
    in
    if s.tn_name = "" then D.error "name: must be non-empty";
    if s.tn_jobs < 1 then D.error "jobs: must be >= 1 (got %d)" s.tn_jobs;
    if not (Float.is_finite s.tn_weight && s.tn_weight > 0.0) then
      D.error "weight: must be finite and positive (got %g)" s.tn_weight;
    if not (Float.is_finite s.tn_hours && s.tn_hours > 0.0) then
      D.error "hours: must be finite and positive (got %g)" s.tn_hours;
    (match s.tn_budget with
    | Some b when b < 0 -> D.error "exec_budget: must be >= 0 (got %d)" b
    | Some _ | None -> ());
    s
  in
  match j with
  | J.Arr [] -> Error "tenants file: at least one tenant required"
  | J.Arr tenants ->
    let specs, errors =
      List.fold_left
        (fun (specs, errors) (i, tj) ->
          match D.run (fun () -> spec tj) with
          | Ok s -> (s :: specs, errors)
          | Error e ->
            (specs, Printf.sprintf "tenant entry %d: %s" i e :: errors))
        ([], [])
        (List.mapi (fun i tj -> (i, tj)) tenants)
    in
    let specs = List.rev specs in
    let dup_errors =
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun s ->
          if s.tn_name <> "" && Hashtbl.mem seen s.tn_name then
            Some (Printf.sprintf "duplicate tenant name %S" s.tn_name)
          else begin
            Hashtbl.add seen s.tn_name ();
            None
          end)
        specs
    in
    let errors = List.rev_append errors dup_errors in
    if errors <> [] then Error (String.concat "\n" errors) else Ok specs
  | _ -> Error "tenants file: expected a JSON array of tenant objects"

let serve seed version tenants_file workers snapshot_root resume trace_file
    ts_file max_slices fault_plan_file max_tenant_retries listen
    listen_port_file events_file summary_json =
  let k = make_kernel seed version in
  let db = Kernel.spec_db k in
  let specs =
    match Sp_obs.Json.of_string (Sp_obs.Io.read_file tenants_file) with
    | Error e ->
      Printf.eprintf "snowplow serve: %s: JSON parse error: %s\n" tenants_file e;
      exit 1
    | Ok j -> (
      match tenant_specs_of_json j with
      | Error e ->
        Printf.eprintf "snowplow serve: %s: %s\n" tenants_file e;
        exit 1
      | Ok specs -> specs)
  in
  let faults =
    match fault_plan_file with
    | None -> Sp_util.Faults.disabled
    | Some file -> (
      match Sp_obs.Json.of_string (Sp_obs.Io.read_file file) with
      | Error e ->
        Printf.eprintf "snowplow serve: %s: JSON parse error: %s\n" file e;
        exit 1
      | Ok j -> (
        match Sp_util.Faults.of_json j with
        | Error e ->
          Printf.eprintf "snowplow serve: %s: %s\n" file e;
          exit 1
        | Ok f -> f))
  in
  let trace =
    if trace_file = None then Trace.disabled else Trace.create ~enabled:true ()
  in
  let timeseries = Option.map (fun _ -> Timeseries.create ()) ts_file in
  (* The structured event log replaces ad-hoc stderr prints: one bounded
     ring (feeding the exporter's /events endpoint) plus an optional
     JSONL sink. Armed whenever anything can observe it. *)
  let events_chan = Option.map open_out events_file in
  let events =
    if Option.is_none events_chan && Option.is_none listen then
      Sp_obs.Events.null
    else
      Sp_obs.Events.create
        ?sink:
          (Option.map
             (fun oc line ->
               output_string oc line;
               output_char oc '\n';
               flush oc)
             events_chan)
        ()
  in
  (* Fault injections become Warn events instead of being invisible
     until the final count — the observer fires on whichever domain hit
     the site, and Events.log is thread-safe. *)
  Sp_util.Faults.set_observer faults (fun site ~k ->
      Sp_obs.Events.log events ~level:Sp_obs.Events.Warn ~kind:"fault.injected"
        [ ("site", Sp_obs.Json.Str site); ("k", Sp_obs.Json.Num (float_of_int k)) ]);
  (* One warm service + one multi-tenant funnel for every snowplow
     tenant: the shared-inference deployment the paper runs, and the
     cold-start amortization bench/exp_sched.ml measures. Each tenant
     gets its own funnel lane (outboxes/inboxes + request tag), so its
     prediction stream depends only on its own request history. *)
  let service =
    if not (List.exists (fun s -> s.tn_system = `Snowplow) specs) then None
    else begin
      print_endline "training PMM first (this takes a few minutes)...";
      (* SNOWPLOW_QUICK shrinks training to the integration-test scale —
         the CI chaos smoke uses it to keep the serve run under a minute.
         The model is bad; the plumbing it exercises is the same. *)
      let config =
        if Sys.getenv_opt "SNOWPLOW_QUICK" = None then None
        else
          Some
            {
              Snowplow.Pipeline.default_config with
              kernel_seed = 19;
              gen_bases = 40;
              corpus_bases = 40;
              warmup_duration = 900.0;
              dataset =
                {
                  Snowplow.Dataset.default_config with
                  mutations_per_base = 200;
                };
              encoder = { Snowplow.Encoder.default_config with steps = 600 };
              trainer =
                {
                  Snowplow.Trainer.default_config with
                  epochs = 4;
                  log_every = 0;
                };
            }
      in
      let t0 = Unix.gettimeofday () in
      let p = Snowplow.Pipeline.train ?config () in
      let train_wall = Unix.gettimeofday () -. t0 in
      (* Trainer throughput as a static gauge: example presentations per
         wall second over the whole pretraining run. *)
      let samples_per_s =
        let epochs =
          (Option.value config ~default:Snowplow.Pipeline.default_config)
            .Snowplow.Pipeline.trainer
            .Snowplow.Trainer.epochs
        in
        let presented =
          Array.length p.Snowplow.Pipeline.split.Snowplow.Dataset.train * epochs
        in
        if train_wall > 0.0 then float_of_int presented /. train_wall else 0.0
      in
      let inference = Snowplow.Pipeline.inference_for p k in
      (* Degradation (lane breakers, retries, timeouts) only arms
         together with a fault plan: the base service cannot stall on
         its own, so without injected faults the machinery would be pure
         (byte-compat-threatening) dead weight. *)
      let degrade =
        if Sp_util.Faults.enabled faults then
          Some Snowplow.Funnel.default_degrade
        else None
      in
      let funnel =
        Snowplow.Funnel.create_multi ?degrade ~faults ~events
          ~tenant_shards:(Array.of_list (List.map (fun s -> s.tn_jobs) specs))
          inference
      in
      Some (inference, funnel, samples_per_s)
    end
  in
  (* Latest barrier virtual time across snowplow tenants: what the
     telemetry extra-metrics closure passes to [Funnel.lane_stats] (the
     breaker's half-open decision is clocked). Written only inside
     barrier hooks and read only between slices — both on the
     scheduling domain. *)
  let last_barrier_now = ref 0.0 in
  let tenants =
    List.mapi
      (fun i s ->
        let cfg =
          {
            Campaign.default_config with
            seed_corpus =
              Sp_syzlang.Gen.corpus
                (Sp_util.Rng.create (s.tn_seed lxor 0x5eed))
                db ~size:s.tn_corpus;
            seed = s.tn_seed;
            duration = s.tn_hours *. 3600.0;
            snapshot_every = Float.max 600.0 (s.tn_hours *. 3600.0 /. 12.0);
            attempt_repro = true;
          }
        in
        let vm_for sh = Sp_fuzz.Vm.create ~seed:(s.tn_seed + (7919 * sh)) k in
        let snapshot_dir =
          Option.map (fun root -> Filename.concat root s.tn_name) snapshot_root
        in
        let restore =
          match (resume, snapshot_dir) with
          | false, _ | _, None -> None
          | true, Some dir -> (
            (* [latest_valid] scans past a torn/corrupt newest snapshot
               (warning per skip) to the most recent one that parses —
               a kill mid-write never strands the tenant. *)
            match Sp_fuzz.Snapshot.latest_valid ~dir () with
            | None ->
              Printf.printf "tenant %-12s no snapshot in %s, starting fresh\n"
                s.tn_name dir;
              None
            | Some (_, file, snap) ->
              Printf.printf "tenant %-12s resuming from %s\n" s.tn_name file;
              Some snap)
        in
        let strategy_for, on_barrier, aux =
          match s.tn_system with
          | `Syzkaller ->
            ((fun _ -> Sp_fuzz.Strategy.syzkaller db), None, None)
          | `Snowplow ->
            let inference, funnel, _ = Option.get service in
            let predictions =
              Array.init s.tn_jobs (fun _ ->
                  Snowplow.Hybrid.make_predictions ())
            in
            ( (fun sh ->
                Snowplow.Hybrid.strategy_with
                  ~predictions:(predictions.(sh))
                  ~degraded:(fun () ->
                    Snowplow.Funnel.lane_degraded funnel ~tenant:i)
                  ~endpoint:(Snowplow.Funnel.endpoint_for funnel ~tenant:i ~shard:sh)
                  k),
              Some
                (fun ~now ->
                  last_barrier_now := Float.max !last_barrier_now now;
                  ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:i ~now)),
              (* Shared-service state rides in every snowplow tenant's
                 snapshot; on a multi-tenant resume the last restored
                 tenant's view wins (best effort — solo resume is
                 exact). *)
              Some
                (Snowplow.Persist.aux
                   ~parse:(Sp_syzlang.Parser.program db)
                   ~inference ~funnel ~predictions) )
        in
        Sp_fuzz.Scheduler.tenant ~weight:s.tn_weight ?exec_budget:s.tn_budget
          ?on_barrier ?snapshot_dir ?restore ?aux ~name:s.tn_name
          ~jobs:s.tn_jobs ~vm_for ~strategy_for cfg)
      specs
  in
  (* Extra exposition series the scheduler cannot see: the shared
     inference service, the funnel lanes, and the (static) trainer
     throughput. Called on the scheduling domain between slices, so
     every read is barrier-stable. *)
  let extra_metrics () =
    let module E = Sp_obs.Exposition in
    match service with
    | None -> []
    | Some (inference, funnel, samples_per_s) ->
      let svc name help v =
        E.metric ~help E.Gauge ("snowplow_inference_" ^ name) v
      in
      let base =
        [ E.metric ~help:"PMM training throughput over the pretraining run"
            E.Gauge "snowplow_trainer_samples_per_second" samples_per_s;
          svc "pending" "requests queued in the shared service"
            (float_of_int (Snowplow.Inference.pending inference));
          E.metric ~help:"predictions served" E.Counter
            "snowplow_inference_served"
            (float_of_int (Snowplow.Inference.served inference));
          E.metric ~help:"prediction cache hits" E.Counter
            "snowplow_inference_cache_hits"
            (float_of_int (Snowplow.Inference.cache_hits inference));
          svc "cache_size" "cached predictions"
            (float_of_int (Snowplow.Inference.cache_size inference))
        ]
      in
      let lanes =
        List.concat
          (List.mapi
             (fun i s ->
               let labels = [ ("tenant", s.tn_name) ] in
               let gauge name help v =
                 E.metric ~help ~labels E.Gauge ("snowplow_funnel_" ^ name) v
               in
               let counter name help v =
                 E.metric ~help ~labels E.Counter ("snowplow_funnel_" ^ name) v
               in
               let common =
                 [ gauge "queue_depth"
                     "outbox + inbox + pending-retry requests parked in the \
                      lane"
                     (float_of_int
                        (Snowplow.Funnel.tenant_queue_depth funnel ~tenant:i));
                   counter "deferred" "requests accepted into the lane"
                     (float_of_int
                        (Snowplow.Funnel.tenant_deferred funnel ~tenant:i));
                   counter "dropped" "requests refused by the lane"
                     (float_of_int
                        (Snowplow.Funnel.tenant_dropped funnel ~tenant:i))
                 ]
               in
               match
                 Snowplow.Funnel.lane_stats funnel ~tenant:i
                   ~now:!last_barrier_now
               with
               | None -> common
               | Some ls ->
                 common
                 @ [ E.metric
                       ~help:
                         "breaker state (0 closed, 1 half-open, 2 open, -1 \
                          unknown)"
                       ~labels E.Gauge "snowplow_breaker_state"
                       (match ls.Snowplow.Funnel.ls_state with
                       | "closed" -> 0.0
                       | "half-open" -> 1.0
                       | "open" -> 2.0
                       | _ -> -1.0);
                     E.metric ~help:"breaker trips" ~labels E.Counter
                       "snowplow_breaker_trips"
                       (float_of_int ls.Snowplow.Funnel.ls_trips);
                     E.metric ~help:"lane errors (timeouts + failures)"
                       ~labels E.Counter "snowplow_breaker_errors"
                       (float_of_int ls.Snowplow.Funnel.ls_errors);
                     E.metric ~help:"requests shed while degraded" ~labels
                       E.Counter "snowplow_breaker_shed"
                       (float_of_int ls.Snowplow.Funnel.ls_shed)
                   ])
             specs)
      in
      base @ lanes
  in
  let exporter =
    match listen with
    | None -> None
    | Some port -> (
      let ex = Sp_obs.Exporter.create ~events () in
      match Sp_obs.Exporter.start ex ~port with
      | Error e ->
        Printf.eprintf "snowplow serve: --listen %d: %s\n" port e;
        exit 1
      | Ok actual ->
        Printf.printf "telemetry exporter listening on 127.0.0.1:%d\n%!" actual;
        (match listen_port_file with
        | Some f -> write_text_file f (string_of_int actual ^ "\n")
        | None -> ());
        Some ex)
  in
  let telemetry =
    Option.map (fun ex -> Sp_fuzz.Scheduler.telemetry ~extra:extra_metrics ex)
      exporter
  in
  Printf.printf "serving %d tenant%s on kernel %s...\n%!" (List.length specs)
    (if List.length specs = 1 then "" else "s")
    version;
  let result =
    Sp_fuzz.Scheduler.run ?workers ~trace ?timeseries ?max_slices ~faults
      ?max_tenant_retries ~events ?telemetry tenants
  in
  let finish_telemetry () =
    Option.iter Sp_obs.Exporter.stop exporter;
    Option.iter close_out events_chan
  in
  match result with
  | Error msg ->
    finish_telemetry ();
    Printf.eprintf "snowplow serve: %s\n" msg;
    exit 1
  | Ok r ->
    let module S = Sp_fuzz.Scheduler in
    Printf.printf "%d slices over %d workers\n\n" r.S.sr_slices r.S.sr_workers;
    Printf.printf "%-12s %6s %6s %10s %8s %7s  %s\n" "tenant" "weight"
      "slices" "execs" "crashes" "corpus" "status";
    List.iter
      (fun tr ->
        Printf.printf "%-12s %6.1f %6d %10d %8d %7d  %s\n" tr.S.tr_name
          tr.S.tr_weight tr.S.tr_slices tr.S.tr_executions
          (List.length tr.S.tr_report.Campaign.crashes)
          tr.S.tr_report.Campaign.corpus_size
          (if tr.S.tr_quarantined then
             Printf.sprintf "quarantined after %d failure%s"
               (List.length tr.S.tr_failures)
               (if List.length tr.S.tr_failures = 1 then "" else "s")
           else if tr.S.tr_completed then
             if tr.S.tr_retries > 0 then
               Printf.sprintf "completed (%d retr%s)" tr.S.tr_retries
                 (if tr.S.tr_retries = 1 then "y" else "ies")
             else "completed"
           else if tr.S.tr_budget_exhausted then "budget exhausted"
           else "cut by --max-slices"))
      r.S.sr_tenants;
    let failed =
      List.filter (fun tr -> tr.S.tr_failures <> []) r.S.sr_tenants
    in
    if failed <> [] then begin
      Printf.printf "\n%-12s %4s %8s %6s  %s\n" "tenant" "gen" "barrier"
        "slice" "failure";
      List.iter
        (fun tr ->
          List.iter
            (fun (fl : S.failure) ->
              let first_line =
                match String.index_opt fl.S.fl_exn '\n' with
                | None -> fl.S.fl_exn
                | Some i -> String.sub fl.S.fl_exn 0 i
              in
              Printf.printf "%-12s %4d %8d %6d  %s\n" tr.S.tr_name
                fl.S.fl_generation fl.S.fl_barrier fl.S.fl_slice first_line)
            tr.S.tr_failures)
        failed
    end;
    if Sp_util.Faults.enabled faults then
      Printf.printf "\n%d fault%s injected\n"
        (Sp_util.Faults.injected faults)
        (if Sp_util.Faults.injected faults = 1 then "" else "s");
    (match trace_file with
    | Some path ->
      Trace.write_file trace path;
      Printf.printf "trace written to %s\n" path
    | None -> ());
    (match (ts_file, timeseries) with
    | Some path, Some ts ->
      let data =
        if Filename.check_suffix path ".csv" then Timeseries.to_csv ts
        else Timeseries.to_jsonl ts
      in
      write_text_file path data;
      Printf.printf "timeseries written to %s (%d rows)\n" path
        (Timeseries.length ts)
    | _ -> ());
    (* Machine-readable run summary, written atomically — what the CI
       smoke asserts against instead of scraping stdout. Derived only
       from the report, so it is byte-identical for identical runs. *)
    (match summary_json with
    | None -> ()
    | Some path ->
      let module J = Sp_obs.Json in
      let tenant_json tr =
        J.Obj
          [ ("name", J.Str tr.S.tr_name);
            ("weight", J.Num tr.S.tr_weight);
            ("slices", J.Num (float_of_int tr.S.tr_slices));
            ("executions", J.Num (float_of_int tr.S.tr_executions));
            ( "crashes",
              J.Num
                (float_of_int (List.length tr.S.tr_report.Campaign.crashes)) );
            ( "corpus_size",
              J.Num (float_of_int tr.S.tr_report.Campaign.corpus_size) );
            ("completed", J.Bool tr.S.tr_completed);
            ("quarantined", J.Bool tr.S.tr_quarantined);
            ("budget_exhausted", J.Bool tr.S.tr_budget_exhausted);
            ("retries", J.Num (float_of_int tr.S.tr_retries));
            ("failures", J.Num (float_of_int (List.length tr.S.tr_failures)))
          ]
      in
      let doc =
        J.Obj
          [ ("slices", J.Num (float_of_int r.S.sr_slices));
            ("workers", J.Num (float_of_int r.S.sr_workers));
            ( "faults_injected",
              J.Num (float_of_int (Sp_util.Faults.injected faults)) );
            ("tenants", J.Arr (List.map tenant_json r.S.sr_tenants))
          ]
      in
      Sp_obs.Io.write_atomic path (J.to_string doc ^ "\n");
      Printf.printf "summary written to %s\n" path);
    finish_telemetry ();
    (* Partial failure is still service: the run only counts as failed
       when not a single tenant survived. *)
    if List.for_all (fun tr -> tr.S.tr_quarantined) r.S.sr_tenants then begin
      Printf.eprintf "snowplow serve: every tenant was quarantined\n";
      exit 1
    end

let serve_cmd =
  let tenants_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "tenants" ] ~docv:"FILE"
          ~doc:
            "JSON tenant roster: an array of objects with fields \
             $(b,name) (required), $(b,system) (syzkaller|snowplow), \
             $(b,jobs), $(b,hours), $(b,run_seed), $(b,weight), \
             $(b,exec_budget), $(b,corpus_size).")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Shared pool size (defaults to the largest tenant's jobs). \
             Each scheduler round admits tenants in stride order while \
             their summed jobs fit.")
  in
  let snapshot_root =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-root" ] ~docv:"DIR"
          ~doc:
            "Per-tenant snapshot directories $(docv)/NAME, written at each \
             tenant's merge barriers exactly as $(b,snowplow fuzz \
             --snapshot-dir) does.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume every tenant from its latest snapshot under \
             $(b,--snapshot-root) (tenants without one start fresh). Each \
             tenant's resumed report is bit-identical to its \
             uninterrupted scheduled run.")
  in
  let max_slices =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-slices" ] ~docv:"N"
          ~doc:
            "Stop after admitting $(docv) barrier slices (with \
             $(b,--snapshot-root), a clean kill point to $(b,--resume) \
             from).")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"FILE"
          ~doc:
            "Deterministic fault-injection plan (JSON: $(b,seed), \
             optional $(b,default_rate), $(b,rates), $(b,schedule)). \
             Arms the pool/campaign/inference injection sites and the \
             per-tenant inference breakers; the same plan replays the \
             same failures byte-for-byte. See DESIGN.md \
             \xc2\xa712.")
  in
  let max_tenant_retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tenant-retries" ] ~docv:"N"
          ~doc:
            "Retry generations a failing tenant gets (exponential \
             backoff, resumed from its last good snapshot) before it is \
             quarantined (default 3).")
  in
  let listen =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Serve live telemetry over HTTP on 127.0.0.1:$(docv) (0 picks \
             an ephemeral port): $(b,/metrics) (Prometheus text \
             exposition), $(b,/health) and $(b,/tenants) (JSON), \
             $(b,/events?since=N). Endpoints read immutable snapshots \
             published at barriers, so arming the exporter cannot change \
             any report or snapshot byte.")
  in
  let listen_port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen-port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound exporter port to $(docv) — how scripts find \
             the port picked by $(b,--listen 0).")
  in
  let events_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Append the structured event log (slice/snapshot/failure/\
             breaker/fault events) to $(docv) as JSON lines.")
  in
  let summary_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-json" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable run summary (per-tenant slices, \
             executions, crashes, status flags) to $(docv), atomically.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Multiplex several campaigns over one shared worker pool (and, \
          for snowplow tenants, one shared warm inference service).")
    Term.(
      const serve $ seed_arg $ version_arg $ tenants_file $ workers
      $ snapshot_root $ resume $ trace_file_arg $ timeseries_file_arg
      $ max_slices $ fault_plan $ max_tenant_retries $ listen
      $ listen_port_file $ events_file $ summary_json)

(* ------------------------------------------------------------------ *)
(* train                                                               *)
(* ------------------------------------------------------------------ *)

let train jobs trace_file =
  let trace =
    if trace_file = None then Trace.disabled else Trace.create ~enabled:true ()
  in
  let main_tracer = Trace.tracer trace ~pid:0 ~name:"train-main" in
  (* One tracer per stripe (pids 2001+s): a stripe is executed by exactly
     one pool task per batch, so each tracer stays single-writer no
     matter which domain steals the task. *)
  let tracer_for s =
    Trace.tracer trace ~pid:(2001 + s) ~name:(Printf.sprintf "train-stripe-%d" s)
  in
  let config =
    (* SNOWPLOW_QUICK shrinks the pipeline to integration-test scale, the
       same dial `serve` uses — the CI smoke trains in seconds and still
       exercises the full striped path. *)
    let base =
      if Sys.getenv_opt "SNOWPLOW_QUICK" = None then
        Snowplow.Pipeline.default_config
      else
        {
          Snowplow.Pipeline.default_config with
          kernel_seed = 19;
          gen_bases = 40;
          corpus_bases = 40;
          warmup_duration = 900.0;
          dataset =
            { Snowplow.Dataset.default_config with mutations_per_base = 200 };
          encoder = { Snowplow.Encoder.default_config with steps = 600 };
          trainer =
            { Snowplow.Trainer.default_config with epochs = 4; log_every = 0 };
        }
    in
    { base with trainer = { base.trainer with jobs } }
  in
  let p = Snowplow.Pipeline.train ~config ~tracer:main_tracer ~tracer_for () in
  let pmm = Snowplow.Pipeline.eval_scores p in
  let rand = Snowplow.Pipeline.rand_baseline p ~k:8 in
  Format.printf "PMModel: %a@." Sp_ml.Metrics.pp pmm;
  Format.printf "Rand.8 : %a@." Sp_ml.Metrics.pp rand;
  Printf.printf "threshold %.2f, %d parameters\n"
    (Snowplow.Pmm.threshold p.Snowplow.Pipeline.model)
    (Snowplow.Pmm.num_parameters p.Snowplow.Pipeline.model);
  match trace_file with
  | Some path ->
    Trace.write_file trace path;
    Printf.printf "trace written to %s\n" path
  | None -> ()

let train_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Training stripe parallelism: each mini-batch is sharded into \
             $(docv) contiguous stripes evaluated on a domain pool, with a \
             deterministic stripe-order gradient reduction. $(docv)=1 is \
             the sequential path (byte-identical to earlier releases).")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train PMM and report Table-1 selector metrics.")
    Term.(const train $ jobs $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* directed                                                            *)
(* ------------------------------------------------------------------ *)

let directed seed version hours run_seed bug_id =
  let k = make_kernel seed version in
  let bug = Kernel.bug k bug_id in
  let target =
    let rec go i =
      if i >= Kernel.num_blocks k then failwith "bug has no crash block"
      else
        match (Kernel.block k i).Sp_kernel.Ir.term with
        | Sp_kernel.Ir.Crash id when id = bug_id -> i
        | _ -> go (i + 1)
    in
    go 0
  in
  Format.printf "target: crash site of %a@." Sp_kernel.Bug.pp bug;
  print_endline "training PMM first (this takes a few minutes)...";
  let p = Snowplow.Pipeline.train () in
  let inference = Snowplow.Pipeline.inference_for p k in
  let db = Kernel.spec_db k in
  let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create (run_seed lxor 0xd1c)) db ~size:60 in
  let cfg =
    {
      Campaign.default_config with
      seed_corpus = seeds;
      seed = run_seed;
      duration = hours *. 3600.0;
      snapshot_every = 600.0;
      target = Some target;
    }
  in
  let run name strategy =
    let r =
      Campaign.run
        (Campaign.create_instance ~jobs:1
           ~vm_for:(fun _ ->
             Sp_fuzz.Vm.create ~fleet_scale:192.0 ~seed:run_seed k)
           ~strategy_for:(fun _ -> strategy)
           cfg)
    in
    match r.Campaign.target_hit_at with
    | Some t -> Printf.printf "%-12s reached the target in %.0f virtual seconds\n" name t
    | None -> Printf.printf "%-12s did not reach the target\n" name
  in
  let target_sys =
    let sys = (Kernel.block k target).Sp_kernel.Ir.sys_id in
    if sys >= 0 then Some sys else None
  in
  run "SyzDirect" (Sp_fuzz.Strategy.syzdirect ~target_sys db);
  run "Snowplow-D" (Snowplow.Directed.strategy ~inference ~target k)

let directed_cmd =
  let bug_id =
    Arg.(value & opt int 10 & info [ "bug" ] ~docv:"ID" ~doc:"Bug id whose crash site to reach.")
  in
  Cmd.v
    (Cmd.info "directed" ~doc:"Directed fuzzing towards a bug's crash site.")
    Term.(const directed $ seed_arg $ version_arg $ hours_arg $ campaign_seed_arg $ bug_id)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let read_text_file path = Sp_obs.Io.read_file path

let show_trace path ~top ~strict ~expect_spans problem =
  match Sp_obs.Json.of_string (read_text_file path) with
  | Error e -> problem (Printf.sprintf "trace %s: JSON parse error: %s" path e)
  | Ok json -> (
    match Trace_check.validate json with
    | Error e -> problem (Printf.sprintf "trace %s: %s" path e)
    | Ok s ->
      Printf.printf "trace %s: %d events, %d process lanes, %d instants\n" path
        s.Trace_check.events
        (List.length s.Trace_check.pids)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Trace_check.instants);
      (* Ring-evicted events: the tracer's bounded buffers silently drop
         the oldest events past capacity, so a truncated lane means the
         span tables below under-count. Loud in --check, fatal in
         --strict. *)
      if s.Trace_check.dropped <> [] then begin
        List.iter
          (fun (pid, n) ->
            Printf.printf
              "  WARN pid %d: %d event(s) dropped from its bounded ring \
               (tables under-count)\n"
              pid n)
          s.Trace_check.dropped;
        if strict then
          problem
            (Printf.sprintf "trace %s: %d event(s) dropped from bounded rings"
               path
               (Trace_check.total_dropped s))
      end;
      if s.Trace_check.span_stats <> [] then begin
        Printf.printf "\n  %-24s %8s %12s %12s\n" "hottest spans" "count"
          "total ms" "max ms";
        List.iteri
          (fun i (st : Trace_check.span_stat) ->
            if i < top then
              Printf.printf "  %-24s %8d %12.3f %12.3f\n" st.Trace_check.span
                st.Trace_check.spans
                (st.Trace_check.total_us /. 1000.0)
                (st.Trace_check.max_us /. 1000.0))
          s.Trace_check.span_stats
      end;
      if s.Trace_check.counter_stats <> [] then begin
        Printf.printf "\n  %-24s %8s %12s\n" "counters" "samples" "last";
        List.iteri
          (fun i (c : Trace_check.counter_stat) ->
            if i < top then
              Printf.printf "  %-24s %8d %12g\n" c.Trace_check.counter
                c.Trace_check.samples c.Trace_check.last)
          s.Trace_check.counter_stats
      end;
      List.iter
        (fun name ->
          if not (Trace_check.has_span s name) then
            problem (Printf.sprintf "trace %s: expected span %S missing" path name))
        expect_spans)

let show_timeseries path ~plot ~ascii ~csv_out ~expect_series problem =
  match Timeseries.of_jsonl (read_text_file path) with
  | Error e -> problem (Printf.sprintf "timeseries %s: %s" path e)
  | Ok ts ->
    let columns = Timeseries.columns ts in
    Printf.printf "\ntimeseries %s: %d rows\n" path (Timeseries.length ts);
    List.iter
      (fun col ->
        let values =
          Array.of_list (List.map snd (Timeseries.column ts col))
        in
        Printf.printf "  %-22s %-24s last %g\n" col
          (Sp_util.Ascii_plot.sparkline ~max_width:24 ~ascii values)
          (Option.value ~default:Float.nan (Timeseries.last ts col)))
      columns;
    (* Full curves for the headline columns only — one coverage, one
       throughput — so the default output stays one screen tall. *)
    List.iter
      (fun col ->
        if List.mem col columns then
          match Timeseries.column ts col with
          | [] | [ _ ] -> ()
          | points ->
            let points = List.map (fun (t, v) -> (t /. 3600.0, v)) points in
            print_newline ();
            print_string
              (Sp_util.Ascii_plot.render ~height:10 ~x_label:"uptime (h)"
                 ~y_label:col ~title:col
                 [ Sp_util.Ascii_plot.series ~label:col ~glyph:'*' points ]))
      (if plot then [ "edges"; "execs_per_s" ] else []);
    (match csv_out with
    | Some out ->
      write_text_file out (Timeseries.to_csv ts);
      Printf.printf "\ncsv written to %s\n" out
    | None -> ());
    List.iter
      (fun name ->
        if not (List.mem name columns) then
          problem
            (Printf.sprintf "timeseries %s: expected series %S missing" path name))
      expect_series

let stats trace_file ts_file top plot ascii check strict expect_spans
    expect_series csv_out =
  if trace_file = None && ts_file = None then begin
    prerr_endline "snowplow stats: provide --trace FILE and/or --timeseries FILE";
    exit 2
  end;
  let check = check || strict in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  (match trace_file with
  | Some path -> show_trace path ~top ~strict ~expect_spans problem
  | None ->
    if expect_spans <> [] then
      problem "--expect-span requires --trace FILE");
  (match ts_file with
  | Some path -> show_timeseries path ~plot ~ascii ~csv_out ~expect_series problem
  | None ->
    if expect_series <> [] then
      problem "--expect-series requires --timeseries FILE");
  match List.rev !problems with
  | [] -> if check then print_endline "stats check: OK"
  | problems ->
    List.iter (fun p -> Printf.eprintf "FAIL %s\n" p) problems;
    exit 1

let stats_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Chrome trace written by $(b,snowplow fuzz --trace).")
  in
  let ts_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeseries" ] ~docv:"FILE"
          ~doc:"JSONL time-series written by $(b,snowplow fuzz --timeseries).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows shown in the span/counter tables.")
  in
  let plot =
    Arg.(
      value & flag
      & info [ "plot" ]
          ~doc:"Render full coverage/throughput curves, not just sparklines.")
  in
  let ascii =
    Arg.(
      value & flag
      & info [ "ascii" ] ~doc:"Pure-ASCII sparklines (no Unicode blocks).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validation mode for CI: print $(b,stats check: OK) when every \
             artifact parses, every trace lane is balanced and monotone, \
             and every --expect-span/--expect-series is present. Any \
             problem exits 1.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Like $(b,--check), but also fail when any trace lane dropped \
             events from its bounded ring (a truncated trace: the span \
             tables under-count).")
  in
  let expect_spans =
    Arg.(
      value & opt_all string []
      & info [ "expect-span" ] ~docv:"NAME"
          ~doc:"Fail unless the trace contains a span named $(docv).")
  in
  let expect_series =
    Arg.(
      value & opt_all string []
      & info [ "expect-series" ] ~docv:"NAME"
          ~doc:"Fail unless the time-series has a column named $(docv).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also convert the time-series to CSV at $(docv).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Inspect campaign telemetry: traces and time-series.")
    Term.(
      const stats $ trace_file $ ts_file $ top $ plot $ ascii $ check $ strict
      $ expect_spans $ expect_series $ csv_out)

(* ------------------------------------------------------------------ *)
(* top — live view of a `serve --listen` telemetry plane               *)
(* ------------------------------------------------------------------ *)

let parse_connect s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "--connect %S: expected HOST:PORT" s)
  | Some i -> (
    let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p > 0 && p < 65536 -> Ok (host, p)
    | Some _ | None ->
      Error (Printf.sprintf "--connect %S: bad port" s))

let top_get ~host ~port path =
  match Sp_obs.Http.get ~host ~port path with
  | Ok (200, _, body) -> Ok body
  | Ok (code, _, _) -> Error (Printf.sprintf "GET %s: HTTP %d" path code)
  | Error e -> Error (Printf.sprintf "GET %s: %s" path e)

(* Wait for the exporter to come up: `serve` trains the PMM before it
   binds, so a monitor started alongside it needs patience. *)
let top_wait ~host ~port ~retry_for =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec go () =
    match top_get ~host ~port "/health" with
    | Ok _ -> Ok ()
    | Error e ->
      if Unix.gettimeofday () >= deadline then Error e
      else begin
        Unix.sleepf 0.25;
        go ()
      end
  in
  go ()

type top_sample = {
  tp_health : Sp_obs.Json.t;
  tp_tenants : Sp_obs.Json.t;
  tp_metrics : string;
}

let top_fetch ~host ~port =
  let ( let* ) = Result.bind in
  let* health = top_get ~host ~port "/health" in
  let* tenants = top_get ~host ~port "/tenants" in
  let* metrics = top_get ~host ~port "/metrics" in
  let* tp_health =
    Result.map_error (Printf.sprintf "/health: JSON parse error: %s")
      (Sp_obs.Json.of_string health)
  in
  let* tp_tenants =
    Result.map_error (Printf.sprintf "/tenants: JSON parse error: %s")
      (Sp_obs.Json.of_string tenants)
  in
  Ok { tp_health; tp_tenants; tp_metrics = metrics }

(* Structural check of one scrape: the exposition parses and carries the
   series the dashboard depends on; /health and /tenants have the
   documented shape. *)
let top_check sample =
  let module J = Sp_obs.Json in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Sp_obs.Exposition.validate sample.tp_metrics with
  | Error e -> problem "/metrics: invalid exposition: %s" e
  | Ok x ->
    if x.Sp_obs.Exposition.x_samples = 0 then problem "/metrics: no samples";
    List.iter
      (fun name ->
        if not (List.mem name x.Sp_obs.Exposition.x_names) then
          problem "/metrics: expected family %s missing" name)
      [ "snowplow_scheduler_slices"; "snowplow_tenant_state";
        "snowplow_tenant_executions" ]);
  (match sample.tp_health with
  | J.Obj _ ->
    if Option.bind (J.member "status" sample.tp_health) J.str_opt = None then
      problem "/health: missing status"
  | _ -> problem "/health: expected an object");
  (match sample.tp_tenants with
  | J.Arr (_ :: _) -> ()
  | J.Arr [] -> problem "/tenants: empty roster"
  | _ -> problem "/tenants: expected an array");
  List.rev !problems

let top_tenant_rows tenants =
  let module J = Sp_obs.Json in
  match tenants with
  | J.Arr items ->
    List.filter_map
      (fun tj ->
        let str name = Option.bind (J.member name tj) J.str_opt in
        let num name = Option.bind (J.member name tj) J.num_opt in
        match (str "name", str "state") with
        | Some name, Some state ->
          Some
            ( name,
              state,
              Option.value ~default:1.0 (num "weight"),
              int_of_float (Option.value ~default:0.0 (num "slices")),
              int_of_float (Option.value ~default:0.0 (num "executions")),
              Option.map int_of_float (num "budget_remaining"),
              int_of_float (Option.value ~default:0.0 (num "retries")) )
        | _ -> None)
      items
  | _ -> []

let top_render ~target ~ascii ~history sample =
  let module J = Sp_obs.Json in
  let h name = Option.bind (J.member name sample.tp_health) J.num_opt in
  let status =
    Option.value ~default:"?"
      (Option.bind (J.member "status" sample.tp_health) J.str_opt)
  in
  let running =
    match J.member "running" sample.tp_health with
    | Some (J.Bool b) -> b
    | _ -> false
  in
  Printf.printf "snowplow top — %s — status %s%s, %d slices, %d workers\n\n"
    target status
    (if running then "" else " (finished)")
    (int_of_float (Option.value ~default:0.0 (h "slices")))
    (int_of_float (Option.value ~default:0.0 (h "workers")));
  Printf.printf "%-12s %-11s %6s %6s %10s %10s %7s  %s\n" "tenant" "state"
    "weight" "slices" "execs" "budget" "retries" "execs trend";
  List.iter
    (fun (name, state, weight, slices, execs, budget, retries) ->
      let hist =
        match Hashtbl.find_opt history name with
        | Some l -> l
        | None -> []
      in
      let hist = float_of_int execs :: hist in
      let hist = if List.length hist > 32 then List.filteri (fun i _ -> i < 32) hist else hist in
      Hashtbl.replace history name hist;
      (* Spark the per-interval deltas, not the monotone totals — flat
         means stalled, tall means busy. *)
      let deltas =
        match List.rev hist with
        | [] | [ _ ] -> [| 0.0 |]
        | oldest :: rest ->
          let _, ds =
            List.fold_left
              (fun (prev, acc) v -> (v, (v -. prev) :: acc))
              (oldest, []) rest
          in
          Array.of_list (List.rev ds)
      in
      Printf.printf "%-12s %-11s %6.1f %6d %10d %10s %7d  %s\n" name state
        weight slices execs
        (match budget with None -> "-" | Some b -> string_of_int b)
        retries
        (Sp_util.Ascii_plot.sparkline ~max_width:24 ~ascii deltas))
    (top_tenant_rows sample.tp_tenants);
  running

let top connect interval once json check ascii retry_for =
  match parse_connect connect with
  | Error e ->
    prerr_endline ("snowplow top: " ^ e);
    exit 2
  | Ok (host, port) -> (
    let target = Printf.sprintf "%s:%d" host port in
    (match top_wait ~host ~port ~retry_for with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "snowplow top: cannot reach %s: %s\n" target e;
      exit 2);
    let fetch () =
      match top_fetch ~host ~port with
      | Ok s -> s
      | Error e ->
        Printf.eprintf "snowplow top: %s: %s\n" target e;
        exit 2
    in
    let run_checks sample =
      match top_check sample with
      | [] -> true
      | problems ->
        List.iter (fun p -> Printf.eprintf "FAIL %s\n" p) problems;
        false
    in
    if once then begin
      (* Under --check, --retry-for also covers the window between the
         exporter binding its port and the scheduler's first barrier
         publication — keep sampling until a scrape passes or the
         deadline expires (the last failing scrape's problems are what
         gets reported). *)
      let deadline = Unix.gettimeofday () +. retry_for in
      let rec sample_until_ok () =
        let sample = fetch () in
        if not check then (sample, true)
        else if top_check sample = [] then (sample, true)
        else if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.25;
          sample_until_ok ()
        end
        else (sample, run_checks sample)
      in
      let sample, ok = sample_until_ok () in
      if json then
        print_endline
          (Sp_obs.Json.to_string
             (Sp_obs.Json.Obj
                [ ("health", sample.tp_health);
                  ("tenants", sample.tp_tenants);
                  ("metrics", Sp_obs.Json.Str sample.tp_metrics)
                ]))
      else begin
        let history = Hashtbl.create 8 in
        ignore (top_render ~target ~ascii ~history sample)
      end;
      if check && ok then prerr_endline "top check: OK";
      if not ok then exit 1
    end
    else begin
      let history = Hashtbl.create 8 in
      let rec loop () =
        let sample = fetch () in
        (* ANSI home+clear: redraw in place like top(1). *)
        print_string "\027[H\027[2J";
        let running = top_render ~target ~ascii ~history sample in
        print_string "\nctrl-c to quit\n";
        flush stdout;
        if running then begin
          Unix.sleepf interval;
          loop ()
        end
      in
      loop ()
    end)

let top_cmd =
  let connect =
    Arg.(
      value
      & opt string "127.0.0.1:9090"
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Exporter address, as bound by $(b,snowplow serve --listen) \
             (see $(b,--listen-port-file) for ephemeral ports).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period of the live view.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Render a single sample and exit (no refresh).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "With $(b,--once): print the raw /health and /tenants \
             documents (plus the /metrics exposition text as a string) \
             as one JSON object instead of the table.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "With $(b,--once): validate the scrape — /metrics is \
             well-formed Prometheus exposition carrying the scheduler \
             and per-tenant families, /health and /tenants have the \
             documented shapes. Any problem exits 1.")
  in
  let ascii =
    Arg.(
      value & flag
      & info [ "ascii" ] ~doc:"Pure-ASCII sparklines (no Unicode blocks).")
  in
  let retry_for =
    Arg.(
      value & opt float 0.0
      & info [ "retry-for" ] ~docv:"SECONDS"
          ~doc:
            "Keep retrying the first connection for up to $(docv) — \
             covers the PMM-training window before $(b,serve) binds its \
             port. With $(b,--check), also keep sampling until a scrape \
             passes validation (the scheduler's first barrier \
             publication) or the deadline expires.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live per-tenant view of a running $(b,snowplow serve --listen) \
          telemetry plane.")
    Term.(
      const top $ connect $ interval $ once $ json $ check $ ascii $ retry_for)

(* ------------------------------------------------------------------ *)
(* bench-diff — compare a fresh bench run against committed baselines  *)
(* ------------------------------------------------------------------ *)

(* The committed BENCH_E*.json files carry full-workload numbers; a CI
   quick-mode rerun produces junk absolute values on a shared runner.
   So the comparison is structural plus banded: key sets must match,
   every value must be finite and sane for its unit, the *committed*
   baselines must clear absolute floors (the real perf-rot gate — a
   regression lands as a diff to the committed file), and the fresh
   run's scale-free ratio metrics must clear the reduced quick-mode
   bars. *)
let bench_baseline_floors =
  [ ("E8", "inference_saturation_qps", 40.0);
    ("E11", "speedup_vs_reference", 3.0);
    ("E12", "throughput_ratio", 1.5);
    ("E13", "speedup_vs_reference", 3.0)
  ]

(* Kept in sync with the experiments' own quick-mode sanity bars: the
   speedup pairs are short loops whose ratio a loaded 1-core CI host can
   skew (e13's dense path was observed at 1.48x under a full concurrent
   @ci build vs 3.5x uncontended), so only a wide sanity margin is
   asserted on the fresh side. *)
let bench_fresh_bars =
  [ ("E11", "speedup_vs_reference", 1.1);
    ("E12", "throughput_ratio", 1.2);
    ("E13", "speedup_vs_reference", 1.1)
  ]

(* Unit sanity: time/rate/count metrics must be positive. Ratio metrics
   (speedups included — a 1-core host can make them < 1) only need to
   be positive too, so the one rule covers everything measured. *)
let bench_positive_key key =
  let has sub =
    let lk = String.lowercase_ascii key and n = String.length sub in
    let rec go i =
      i + n <= String.length lk
      && (String.sub lk i n = sub || go (i + 1))
    in
    go 0
  in
  has "_s" || has "per_s" || has "qps" || has "execs" || has "ratio"
  || has "speedup"

let bench_read_fields path =
  let module J = Sp_obs.Json in
  match J.of_string (Sp_obs.Io.read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (Printf.sprintf "JSON parse error: %s" e)
  | Ok (J.Obj fields) ->
    Ok
      (List.filter_map
         (fun (k, v) ->
           match v with
           | J.Num n -> Some (k, n)
           | _ -> None)
         fields)
  | Ok _ -> Error "expected a JSON object"

let bench_diff fresh_dir baseline_dir experiments =
  let experiments =
    if experiments <> [] then experiments
    else
      (* Default roster: every committed trajectory that has a fresh
         counterpart to compare against. *)
      Sys.readdir baseline_dir |> Array.to_list
      |> List.filter_map (fun name ->
             match Scanf.sscanf_opt name "BENCH_%s@.json%!" (fun e -> e) with
             | Some e
               when Sys.file_exists
                      (Filename.concat fresh_dir ("BENCH_" ^ e ^ ".json")) ->
               Some e
             | Some _ | None -> None)
      |> List.sort compare
  in
  if experiments = [] then begin
    Printf.eprintf
      "snowplow bench-diff: no comparable BENCH_*.json pairs under %s and %s\n"
      baseline_dir fresh_dir;
    exit 2
  end;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let metrics_checked = ref 0 in
  List.iter
    (fun e ->
      let file dir = Filename.concat dir ("BENCH_" ^ e ^ ".json") in
      match (bench_read_fields (file baseline_dir), bench_read_fields (file fresh_dir)) with
      | Error err, _ -> problem "%s: baseline %s: %s" e (file baseline_dir) err
      | _, Error err -> problem "%s: fresh %s: %s" e (file fresh_dir) err
      | Ok base, Ok fresh ->
        let keys l = List.sort compare (List.map fst l) in
        if keys base <> keys fresh then
          problem "%s: metric key sets differ (baseline: %s; fresh: %s)" e
            (String.concat "," (keys base))
            (String.concat "," (keys fresh));
        List.iter
          (fun (side, fields) ->
            List.iter
              (fun (k, v) ->
                incr metrics_checked;
                if not (Float.is_finite v) then
                  problem "%s: %s %s is not finite (%g)" e side k v
                else if bench_positive_key k && v <= 0.0 then
                  problem "%s: %s %s must be positive, got %g" e side k v)
              fields)
          [ ("baseline", base); ("fresh", fresh) ];
        List.iter
          (fun (exp, key, floor) ->
            if exp = e then
              match List.assoc_opt key base with
              | None -> problem "%s: baseline is missing %s" e key
              | Some v ->
                if v < floor then
                  problem
                    "%s: committed baseline %s = %g is below the %g floor \
                     (perf rot in the committed trajectory)"
                    e key v floor)
          bench_baseline_floors;
        List.iter
          (fun (exp, key, bar) ->
            if exp = e then
              match List.assoc_opt key fresh with
              | None -> problem "%s: fresh run is missing %s" e key
              | Some v ->
                if v < bar then
                  problem "%s: fresh %s = %g is below the %g quick-mode bar"
                    e key v bar)
          bench_fresh_bars;
        Printf.printf "%-4s %d metric(s) compared\n" e (List.length base))
    experiments;
  match List.rev !problems with
  | [] ->
    Printf.printf "bench-diff: OK (%d experiment(s), %d metric value(s))\n"
      (List.length experiments) !metrics_checked
  | problems ->
    List.iter (fun p -> Printf.eprintf "FAIL %s\n" p) problems;
    exit 1

let bench_diff_cmd =
  let fresh =
    Arg.(
      required
      & opt (some dir) None
      & info [ "fresh" ] ~docv:"DIR"
          ~doc:
            "Directory holding a fresh run's BENCH_*.json files (write \
             one with $(b,SNOWPLOW_BENCH_OUT=DIR bench/main.exe ...)).")
  in
  let baseline =
    Arg.(
      value & opt dir "."
      & info [ "baseline" ] ~docv:"DIR"
          ~doc:
            "Directory holding the committed baseline BENCH_*.json files \
             (default: the current directory).")
  in
  let experiments =
    Arg.(
      value & opt_all string []
      & info [ "experiment" ] ~docv:"NAME"
          ~doc:
            "Experiment to compare (e.g. $(b,E11)); repeatable. Default: \
             every baseline with a fresh counterpart.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare a fresh benchmark run against the committed BENCH_*.json \
          trajectories: key sets, unit sanity, absolute floors on the \
          baselines and quick-mode bars on the fresh ratios.")
    Term.(const bench_diff $ fresh $ baseline $ experiments)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "snowplow" ~version:"1.0"
      ~doc:"Snowplow (ASPLOS'25) reproduction: learned white-box kernel test mutation."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ kernel_info_cmd; gen_cmd; run_cmd; fuzz_cmd; serve_cmd;
            train_cmd; directed_cmd; stats_cmd; top_cmd; bench_diff_cmd ]))
