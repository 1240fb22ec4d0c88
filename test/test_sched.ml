(* Tests for the multi-tenant campaign scheduler: the golden property —
   every tenant's report under a scheduled run is byte-identical to the
   same campaign run solo with the same (seed, jobs), including across a
   kill + resume mid-schedule — plus a hand-computed stride-schedule
   golden and a qcheck model test of the accounting invariants (exact
   budgets, work conservation, per-tenant sums matching pool totals). *)

module Rng = Sp_util.Rng
module Metrics = Sp_util.Metrics
module Json = Sp_obs.Json
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Gen = Sp_syzlang.Gen
module Vm = Sp_fuzz.Vm
module Strategy = Sp_fuzz.Strategy
module Campaign = Sp_fuzz.Campaign
module Scheduler = Sp_fuzz.Scheduler
module Snapshot = Sp_fuzz.Snapshot

let check = Alcotest.check

let small_config =
  { Build.default_config with num_syscalls = 16; handler_budget = 120; max_depth = 8 }

let kernel = Kernel.generate small_config

let db = Kernel.spec_db kernel

(* A tenant is identified by its campaign seed: config, VM seeds and the
   seed corpus all derive from it, exactly as the CLI's serve command
   derives them, so solo and scheduled runs are comparable by
   construction. Syzkaller-only: a shared warm inference service would
   couple snowplow tenants through its queue and caches, so the
   solo-equality contract is a syzkaller-tenant property. *)
let cfg_for ?(duration = 900.0) seed =
  { Campaign.default_config with
    seed_corpus = Gen.corpus (Rng.create (seed lxor 0x5eed)) db ~size:30;
    seed;
    duration;
    snapshot_every = 300.0 }

let vm_for_seed seed s = Vm.create ~seed:(seed + (7919 * s)) kernel

let strategy_for _ = Strategy.syzkaller db

let report_bytes r = Json.to_string (Campaign.report_json r)

(* The solo oracle: the same campaign run alone, its instance driven by
   [Campaign.run] over a private pool. The contract is scheduled == solo,
   for every (seed, jobs). *)
let solo ?duration ~seed ~jobs () =
  report_bytes
    (Campaign.run
       (Campaign.create_instance ~jobs ~vm_for:(vm_for_seed seed) ~strategy_for
          (cfg_for ?duration seed)))

let tenant ?duration ?weight ?exec_budget ?snapshot_dir ?restore ~name ~seed
    ~jobs () =
  Scheduler.tenant ?weight ?exec_budget ?snapshot_dir ?restore ~name ~jobs
    ~vm_for:(vm_for_seed seed) ~strategy_for (cfg_for ?duration seed)

let run_ok ?workers ?max_slices tenants =
  match Scheduler.run ?workers ?max_slices tenants with
  | Ok r -> r
  | Error e -> Alcotest.failf "Scheduler.run failed: %s" e

let by_name (r : Scheduler.report) name =
  List.find (fun tr -> tr.Scheduler.tr_name = name) r.Scheduler.sr_tenants

(* ------------------------------------------------------------------ *)
(* Golden determinism: scheduled == solo                                *)
(* ------------------------------------------------------------------ *)

(* The three-tenant roster used across the golden tests: mixed widths,
   mixed durations, mixed weights, over a pool narrower than the summed
   jobs — tenants genuinely contend for workers. *)
let roster ?snapshot_root () =
  let dir name =
    Option.map (fun root -> Filename.concat root name) snapshot_root
  in
  [ tenant ?snapshot_dir:(dir "alpha") ~name:"alpha" ~seed:7 ~jobs:2 ();
    tenant ?snapshot_dir:(dir "beta") ~name:"beta" ~seed:23 ~jobs:1
      ~weight:2.0 ~duration:600.0 ();
    tenant ?snapshot_dir:(dir "gamma") ~name:"gamma" ~seed:5 ~jobs:2 () ]

let solo_oracle = function
  | "alpha" -> solo ~seed:7 ~jobs:2 ()
  | "beta" -> solo ~seed:23 ~jobs:1 ~duration:600.0 ()
  | "gamma" -> solo ~seed:5 ~jobs:2 ()
  | name -> Alcotest.failf "unknown tenant %s" name

let test_scheduled_equals_solo () =
  let r = run_ok ~workers:2 (roster ()) in
  check Alcotest.int "three tenants reported" 3
    (List.length r.Scheduler.sr_tenants);
  List.iter
    (fun (tr : Scheduler.tenant_report) ->
      Alcotest.(check bool)
        (tr.Scheduler.tr_name ^ " completed")
        true tr.Scheduler.tr_completed;
      check Alcotest.string
        (tr.Scheduler.tr_name ^ " report byte-identical to its solo run")
        (solo_oracle tr.Scheduler.tr_name)
        (report_bytes tr.Scheduler.tr_report))
    r.Scheduler.sr_tenants;
  (* The schedule itself is deterministic: a second run reproduces both
     the admission sequence and every report. *)
  let r' = run_ok ~workers:2 (roster ()) in
  check (Alcotest.list Alcotest.string) "schedule reproducible"
    r.Scheduler.sr_schedule r'.Scheduler.sr_schedule

let with_dir name f = f (Test_support.Test_dir.fresh name)

let test_kill_and_resume_mid_schedule () =
  let root = "sched-resume" in
  with_dir root (fun root ->
      (* Phase 1: kill the service after 4 admitted slices. Every tenant
         has reached at least one barrier by then, so every tenant has a
         snapshot to resume from. *)
      let killed = run_ok ~workers:2 ~max_slices:4 (roster ~snapshot_root:root ()) in
      check Alcotest.int "phase 1 cut at 4 slices" 4 killed.Scheduler.sr_slices;
      Alcotest.(check bool) "someone was left unfinished" true
        (List.exists
           (fun tr -> not tr.Scheduler.tr_completed)
           killed.Scheduler.sr_tenants);
      (* Phase 2: a fresh scheduler (fresh process, in effect) resumes
         each tenant from its latest snapshot and runs to completion. *)
      let restore name =
        match Snapshot.latest ~dir:(Filename.concat root name) with
        | None -> Alcotest.failf "tenant %s left no snapshot" name
        | Some (_, file) -> (
          match Snapshot.read file with
          | Ok snap -> snap
          | Error e -> Alcotest.failf "tenant %s snapshot unreadable: %s" name e)
      in
      let resumed =
        run_ok ~workers:2
          [ tenant ~restore:(restore "alpha") ~name:"alpha" ~seed:7 ~jobs:2 ();
            tenant ~restore:(restore "beta") ~name:"beta" ~seed:23 ~jobs:1
              ~weight:2.0 ~duration:600.0 ();
            tenant ~restore:(restore "gamma") ~name:"gamma" ~seed:5 ~jobs:2 () ]
      in
      List.iter
        (fun (tr : Scheduler.tenant_report) ->
          Alcotest.(check bool)
            (tr.Scheduler.tr_name ^ " completed after resume")
            true tr.Scheduler.tr_completed;
          check Alcotest.string
            (tr.Scheduler.tr_name
            ^ " resumed report still byte-identical to its solo run")
            (solo_oracle tr.Scheduler.tr_name)
            (report_bytes tr.Scheduler.tr_report))
        resumed.Scheduler.sr_tenants)

(* ------------------------------------------------------------------ *)
(* Stride schedule golden                                               *)
(* ------------------------------------------------------------------ *)

let test_stride_schedule_golden () =
  (* One worker, jobs=1 each, so exactly one slice is admitted per round
     and the schedule is the raw stride order. Tenant A (weight 2)
     advances its virtual clock at half pass-cost: passes 150/300/450
     against B's 300/600/900, ties to the lower index. *)
  let r =
    run_ok ~workers:1
      [ tenant ~name:"A" ~seed:7 ~jobs:1 ~weight:2.0 ();
        tenant ~name:"B" ~seed:23 ~jobs:1 () ]
  in
  check (Alcotest.list Alcotest.string) "hand-computed stride order"
    [ "A"; "A"; "B"; "A"; "B"; "B" ]
    r.Scheduler.sr_schedule;
  (* Same roster at weight 1:1 alternates (ties to the lower index). *)
  let eq =
    run_ok ~workers:1
      [ tenant ~name:"A" ~seed:7 ~jobs:1 ();
        tenant ~name:"B" ~seed:23 ~jobs:1 () ]
  in
  check (Alcotest.list Alcotest.string) "equal weights alternate"
    [ "A"; "B"; "A"; "B"; "A"; "B" ]
    eq.Scheduler.sr_schedule

let test_validation () =
  Alcotest.check_raises "duplicate names rejected"
    (Invalid_argument "Scheduler.run: duplicate tenant name \"A\"") (fun () ->
      ignore
        (Scheduler.run
           [ tenant ~name:"A" ~seed:1 ~jobs:1 ();
             tenant ~name:"A" ~seed:2 ~jobs:1 () ]));
  Alcotest.check_raises "empty roster rejected"
    (Invalid_argument "Scheduler.run: at least one tenant required") (fun () ->
      ignore (Scheduler.run []));
  Alcotest.check_raises "bad weight rejected"
    (Invalid_argument "Scheduler.tenant: weight must be finite and positive")
    (fun () -> ignore (tenant ~name:"A" ~seed:1 ~jobs:1 ~weight:0.0 ()));
  match
    Scheduler.run
      [ tenant ~restore:Json.Null ~name:"A" ~seed:1 ~jobs:1 () ]
  with
  | Ok _ -> Alcotest.fail "garbage restore snapshot accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Telemetry plane                                                      *)
(* ------------------------------------------------------------------ *)

(* The per-tenant object served by the exporter's /tenants endpoint is
   part of the scrape contract: pin its exact bytes. *)
let test_tenant_status_golden () =
  check Alcotest.string "/tenants object, exact bytes"
    ("{\"name\":\"alpha\",\"weight\":2,\"state\":\"healthy\",\"pass\":450.5,"
    ^ "\"barrier\":3,\"slices\":7,\"executions\":420,"
    ^ "\"budget_remaining\":80,\"retries\":1}")
    (Json.to_string
       (Scheduler.tenant_status_json
          { Scheduler.ts_name = "alpha";
            ts_weight = 2.0;
            ts_state = "healthy";
            ts_pass = 450.5;
            ts_barrier = 3;
            ts_slices = 7;
            ts_executions = 420;
            ts_budget_remaining = Some 80;
            ts_retries = 1 }));
  check Alcotest.string "unbudgeted tenant serialises null"
    ("{\"name\":\"beta\",\"weight\":1,\"state\":\"quarantined\",\"pass\":900,"
    ^ "\"barrier\":0,\"slices\":0,\"executions\":0,"
    ^ "\"budget_remaining\":null,\"retries\":3}")
    (Json.to_string
       (Scheduler.tenant_status_json
          { Scheduler.ts_name = "beta";
            ts_weight = 1.0;
            ts_state = "quarantined";
            ts_pass = 900.0;
            ts_barrier = 0;
            ts_slices = 0;
            ts_executions = 0;
            ts_budget_remaining = None;
            ts_retries = 3 }))

(* The serve --summary-json document: run totals plus one object per
   tenant, straight from the report. *)
(* Every trace lane has its own pid. A 100-shard tenant used to reach
   the next tenant's pid range, so [Trace.tracer] (which memoizes by pid)
   handed the next tenant's main lane the ring of [alpha-shard-99], one
   ring written by a worker domain and the scheduling domain. *)
let test_trace_lanes_distinct () =
  let trace = Sp_obs.Trace.create ~enabled:true () in
  ignore
    (match
       Scheduler.run ~trace ~workers:1 ~max_slices:2
         [ tenant ~name:"alpha" ~seed:7 ~jobs:100 ();
           tenant ~name:"beta" ~seed:23 ~jobs:1 () ]
     with
    | Ok r -> r
    | Error e -> Alcotest.failf "Scheduler.run failed: %s" e);
  let lanes =
    match Sp_obs.Trace.export trace with
    | Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr evs) ->
        List.filter_map
          (fun ev ->
            match (Json.member "name" ev, Json.member "args" ev) with
            | Some (Json.Str "process_name"), Some args -> (
              match Json.member "name" args with
              | Some (Json.Str lane) -> Some lane
              | _ -> None)
            | _ -> None)
          evs
      | _ -> Alcotest.fail "trace has no traceEvents")
    | _ -> Alcotest.fail "trace is not an object"
  in
  let expected =
    [ "scheduler"; "alpha-campaign-main"; "beta-campaign-main"; "beta-shard-0";
      "pool-worker-0" ]
    @ List.init 100 (Printf.sprintf "alpha-shard-%d")
  in
  check
    Alcotest.(list string)
    "every lane exactly once" (List.sort compare expected)
    (List.sort compare lanes)

let test_summary_json () =
  let r =
    run_ok ~workers:2
      [ tenant ~name:"a" ~seed:7 ~jobs:1 ~duration:600.0 ();
        tenant ~name:"b" ~seed:23 ~jobs:1 ~exec_budget:50 () ]
  in
  let doc = Scheduler.summary_json ~faults_injected:3 r in
  let num j name = Option.bind (Json.member name j) Json.num_opt in
  let bool j name =
    match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None
  in
  check Alcotest.(option (float 0.0)) "slices" (Some (float_of_int r.Scheduler.sr_slices))
    (num doc "slices");
  check Alcotest.(option (float 0.0)) "workers" (Some 2.0) (num doc "workers");
  check Alcotest.(option (float 0.0)) "faults" (Some 3.0) (num doc "faults_injected");
  match Json.member "tenants" doc with
  | Some (Json.Arr [ a; b ]) ->
    check Alcotest.(list string) "tenant fields, in order"
      [ "name"; "weight"; "slices"; "executions"; "crashes"; "corpus_size";
        "completed"; "quarantined"; "budget_exhausted"; "retries"; "failures" ]
      (match a with Json.Obj fields -> List.map fst fields | _ -> []);
    check Alcotest.(option bool) "a completed" (Some true) (bool a "completed");
    check Alcotest.(option bool) "b ran out of budget" (Some true)
      (bool b "budget_exhausted");
    check Alcotest.(option (float 0.0)) "b's executions"
      (Some (float_of_int (by_name r "b").Scheduler.tr_executions))
      (num b "executions")
  | _ -> Alcotest.fail "two tenant objects expected"

let snapshot_dir_bytes root =
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.map (fun name ->
         let ic = open_in_bin (Filename.concat root name) in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (name, s))

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The load-bearing property of the telemetry plane: arming the exporter
   and the event log must not change one byte of any report or any
   snapshot — scrapes read only barrier-published immutable payloads. *)
let test_armed_vs_unarmed_identity () =
  let baseline =
    with_dir "sched-unarmed" (fun root ->
        run_ok ~workers:2 (roster ~snapshot_root:root ()))
  in
  let events = Sp_obs.Events.create () in
  let exporter = Sp_obs.Exporter.create ~events () in
  let port =
    match Sp_obs.Exporter.start exporter ~port:0 with
    | Ok p -> p
    | Error e -> Alcotest.failf "exporter failed to start: %s" e
  in
  let armed =
    Fun.protect
      ~finally:(fun () -> Sp_obs.Exporter.stop exporter)
      (fun () ->
        with_dir "sched-armed" (fun root ->
            let r =
              match
                Scheduler.run ~workers:2 ~events
                  ~telemetry:(Scheduler.telemetry exporter)
                  (roster ~snapshot_root:root ())
              with
              | Ok r -> r
              | Error e -> Alcotest.failf "armed run failed: %s" e
            in
            (* The plane was really live: the final publication is
               scrapeable and names every tenant. *)
            (match Sp_obs.Http.get ~host:"127.0.0.1" ~port "/tenants" with
            | Ok (200, _, body) ->
              List.iter
                (fun name ->
                  Alcotest.(check bool)
                    (name ^ " appears in /tenants") true
                    (contains_sub body ("\"name\":\"" ^ name ^ "\"")))
                [ "alpha"; "beta"; "gamma" ]
            | Ok (code, _, _) -> Alcotest.failf "/tenants -> HTTP %d" code
            | Error e -> Alcotest.failf "/tenants scrape failed: %s" e);
            r))
  in
  check
    (Alcotest.list Alcotest.string)
    "identical schedule" baseline.Scheduler.sr_schedule
    armed.Scheduler.sr_schedule;
  List.iter2
    (fun a b ->
      check Alcotest.string
        (a.Scheduler.tr_name ^ " report bytes unchanged by telemetry")
        (report_bytes a.Scheduler.tr_report)
        (report_bytes b.Scheduler.tr_report))
    baseline.Scheduler.sr_tenants armed.Scheduler.sr_tenants;
  List.iter
    (fun name ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        (name ^ " snapshots byte-identical")
        (snapshot_dir_bytes (Filename.concat "sched-unarmed" name))
        (snapshot_dir_bytes (Filename.concat "sched-armed" name)))
    [ "alpha"; "beta"; "gamma" ];
  (* The event stream saw the run: scheduler.start first, and a
     scheduler.finish among the retained tail. *)
  Alcotest.(check bool) "events recorded" true (Sp_obs.Events.seq events > 0);
  let kinds =
    Sp_obs.Events.since ~min_level:Sp_obs.Events.Debug events 0
    |> List.filter_map (fun e ->
           match Json.member "kind" (Sp_obs.Events.event_json e) with
           | Some (Json.Str k) -> Some k
           | _ -> None)
  in
  Alcotest.(check bool) "scheduler.finish event present" true
    (List.mem "scheduler.finish" kinds)

(* ------------------------------------------------------------------ *)
(* Model test: accounting invariants                                    *)
(* ------------------------------------------------------------------ *)

(* A random scenario: 2-3 tenants with arbitrary seeds, widths, weights
   and (sometimes) exec budgets, over a 1-3 worker pool. Every scenario
   must satisfy the scheduler's bookkeeping contract exactly. *)
let scenario_gen =
  QCheck.Gen.(
    let tenant_gen =
      quad (int_range 1 1000) (int_range 1 2)
        (oneofl [ 0.5; 1.0; 2.0 ])
        (opt (int_range 200 3000))
    in
    pair (list_size (int_range 2 3) tenant_gen) (int_range 1 3))

let scenario_print (tenants, workers) =
  Printf.sprintf "workers=%d tenants=[%s]" workers
    (String.concat "; "
       (List.map
          (fun (seed, jobs, w, budget) ->
            Printf.sprintf "(seed %d, jobs %d, w %.1f, budget %s)" seed jobs w
              (match budget with None -> "-" | Some b -> string_of_int b))
          tenants))

let qcheck_scheduler_model =
  QCheck.Test.make ~count:5 ~name:"scheduler accounting model"
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (tenant_specs, workers) ->
      let mk () =
        List.mapi
          (fun i (seed, jobs, weight, exec_budget) ->
            tenant ~duration:600.0 ~weight ?exec_budget
              ~name:(Printf.sprintf "t%d" i) ~seed ~jobs ())
          tenant_specs
      in
      let r = run_ok ~workers (mk ()) in
      let m = r.Scheduler.sr_metrics in
      List.iteri
        (fun i (_, jobs, _, exec_budget) ->
          let tr = by_name r (Printf.sprintf "t%d" i) in
          (* Exact quota accounting: a budget can never be overrun, and
             an unfinished tenant must be exactly the budget-exhausted
             one (no max_slices here, so nothing else can cut it). *)
          (match exec_budget with
          | Some b ->
            if tr.Scheduler.tr_executions > b then
              QCheck.Test.fail_reportf "t%d ran %d execs over budget %d" i
                tr.Scheduler.tr_executions b
          | None -> ());
          if not (tr.Scheduler.tr_completed || tr.Scheduler.tr_budget_exhausted)
          then QCheck.Test.fail_reportf "t%d neither completed nor exhausted" i;
          (* Work conservation: a tenant that completed was given every
             barrier its campaign needed — the scheduler never stalled
             it short of its duration. *)
          if
            tr.Scheduler.tr_completed
            && (not tr.Scheduler.tr_budget_exhausted)
            && tr.Scheduler.tr_slices < 2
          then
            QCheck.Test.fail_reportf "t%d completed 600 s in %d slices" i
              tr.Scheduler.tr_slices;
          (* Per-tenant metrics agree with the report rows. *)
          let slices_m =
            Metrics.counter m (Printf.sprintf "scheduler.tenant.t%d.slices" i)
          in
          let execs_m =
            Metrics.counter m (Printf.sprintf "scheduler.tenant.t%d.execs" i)
          in
          if slices_m <> tr.Scheduler.tr_slices then
            QCheck.Test.fail_reportf "t%d slices metric %d <> report %d" i
              slices_m tr.Scheduler.tr_slices;
          if execs_m <> tr.Scheduler.tr_executions then
            QCheck.Test.fail_reportf "t%d execs metric %d <> report %d" i
              execs_m tr.Scheduler.tr_executions;
          ignore jobs)
        tenant_specs;
      (* Per-tenant totals sum to the pool-wide totals. *)
      let sum f = List.fold_left (fun acc tr -> acc + f tr) 0 r.Scheduler.sr_tenants in
      if sum (fun tr -> tr.Scheduler.tr_executions)
         <> Metrics.counter m "scheduler.execs_total"
      then QCheck.Test.fail_reportf "tenant executions do not sum to the total";
      if sum (fun tr -> tr.Scheduler.tr_slices) <> r.Scheduler.sr_slices then
        QCheck.Test.fail_reportf "tenant slices do not sum to sr_slices";
      if List.length r.Scheduler.sr_schedule <> r.Scheduler.sr_slices then
        QCheck.Test.fail_reportf "schedule length <> slice count";
      (* Every admitted slice submitted exactly [jobs] pool tasks. *)
      let expected_tasks =
        List.fold_left
          (fun acc name ->
            let i =
              List.find_index (fun tr -> tr.Scheduler.tr_name = name)
                r.Scheduler.sr_tenants
              |> Option.get
            in
            let _, jobs, _, _ = List.nth tenant_specs i in
            acc + jobs)
          0 r.Scheduler.sr_schedule
      in
      if Metrics.counter m "pool.tasks" <> expected_tasks then
        QCheck.Test.fail_reportf "pool.tasks %d <> schedule-implied %d"
          (Metrics.counter m "pool.tasks") expected_tasks;
      (* Schedule determinism: an identical scenario replays the exact
         schedule and byte-identical per-tenant reports. *)
      let r' = run_ok ~workers (mk ()) in
      if r'.Scheduler.sr_schedule <> r.Scheduler.sr_schedule then
        QCheck.Test.fail_reportf "schedule not deterministic";
      List.iter2
        (fun a b ->
          if
            report_bytes a.Scheduler.tr_report
            <> report_bytes b.Scheduler.tr_report
          then QCheck.Test.fail_reportf "%s report not deterministic" a.Scheduler.tr_name)
        r.Scheduler.sr_tenants r'.Scheduler.sr_tenants;
      true)

(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sp_sched"
    [ ( "golden",
        [ Alcotest.test_case "scheduled == solo, per tenant" `Quick
            test_scheduled_equals_solo;
          Alcotest.test_case "kill + resume mid-schedule" `Quick
            test_kill_and_resume_mid_schedule;
          Alcotest.test_case "stride schedule, hand-computed" `Quick
            test_stride_schedule_golden;
          Alcotest.test_case "validation" `Quick test_validation ] );
      ( "telemetry",
        [ Alcotest.test_case "/tenants status object golden" `Quick
            test_tenant_status_golden;
          Alcotest.test_case "armed vs unarmed byte identity" `Quick
            test_armed_vs_unarmed_identity;
          Alcotest.test_case "--summary-json document" `Quick
            test_summary_json;
          Alcotest.test_case "trace lanes distinct" `Quick
            test_trace_lanes_distinct ] );
      ("model", [ qtest qcheck_scheduler_model ]) ]
