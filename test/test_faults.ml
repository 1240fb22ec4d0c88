(* Tests for the fault-domain layer: the deterministic Sp_util.Faults
   plan, its injection points in the campaign executor, the pool's
   failure reporting, the scheduler's quarantine/backoff/retry
   lifecycle, the corrupt-snapshot fallback, the breaker state machine
   (qcheck model) and the funnel's graceful inference degradation. The
   governing property throughout: every injected-failure scenario
   replays byte-identically given the same (seed, plan), and healthy
   tenants are byte-for-byte unaffected by a co-scheduled failing one. *)

module Rng = Sp_util.Rng
module Metrics = Sp_util.Metrics
module Pool = Sp_util.Pool
module Faults = Sp_util.Faults
module Json = Sp_obs.Json
module Io = Sp_obs.Io
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Vm = Sp_fuzz.Vm
module Strategy = Sp_fuzz.Strategy
module Campaign = Sp_fuzz.Campaign
module Scheduler = Sp_fuzz.Scheduler
module Snapshot = Sp_fuzz.Snapshot
module Breaker = Snowplow.Breaker
module Funnel = Snowplow.Funnel
module Inference = Snowplow.Inference

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Faults: the plan itself                                              *)
(* ------------------------------------------------------------------ *)

let test_faults_disabled_inert () =
  let f = Faults.disabled in
  Alcotest.(check bool) "not enabled" false (Faults.enabled f);
  for k = 0 to 20 do
    Alcotest.(check bool) "never fails" false (Faults.should_fail f "x" ~k)
  done;
  Faults.fire f "x" ~k:0;
  check Alcotest.int "nothing injected" 0 (Faults.injected f);
  check Alcotest.int "nothing consulted" 0 (List.length (Faults.site_stats f))

let test_faults_schedule_exact () =
  let f = Faults.create ~schedule:[ ("s", [ 0; 5 ]) ] ~seed:0 () in
  Alcotest.(check bool) "k=0 fires" true (Faults.should_fail f "s" ~k:0);
  Alcotest.(check bool) "k=1 quiet" false (Faults.should_fail f "s" ~k:1);
  Alcotest.(check bool) "k=5 fires" true (Faults.should_fail f "s" ~k:5);
  Alcotest.(check bool) "other site quiet" false
    (Faults.should_fail f "t" ~k:0);
  check Alcotest.int "two injections counted" 2 (Faults.injected f);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.pair Alcotest.int Alcotest.int)))
    "site stats (consulted, hit)"
    [ ("s", (3, 2)); ("t", (1, 0)) ]
    (Faults.site_stats f);
  Alcotest.check_raises "fire raises the named site"
    (Faults.Injected "s") (fun () -> Faults.fire f "s" ~k:5)

let test_faults_rates_deterministic () =
  (* Same (seed, site, k) always decides the same way, and the decision
     is independent of query order — Rng.split_named never advances the
     base stream. *)
  let mk () = Faults.create ~default_rate:0.5 ~seed:42 () in
  let sites = [ "a"; "b"; "pool.task" ] in
  let decisions f order =
    List.map (fun (s, k) -> Faults.should_fail f s ~k) order
  in
  let fwd =
    List.concat_map (fun s -> List.init 40 (fun k -> (s, k))) sites
  in
  let d1 = decisions (mk ()) fwd in
  let d2 = decisions (mk ()) fwd in
  check (Alcotest.list Alcotest.bool) "replayable" d1 d2;
  let rev_order = List.rev fwd in
  let d3 = List.rev (decisions (mk ()) rev_order) in
  check (Alcotest.list Alcotest.bool) "order-independent" d1 d3;
  (* rate 0.5 over 120 draws actually exercises both branches *)
  Alcotest.(check bool) "some fire" true (List.mem true d1);
  Alcotest.(check bool) "some don't" true (List.mem false d1);
  (* rate extremes *)
  let hot = Faults.create ~rates:[ ("h", 1.0) ] ~seed:1 () in
  let cold = Faults.create ~rates:[ ("c", 0.0) ] ~default_rate:1.0 ~seed:1 () in
  for k = 0 to 10 do
    Alcotest.(check bool) "rate 1 always" true (Faults.should_fail hot "h" ~k);
    Alcotest.(check bool) "rate 0 overrides default" false
      (Faults.should_fail cold "c" ~k)
  done

let test_faults_of_json () =
  let plan =
    {|{"seed": 42, "default_rate": 0.0,
       "rates": {"x": 1.0},
       "schedule": {"y": [1, 2]}}|}
  in
  let j = match Json.of_string plan with Ok j -> j | Error e -> Alcotest.fail e in
  let f = match Faults.of_json j with Ok f -> f | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "enabled" true (Faults.enabled f);
  Alcotest.(check bool) "rated site fires" true (Faults.should_fail f "x" ~k:7);
  Alcotest.(check bool) "scheduled k fires" true (Faults.should_fail f "y" ~k:2);
  Alcotest.(check bool) "unscheduled k quiet" false
    (Faults.should_fail f "y" ~k:3);
  let bad txt =
    let j = match Json.of_string txt with Ok j -> j | Error e -> Alcotest.fail e in
    match Faults.of_json j with
    | Ok _ -> Alcotest.failf "accepted bad plan %s" txt
    | Error _ -> ()
  in
  bad {|{"default_rate": 2.0}|};
  bad {|{"rates": 5}|};
  bad {|{"rates": {"x": "often"}}|};
  bad {|{"schedule": {"y": [1.5]}}|}

(* ------------------------------------------------------------------ *)
(* Pool failures                                                        *)
(* ------------------------------------------------------------------ *)

exception Probe of string

let test_pool_await_full_backtrace () =
  Pool.with_pool ~workers:1 (fun pool ->
      let h = Pool.submit pool (fun () -> raise (Probe "boom")) in
      match Pool.await_full h with
      | Ok () -> Alcotest.fail "task should have raised"
      | Error (Probe "boom", bt) ->
        (* The backtrace is whatever the worker captured at the raise
           site; re-raising with it must preserve the exception. *)
        Alcotest.check_raises "re-raise preserves the exception"
          (Probe "boom") (fun () ->
            Printexc.raise_with_backtrace (Probe "boom") bt)
      | Error (e, _) ->
        Alcotest.failf "wrong exception: %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Campaign fixtures (test_sched idioms)                                *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Build.default_config with num_syscalls = 16; handler_budget = 120; max_depth = 8 }

let kernel = Kernel.generate small_config

let db = Kernel.spec_db kernel

let cfg_for ?(duration = 900.0) seed =
  { Campaign.default_config with
    seed_corpus = Gen.corpus (Rng.create (seed lxor 0x5eed)) db ~size:30;
    seed;
    duration;
    snapshot_every = 300.0 }

let vm_for_seed seed s = Vm.create ~seed:(seed + (7919 * s)) kernel

let strategy_for _ = Strategy.syzkaller db

let report_bytes r = Json.to_string (Campaign.report_json r)

let with_tmp_dir f =
  let dir = Filename.temp_file "faults-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* The solo oracle: the same campaign run alone (see test_sched.ml). *)
let solo ?duration ~seed ~jobs () =
  report_bytes
    (Campaign.run
       (Campaign.create_instance ~jobs ~vm_for:(vm_for_seed seed) ~strategy_for
          (cfg_for ?duration seed)))

let tenant ?duration ?weight ?snapshot_dir ?restore ~name ~seed ~jobs () =
  Scheduler.tenant ?weight ?snapshot_dir ?restore ~name ~jobs
    ~vm_for:(vm_for_seed seed) ~strategy_for (cfg_for ?duration seed)

let run_ok ?workers ?max_slices ?faults ?max_tenant_retries tenants =
  match Scheduler.run ?workers ?max_slices ?faults ?max_tenant_retries tenants with
  | Ok r -> r
  | Error e -> Alcotest.failf "Scheduler.run failed: %s" e

let by_name (r : Scheduler.report) name =
  List.find (fun tr -> tr.Scheduler.tr_name = name) r.Scheduler.sr_tenants

(* ------------------------------------------------------------------ *)
(* Corrupt-snapshot fallback                                            *)
(* ------------------------------------------------------------------ *)

let test_latest_valid_skips_truncated () =
  with_tmp_dir (fun dir ->
      let full =
        report_bytes
          (Campaign.run
             (Campaign.create_instance ~snapshot_dir:dir ~jobs:2
                ~vm_for:(vm_for_seed 7) ~strategy_for (cfg_for 7)))
      in
      (* 900 s at a 300 s grid: barriers 1..3, so snapshot-000003 is the
         newest. Truncate it mid-document — the torn file a kill during a
         non-atomic write would have left. *)
      let newest = Snapshot.path ~dir ~barrier:3 in
      let data = Io.read_file newest in
      Io.write_atomic newest (String.sub data 0 (String.length data / 2));
      (match Snapshot.latest ~dir with
      | Some (3, _) -> ()
      | _ -> Alcotest.fail "latest should still report barrier 3");
      match Snapshot.latest_valid ~dir () with
      | None -> Alcotest.fail "latest_valid found nothing"
      | Some (barrier, _, doc) ->
        check Alcotest.int "fell back past the torn file" 2 barrier;
        (* The fallback snapshot is fully usable: resuming from it
           reproduces the uninterrupted run byte-for-byte. *)
        (match
           Json.Decode.run (fun () ->
               Campaign.run
                 (Campaign.create_instance ~restore:doc ~jobs:2
                    ~vm_for:(vm_for_seed 7) ~strategy_for (cfg_for 7)))
         with
        | Error e -> Alcotest.failf "resume from fallback failed: %s" e
        | Ok r ->
          check Alcotest.string "resumed == uninterrupted" full
            (report_bytes r)))

(* ------------------------------------------------------------------ *)
(* Scheduler: quarantine, backoff, retry                                *)
(* ------------------------------------------------------------------ *)

(* Kill beta's first barrier in every retry generation: generation n runs
   under label "beta#n", so each must be addressed explicitly — a
   scheduled fault never re-kills a retry the plan doesn't name. *)
let quarantine_plan () =
  Faults.create
    ~schedule:
      [ ("beta/shard.epoch", [ 0 ]);
        ("beta#1/shard.epoch", [ 0 ]);
        ("beta#2/shard.epoch", [ 0 ]);
        ("beta#3/shard.epoch", [ 0 ]) ]
    ~seed:1 ()

let roster () =
  [ tenant ~name:"alpha" ~seed:7 ~jobs:2 ();
    tenant ~name:"beta" ~seed:23 ~jobs:1 ~weight:2.0 ~duration:600.0 ();
    tenant ~name:"gamma" ~seed:5 ~jobs:2 () ]

let count_in_schedule r name =
  List.length (List.filter (( = ) name) r.Scheduler.sr_schedule)

let test_quarantine_isolates_tenant () =
  let r = run_ok ~workers:2 ~faults:(quarantine_plan ()) (roster ()) in
  let beta = by_name r "beta" in
  Alcotest.(check bool) "beta quarantined" true beta.Scheduler.tr_quarantined;
  Alcotest.(check bool) "beta not completed" false beta.Scheduler.tr_completed;
  check Alcotest.int "all three retries spent" 3 beta.Scheduler.tr_retries;
  check Alcotest.int "four failed generations" 4
    (List.length beta.Scheduler.tr_failures);
  List.iteri
    (fun g (fl : Scheduler.failure) ->
      check Alcotest.int "chronological generations" g fl.Scheduler.fl_generation;
      check Alcotest.int "all died at barrier 1" 1 fl.Scheduler.fl_barrier;
      let site =
        if g = 0 then "beta/shard.epoch"
        else Printf.sprintf "beta#%d/shard.epoch" g
      in
      check Alcotest.string "exception names the injected site"
        (Printf.sprintf "Fault injected at %s" site)
        fl.Scheduler.fl_exn)
    beta.Scheduler.tr_failures;
  (* Each generation was admitted exactly once and completed nothing. *)
  check Alcotest.int "beta admitted once per generation" 4
    (count_in_schedule r "beta");
  check Alcotest.int "beta completed no slices" 0 beta.Scheduler.tr_slices;
  check Alcotest.int "quarantine counted" 1
    (Metrics.counter r.Scheduler.sr_metrics "scheduler.quarantined");
  check Alcotest.int "failures counted" 4
    (Metrics.counter r.Scheduler.sr_metrics "scheduler.failures");
  check Alcotest.int "per-tenant failures counted" 4
    (Metrics.counter r.Scheduler.sr_metrics "scheduler.tenant.beta.failures");
  (* The healthy tenants are byte-for-byte untouched by the cascade. *)
  List.iter
    (fun (name, seed) ->
      let tr = by_name r name in
      Alcotest.(check bool) (name ^ " completed") true tr.Scheduler.tr_completed;
      check Alcotest.string (name ^ " report == its solo run")
        (solo ~seed ~jobs:2 ())
        (report_bytes tr.Scheduler.tr_report))
    [ ("alpha", 7); ("gamma", 5) ];
  (* And the whole cascade replays: schedule, reports and failure records
     (modulo wall-clock backtraces) are deterministic per (seed, plan). *)
  let r' = run_ok ~workers:2 ~faults:(quarantine_plan ()) (roster ()) in
  check (Alcotest.list Alcotest.string) "schedule replayed"
    r.Scheduler.sr_schedule r'.Scheduler.sr_schedule;
  List.iter2
    (fun a b ->
      check Alcotest.string (a.Scheduler.tr_name ^ " report replayed")
        (report_bytes a.Scheduler.tr_report)
        (report_bytes b.Scheduler.tr_report);
      List.iter2
        (fun (x : Scheduler.failure) (y : Scheduler.failure) ->
          Alcotest.(check bool) "failure record replayed" true
            (x.Scheduler.fl_slice = y.Scheduler.fl_slice
            && x.Scheduler.fl_barrier = y.Scheduler.fl_barrier
            && x.Scheduler.fl_generation = y.Scheduler.fl_generation
            && x.Scheduler.fl_exn = y.Scheduler.fl_exn))
        a.Scheduler.tr_failures b.Scheduler.tr_failures)
    r.Scheduler.sr_tenants r'.Scheduler.sr_tenants

let test_retry_resumes_from_snapshot () =
  (* Kill generation 0 at its second barrier (k = (2-1)*1 + 0 = 1). With
     a snapshot dir, the retry generation restores barrier 1's snapshot
     and finishes — and the final report is still byte-identical to the
     never-failed solo run. *)
  with_tmp_dir (fun dir ->
      let faults =
        Faults.create ~schedule:[ ("beta/shard.epoch", [ 1 ]) ] ~seed:1 ()
      in
      let r =
        run_ok ~workers:2 ~faults
          [ tenant ~name:"alpha" ~seed:7 ~jobs:2 ();
            tenant ~snapshot_dir:dir ~name:"beta" ~seed:23 ~jobs:1
              ~weight:2.0 ~duration:600.0 () ]
      in
      let beta = by_name r "beta" in
      Alcotest.(check bool) "beta recovered" true beta.Scheduler.tr_completed;
      Alcotest.(check bool) "beta not quarantined" false
        beta.Scheduler.tr_quarantined;
      check Alcotest.int "one retry generation" 1 beta.Scheduler.tr_retries;
      (match beta.Scheduler.tr_failures with
      | [ fl ] ->
        check Alcotest.int "died at barrier 2" 2 fl.Scheduler.fl_barrier;
        check Alcotest.int "generation 0" 0 fl.Scheduler.fl_generation
      | fls -> Alcotest.failf "expected one failure, got %d" (List.length fls));
      check Alcotest.string "recovered report == solo run"
        (solo ~seed:23 ~jobs:1 ~duration:600.0 ())
        (report_bytes beta.Scheduler.tr_report);
      (* The quarantine path left its forensic record beside the
         snapshots, under a name the resume scan ignores. *)
      let record = Snapshot.failure_path ~dir ~barrier:2 ~generation:0 in
      Alcotest.(check bool) "failure record written" true
        (Sys.file_exists record);
      (match Json.of_string (Io.read_file record) with
      | Ok doc ->
        check Alcotest.string "record format"
          "snowplow-tenant-failure"
          (Json.Decode.run (fun () -> Json.Decode.str_field "format" doc)
          |> Result.get_ok)
      | Error e -> Alcotest.failf "failure record unparsable: %s" e);
      match Snapshot.latest_valid ~dir () with
      | Some (b, _, _) ->
        Alcotest.(check bool) "failure record not mistaken for a snapshot"
          true (b >= 1)
      | None -> Alcotest.fail "snapshots disappeared")

let test_kill_resume_with_faults () =
  (* The full robustness gauntlet: an armed plan kills beta's gen 0 at
     barrier 2, the whole service is killed after 4 slices, then a fresh
     scheduler resumes every tenant from its newest valid snapshot under
     the same plan. The final reports must match the solo oracles — the
     quarantine machinery composes with kill + resume. *)
  let root = Test_support.Test_dir.fresh "faults-resume" in
  let plan () =
    Faults.create ~schedule:[ ("beta/shard.epoch", [ 1 ]) ] ~seed:1 ()
  in
  let mk restore_of =
    [ tenant ?restore:(restore_of "alpha")
        ~snapshot_dir:(Filename.concat root "alpha") ~name:"alpha" ~seed:7
        ~jobs:2 ();
      tenant ?restore:(restore_of "beta")
        ~snapshot_dir:(Filename.concat root "beta") ~name:"beta" ~seed:23
        ~jobs:1 ~weight:2.0 ~duration:600.0 ();
      tenant ?restore:(restore_of "gamma")
        ~snapshot_dir:(Filename.concat root "gamma") ~name:"gamma" ~seed:5
        ~jobs:2 () ]
  in
  let killed =
    run_ok ~workers:2 ~max_slices:4 ~faults:(plan ()) (mk (fun _ -> None))
  in
  check Alcotest.int "phase 1 cut at 4 slices" 4 killed.Scheduler.sr_slices;
  (* A tenant the cut caught before its first barrier has no snapshot
     and simply restarts from scratch — same contract as the CLI. *)
  let restore_of name =
    match Snapshot.latest_valid ~dir:(Filename.concat root name) () with
    | Some (_, _, doc) -> Some doc
    | None -> None
  in
  let resumed = run_ok ~workers:2 ~faults:(plan ()) (mk restore_of) in
  List.iter
    (fun (name, seed, jobs, duration) ->
      let tr = by_name resumed name in
      Alcotest.(check bool) (name ^ " completed after resume") true
        tr.Scheduler.tr_completed;
      check Alcotest.string
        (name ^ " report == solo despite faults + kill + resume")
        (solo ~seed ~jobs ?duration ())
        (report_bytes tr.Scheduler.tr_report))
    [ ("alpha", 7, 2, None);
      ("beta", 23, 1, Some 600.0);
      ("gamma", 5, 2, None) ]

(* ------------------------------------------------------------------ *)
(* Breaker: qcheck state-machine model                                  *)
(* ------------------------------------------------------------------ *)

type bop = Err | Succ of float | Wait of float

let bop_print = function
  | Err -> "Err"
  | Succ l -> Printf.sprintf "Succ %.1f" l
  | Wait d -> Printf.sprintf "Wait %.1f" d

let bconfig =
  { Breaker.error_threshold = 2; latency_threshold = 1.0; cooldown = 5.0 }

let bop_gen =
  QCheck.Gen.(
    frequency
      [ (3, return Err);
        (3, map (fun l -> Succ l) (oneofl [ 0.1; 0.5; 2.0 ]));
        (2, map (fun d -> Wait d) (oneofl [ 1.0; 3.0; 6.0 ])) ])

let apply b ~now = function
  | Err -> Breaker.record_error b ~now
  | Succ l -> Breaker.record_success b ~now ~latency:l
  | Wait _ -> ()

let qcheck_breaker_model =
  QCheck.Test.make ~count:200 ~name:"breaker state machine model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map bop_print ops))
       QCheck.Gen.(list_size (int_range 1 30) bop_gen))
    (fun ops ->
      let b = Breaker.create ~config:bconfig () in
      let now = ref 0.0 in
      let opened_at = ref None in
      List.iter
        (fun op ->
          (match op with Wait d -> now := !now +. d | _ -> ());
          let before = Breaker.state b ~now:!now in
          (* Open must decay to Half_open once the cooldown elapses,
             measured from the trip the model observed. *)
          (match !opened_at with
          | Some t0
            when !now -. t0 >= bconfig.Breaker.cooldown
                 && before = Breaker.Open ->
            QCheck.Test.fail_reportf "open state survived its cooldown"
          | _ -> ());
          apply b ~now:!now op;
          let after = Breaker.state b ~now:!now in
          (match after with
          | Breaker.Open ->
            if before <> Breaker.Open then opened_at := Some !now
          | Breaker.Closed -> opened_at := None
          | Breaker.Half_open -> ());
          (* Closed can hold at most threshold-1 consecutive errors. *)
          if
            after = Breaker.Closed
            && Breaker.consecutive_errors b >= bconfig.Breaker.error_threshold
          then QCheck.Test.fail_reportf "closed at the error threshold";
          (* A fast success anywhere but Open resets the error count. *)
          (match (op, after) with
          | Succ l, s
            when l <= bconfig.Breaker.latency_threshold && s <> Breaker.Open ->
            if Breaker.consecutive_errors b <> 0 then
              QCheck.Test.fail_reportf "fast success kept stale errors";
            if s <> Breaker.Closed then
              QCheck.Test.fail_reportf "fast success failed to close"
          | _ -> ());
          (* An error (or slow success) never lands in Half_open: it
             either trips to Open or stays Closed under the threshold. *)
          match (op, after) with
          | Err, Breaker.Half_open | Succ _, Breaker.Half_open ->
            QCheck.Test.fail_reportf "event left the breaker half-open"
          | _ -> ())
        ops;
      true)

let qcheck_breaker_replay =
  (* Serialize at a random midpoint, restore into a fresh breaker, run
     the tail on both: every observable (state, counters, bytes) must
     agree — the property campaign resume leans on. *)
  QCheck.Test.make ~count:200 ~name:"breaker persisted replay"
    (QCheck.make
       ~print:(fun (ops, cut) ->
         Printf.sprintf "cut=%d [%s]" cut
           (String.concat "; " (List.map bop_print ops)))
       QCheck.Gen.(
         pair (list_size (int_range 1 30) bop_gen) (int_range 0 30)))
    (fun (ops, cut) ->
      let cut = min cut (List.length ops) in
      let b = Breaker.create ~config:bconfig () in
      let now = ref 0.0 in
      List.iteri
        (fun i op ->
          if i < cut then begin
            (match op with Wait d -> now := !now +. d | _ -> ());
            ignore (Breaker.state b ~now:!now);
            apply b ~now:!now op
          end)
        ops;
      let b' = Breaker.create ~config:bconfig () in
      Breaker.restore_state b' (Breaker.state_json b);
      let now' = ref !now in
      List.iteri
        (fun i op ->
          if i >= cut then begin
            (match op with Wait d -> now := !now +. d | _ -> ());
            ignore (Breaker.state b ~now:!now);
            apply b ~now:!now op;
            (match op with Wait d -> now' := !now' +. d | _ -> ());
            ignore (Breaker.state b' ~now:!now');
            apply b' ~now:!now' op
          end)
        ops;
      if Breaker.state b ~now:!now <> Breaker.state b' ~now:!now' then
        QCheck.Test.fail_reportf "states diverged";
      if Breaker.consecutive_errors b <> Breaker.consecutive_errors b' then
        QCheck.Test.fail_reportf "error counts diverged";
      if Breaker.trips b <> Breaker.trips b' then
        QCheck.Test.fail_reportf "trip counts diverged";
      if
        Json.to_string (Breaker.state_json b)
        <> Json.to_string (Breaker.state_json b')
      then QCheck.Test.fail_reportf "persisted bytes diverged";
      true)

(* ------------------------------------------------------------------ *)
(* Funnel degradation                                                   *)
(* ------------------------------------------------------------------ *)

(* A real (untrained) PMM behind the real service — creation is cheap and
   prediction content is irrelevant; what's under test is the breaker /
   retry / shed machinery around delivery. *)
let inference () =
  let encoder =
    Snowplow.Encoder.pretrain
      ~config:{ Snowplow.Encoder.default_config with steps = 40 }
      kernel
  in
  let model =
    Snowplow.Pmm.create
      ~encoder_dim:(Snowplow.Encoder.dim encoder)
      ~num_syscalls:(Sp_syzlang.Spec.count db) ()
  in
  Snowplow.Inference.create ~kernel
    ~block_embs:(Snowplow.Encoder.embed_kernel encoder kernel)
    model

let lane_stats_exn funnel ~now =
  match Funnel.lane_stats funnel ~tenant:0 ~now with
  | Some s -> s
  | None -> Alcotest.fail "degradation should be armed"

let test_funnel_degradation_cycle () =
  (* Three requests stalled past the lane deadline: reclaimed, breaker
     tripped, lane degraded (endpoints shed), then — after the cooldown —
     a half-open probe, recovery, and delivery of every reclaimed request
     via the retry ledger. Entirely on the virtual clock. *)
  let service = inference () in
  let faults =
    Faults.create
      ~schedule:[ ("inference.timeout@0", [ 1; 2; 3 ]) ]
      ~seed:3 ()
  in
  let funnel =
    Funnel.create_multi ~degrade:Funnel.default_degrade ~faults
      ~tenant_shards:[| 1 |] service
  in
  let ep = Funnel.endpoint_for funnel ~tenant:0 ~shard:0 in
  let prog s = Gen.program (Rng.create s) db () in
  List.iter
    (fun s ->
      Alcotest.(check bool) "request accepted" true
        (ep.Inference.ep_request ~now:0.0 (prog s) ~targets:[ 0 ]))
    [ 1; 2; 3 ];
  (* Flush 1: all three sends hit the injected stall. *)
  check Alcotest.int "flush 1 delivers nothing" 0
    (Funnel.flush_tenant funnel ~tenant:0 ~now:0.0);
  Alcotest.(check bool) "lane healthy while requests are in flight" false
    (Funnel.lane_degraded funnel ~tenant:0);
  (* Flush 2 at t=40 (past the 30 s deadline): the stalled requests are
     reclaimed, three breaker errors trip the lane open. *)
  check Alcotest.int "flush 2 delivers nothing" 0
    (Funnel.flush_tenant funnel ~tenant:0 ~now:40.0);
  check Alcotest.int "stalled requests reclaimed" 3 (Inference.cancelled service);
  let s = lane_stats_exn funnel ~now:40.0 in
  check Alcotest.string "breaker open" "open"
    (Breaker.state_name s.Funnel.ls_state);
  check Alcotest.int "one trip" 1 s.Funnel.ls_trips;
  check Alcotest.int "three errors" 3 s.Funnel.ls_errors;
  check Alcotest.int "all three queued for retry" 3 s.Funnel.ls_retries_pending;
  Alcotest.(check bool) "lane degraded" true
    (Funnel.lane_degraded funnel ~tenant:0);
  (* While degraded, the shard endpoints refuse fresh work — the signal
     Hybrid uses to fall back to history/random mutation. *)
  let dropped0 = Funnel.tenant_dropped funnel ~tenant:0 in
  Alcotest.(check bool) "endpoint sheds while degraded" false
    (ep.Inference.ep_request ~now:50.0 (prog 9) ~targets:[ 0 ]);
  check Alcotest.int "shed counted against the tenant" (dropped0 + 1)
    (Funnel.tenant_dropped funnel ~tenant:0);
  (* Mid-degradation state round-trips: a fresh, identically-armed funnel
     restored from state_json persists back byte-identically. *)
  let bytes = Json.to_string (Funnel.state_json funnel) in
  let funnel' =
    Funnel.create_multi ~degrade:Funnel.default_degrade ~faults
      ~tenant_shards:[| 1 |] (inference ())
  in
  (match Json.of_string bytes with
  | Ok doc -> Funnel.restore_state funnel' ~parse:(Sp_syzlang.Parser.program db) doc
  | Error e -> Alcotest.failf "state_json unparsable: %s" e);
  check Alcotest.string "degraded lane state round-trips" bytes
    (Json.to_string (Funnel.state_json funnel'));
  (* Flush 3 past the 1200 s cooldown: half-open, one probe goes out. The
     probe answers from the service's prediction cache (the stalled
     requests were computed, only never delivered), so it completes — a
     fast success that closes the breaker. *)
  check Alcotest.int "probe delivered" 1
    (Funnel.flush_tenant funnel ~tenant:0 ~now:1300.0);
  let s = lane_stats_exn funnel ~now:1300.0 in
  check Alcotest.string "breaker closed by the probe" "closed"
    (Breaker.state_name s.Funnel.ls_state);
  check Alcotest.int "two retries still pending" 2 s.Funnel.ls_retries_pending;
  Alcotest.(check bool) "lane healthy again" false
    (Funnel.lane_degraded funnel ~tenant:0);
  (* Flush 4: the remaining retries drain. Nothing was lost. *)
  check Alcotest.int "remaining retries delivered" 2
    (Funnel.flush_tenant funnel ~tenant:0 ~now:1310.0);
  let s = lane_stats_exn funnel ~now:1310.0 in
  check Alcotest.int "retry ledger empty" 0 s.Funnel.ls_retries_pending

let test_funnel_armed_quiet_matches_unarmed () =
  (* An armed lane that never sees a fault must behave — and persist —
     exactly like an unarmed one: same deliveries, same state bytes. *)
  let quiet = Faults.create ~seed:99 () in
  let plain = Funnel.create_multi ~tenant_shards:[| 1 |] (inference ()) in
  let armed =
    Funnel.create_multi ~degrade:Funnel.default_degrade ~faults:quiet
      ~tenant_shards:[| 1 |] (inference ())
  in
  let prog s = Gen.program (Rng.create s) db () in
  let drive funnel =
    let ep = Funnel.endpoint_for funnel ~tenant:0 ~shard:0 in
    List.iter
      (fun s ->
        Alcotest.(check bool) "accepted" true
          (ep.Inference.ep_request ~now:0.0 (prog s) ~targets:[ 0 ]))
      [ 1; 2 ];
    let d1 = Funnel.flush_tenant funnel ~tenant:0 ~now:0.0 in
    let d2 = Funnel.flush_tenant funnel ~tenant:0 ~now:10.0 in
    (d1 + d2, Json.to_string (Funnel.state_json funnel))
  in
  let n_plain, bytes_plain = drive plain in
  let n_armed, bytes_armed = drive armed in
  check Alcotest.int "same deliveries" n_plain n_armed;
  check Alcotest.string "same persisted bytes" bytes_plain bytes_armed;
  Alcotest.(check bool) "armed-quiet lane never degraded" false
    (Funnel.lane_degraded armed ~tenant:0)

(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sp_faults"
    [ ( "plan",
        [ Alcotest.test_case "disabled plan is inert" `Quick
            test_faults_disabled_inert;
          Alcotest.test_case "scheduled ordinals fire exactly" `Quick
            test_faults_schedule_exact;
          Alcotest.test_case "rates are deterministic, order-free" `Quick
            test_faults_rates_deterministic;
          Alcotest.test_case "of_json round-trip and rejects" `Quick
            test_faults_of_json ] );
      ( "pool",
        [ Alcotest.test_case "await_full carries the backtrace" `Quick
            test_pool_await_full_backtrace ] );
      ( "snapshots",
        [ Alcotest.test_case "latest_valid skips a torn snapshot" `Quick
            test_latest_valid_skips_truncated ] );
      ( "scheduler",
        [ Alcotest.test_case "quarantine isolates the failing tenant" `Quick
            test_quarantine_isolates_tenant;
          Alcotest.test_case "retry resumes from the last good snapshot"
            `Quick test_retry_resumes_from_snapshot;
          Alcotest.test_case "faults compose with kill + resume" `Quick
            test_kill_resume_with_faults ] );
      ( "breaker",
        [ qtest qcheck_breaker_model; qtest qcheck_breaker_replay ] );
      ( "funnel",
        [ Alcotest.test_case "degrade / recover cycle" `Quick
            test_funnel_degradation_cycle;
          Alcotest.test_case "armed-but-quiet == unarmed" `Quick
            test_funnel_armed_quiet_matches_unarmed ] ) ]
