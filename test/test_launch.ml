(* The launch convention shared by `snowplow fuzz` and `snowplow serve`:
   the roster decoder and spec validation (hostile input is a typed
   error naming the field, never an exception or a campaign that cannot
   finish), the campaign config a spec launches with, and the serve
   gauges over a shared service. *)

module Launch = Snowplow.Launch
module Json = Sp_obs.Json
module Kernel = Sp_kernel.Kernel

let check = Alcotest.check

let spec_t =
  Alcotest.testable
    (fun ppf (s : Launch.spec) -> Format.pp_print_string ppf s.Launch.name)
    ( = )

let roster text = Launch.roster_of_string text

let error_of text =
  match roster text with
  | Ok _ -> Alcotest.failf "roster %s was accepted" text
  | Error e -> e

let starts_with prefix s = String.starts_with ~prefix s

let test_defaults () =
  check
    Alcotest.(result (list spec_t) string)
    "only the name is required"
    (Ok [ { Launch.default_spec with name = "a" } ])
    (roster {|[{"name":"a"}]|});
  check
    Alcotest.(result (list spec_t) string)
    "every field decoded"
    (Ok
       [ { Launch.name = "b";
           system = `Snowplow;
           jobs = 3;
           hours = 0.5;
           run_seed = 4;
           weight = 2.5;
           exec_budget = Some 0;
           corpus_size = 7 } ])
    (roster
       {|[{"name":"b","system":"snowplow","jobs":3,"hours":0.5,"run_seed":4,
           "weight":2.5,"exec_budget":0,"corpus_size":7}]|})

let test_example_rosters () =
  List.iter
    (fun (file, names) ->
      match roster (Sp_obs.Io.read_file file) with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok specs ->
        check Alcotest.(list string) file names
          (List.map (fun (s : Launch.spec) -> s.Launch.name) specs))
    [ ("../examples/tenants.json", [ "alpha"; "beta" ]);
      ("../examples/chaos_tenants.json", [ "pmm"; "syz" ]) ]

let test_errors_collected () =
  check Alcotest.string "every bad entry and duplicate, one per line"
    "tenant entry 0: name: must be non-empty\n\
     tenant entry 1: jobs: must be between 1 and 127 (got 0)\n\
     tenant entry 4: system: unknown fuzzer \"afl\"\n\
     duplicate tenant name \"b\""
    (error_of
       {|[{"name":""},{"name":"a","jobs":0},{"name":"b"},{"name":"b"},
          {"name":"c","system":"afl"}]|});
  List.iter
    (fun (text, expected) -> check Alcotest.string text expected (error_of text))
    [ ("[]", "tenants file: at least one tenant required");
      ({|{"name":"a"}|}, "tenants file: expected a JSON array of tenant objects");
      ("[", "JSON parse error: " ^ Result.get_error (Json.of_string "["));
      ({|[{"name":"a","weight":0}]|},
       "tenant entry 0: weight: must be finite and positive (got 0)");
      ({|[{"name":"a","hours":-1}]|},
       "tenant entry 0: hours: must be finite and positive (got -1)");
      ({|[{"name":"a","exec_budget":-5}]|},
       "tenant entry 0: exec_budget: must be >= 0 (got -5)");
      ({|[{"name":"a","corpus_size":-1}]|},
       "tenant entry 0: corpus_size: must be >= 0 (got -1)") ];
  (* Entries that are not objects, or fields of the wrong type, are
     decode errors like any other. *)
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (starts_with "tenant entry 0: " (error_of text)))
    [ "[1]"; "[null]"; {|[{"name":3}]|}; {|[{"name":"a","jobs":"2"}]|};
      {|[{"name":"a","jobs":1.5}]|} ]

(* Launches the runtime cannot honour: a duration that overflows the
   virtual clock (the campaign would never finish), and a shard count
   past the runtime's domain limit (the pool would abort). *)
let test_hostile_rosters () =
  check Alcotest.string "hours overflowing the clock"
    "tenant entry 0: hours: 1e+306 h overflows the virtual clock"
    (error_of {|[{"name":"a","hours":1e306}]|});
  check Alcotest.string "more jobs than domains"
    "tenant entry 0: jobs: must be between 1 and 127 (got 200)"
    (error_of {|[{"name":"a","jobs":200}]|});
  Alcotest.(check bool) "the largest spawnable roster entry is accepted" true
    (Result.is_ok (roster {|[{"name":"a","jobs":127}]|}))

(* A name is a directory under --snapshot-root and a label prefix: "a"
   and "a/." would share one directory, "../x" would write outside the
   root, and "a#1" would read as retry 1 of tenant "a". *)
let test_unsafe_names_rejected () =
  List.iter
    (fun name ->
      check Alcotest.string name
        (Printf.sprintf
           "tenant entry 1: name: %S is not one path component \
            ([A-Za-z0-9_-] then [A-Za-z0-9_.-], at most 64 bytes)"
           name)
        (error_of (Printf.sprintf {|[{"name":"ok"},{"name":%S}]|} name)))
    [ "."; ".."; "a/."; "../x"; "a/b"; "a#1"; ".hidden"; String.make 65 'a' ];
  List.iter
    (fun name ->
      Alcotest.(check bool) name true
        (Result.is_ok (roster (Printf.sprintf {|[{"name":%S}]|} name))))
    [ "a"; "A-1"; "_x.y"; "tenant.2"; String.make 64 'z' ]

let test_check_spec () =
  let err s =
    match Launch.check_spec s with
    | Ok () -> Alcotest.fail "spec accepted"
    | Error e -> e
  in
  let d = Launch.default_spec in
  check Alcotest.(result unit string) "defaults are valid" (Ok ()) (Launch.check_spec d);
  check Alcotest.string "nan hours" "hours: must be finite and positive (got nan)"
    (err { d with hours = Float.nan });
  check Alcotest.string "inf hours" "hours: must be finite and positive (got inf)"
    (err { d with hours = Float.infinity });
  check Alcotest.string "jobs" "jobs: must be between 1 and 127 (got 200)"
    (err { d with jobs = 200 });
  check Alcotest.(result unit string) "workers at the limit" (Ok ())
    (Launch.check_workers Launch.max_jobs);
  check Alcotest.(result unit string) "workers past the limit"
    (Error "workers: must be between 1 and 127 (got 128)")
    (Launch.check_workers 128);
  check Alcotest.(result unit string) "no workers"
    (Error "workers: must be between 1 and 127 (got 0)")
    (Launch.check_workers 0);
  check Alcotest.(result unit string) "negative workers"
    (Error "workers: must be between 1 and 127 (got -2)")
    (Launch.check_workers (-2))

(* Truncated or byte-flipped example rosters decode to Ok or a typed
   Error — never an exception. *)
let examples =
  List.map Sp_obs.Io.read_file
    [ "../examples/tenants.json"; "../examples/chaos_tenants.json";
      "../examples/fault_plan.json" ]

let qcheck_mutated_rosters =
  QCheck.Test.make ~count:2000 ~name:"mutated rosters decode or fail cleanly"
    QCheck.(
      quad (int_bound 2) (int_bound 4096) (small_list (pair (int_bound 4096) char)) bool)
    (fun (which, cut, flips, truncate) ->
      let text = Bytes.of_string (List.nth examples which) in
      let n = Bytes.length text in
      List.iter (fun (i, c) -> Bytes.set text (i mod n) c) flips;
      let text = Bytes.to_string text in
      let text = if truncate then String.sub text 0 (cut mod (n + 1)) else text in
      match Launch.roster_of_string text with Ok _ | Error _ -> true)

let kernel = Kernel.linux_like ~seed:7 ~version:"6.8"

let test_config_convention () =
  let db = Kernel.spec_db kernel in
  let s = { Launch.default_spec with hours = 0.25; run_seed = 23; corpus_size = 9 } in
  let c = Launch.config db s in
  check (Alcotest.float 0.0) "duration" 900.0 c.Sp_fuzz.Campaign.duration;
  check (Alcotest.float 0.0) "barriers never closer than 10 minutes" 600.0
    c.Sp_fuzz.Campaign.snapshot_every;
  check (Alcotest.float 0.0) "twelve barriers on long campaigns" 1800.0
    (Launch.config db { s with hours = 6.0 }).Sp_fuzz.Campaign.snapshot_every;
  check Alcotest.int "seed" 23 c.Sp_fuzz.Campaign.seed;
  Alcotest.(check bool) "crash reproduction on" true c.Sp_fuzz.Campaign.attempt_repro;
  check
    Alcotest.(list string)
    "seed corpus drawn from run_seed lxor 0x5eed"
    (List.map Sp_syzlang.Prog.to_string
       (Sp_syzlang.Gen.corpus (Sp_util.Rng.create (23 lxor 0x5eed)) db ~size:9))
    (List.map Sp_syzlang.Prog.to_string c.Sp_fuzz.Campaign.seed_corpus)

let test_gauges () =
  let specs =
    [ { Launch.default_spec with name = "s0"; system = `Snowplow; jobs = 2 };
      { Launch.default_spec with name = "s1"; system = `Snowplow } ]
  in
  check Alcotest.int "no service, no gauges" 0 (List.length (Launch.gauges None specs));
  let encoder =
    Snowplow.Encoder.pretrain
      ~config:{ Snowplow.Encoder.default_config with steps = 40 }
      kernel
  in
  let inference =
    Snowplow.Inference.create ~kernel
      ~block_embs:(Snowplow.Encoder.embed_kernel encoder kernel)
      (Snowplow.Pmm.create
         ~encoder_dim:(Snowplow.Encoder.dim encoder)
         ~num_syscalls:(Sp_syzlang.Spec.count (Kernel.spec_db kernel))
         ())
  in
  let service = Launch.of_inference ~tenant_jobs:[| 2; 1 |] inference in
  let metrics = Launch.gauges (Some service) specs in
  check
    Alcotest.(list string)
    "service series, then per lane (no breaker without a fault plan)"
    [ "snowplow_trainer_samples_per_second"; "snowplow_inference_pending";
      "snowplow_inference_served"; "snowplow_inference_cache_hits";
      "snowplow_inference_cache_size"; "snowplow_funnel_queue_depth";
      "snowplow_funnel_deferred"; "snowplow_funnel_dropped";
      "snowplow_funnel_queue_depth"; "snowplow_funnel_deferred";
      "snowplow_funnel_dropped" ]
    (List.map (fun m -> m.Sp_obs.Exposition.m_name) metrics);
  Alcotest.(check bool) "renders as valid exposition" true
    (Result.is_ok (Sp_obs.Exposition.validate (Sp_obs.Exposition.render metrics)));
  let lane = Launch.snowplow_lane service ~tenant:0 kernel in
  lane.Launch.on_barrier ~now:600.0;
  check Alcotest.string "lane state rides the snapshot aux"
    "inference,funnel,predictions"
    (match lane.Launch.aux.Sp_fuzz.Campaign.aux_json () with
    | Json.Obj fields -> String.concat "," (List.map fst fields)
    | _ -> "")

let () =
  Alcotest.run "launch"
    [ ( "roster",
        [ Alcotest.test_case "defaults and fields" `Quick test_defaults;
          Alcotest.test_case "example rosters" `Quick test_example_rosters;
          Alcotest.test_case "errors collected per entry" `Quick
            test_errors_collected;
          Alcotest.test_case "hostile launches rejected" `Quick
            test_hostile_rosters;
          Alcotest.test_case "unsafe names rejected" `Quick
            test_unsafe_names_rejected;
          Alcotest.test_case "spec and worker checks" `Quick test_check_spec;
          QCheck_alcotest.to_alcotest qcheck_mutated_rosters ] );
      ( "campaign",
        [ Alcotest.test_case "config convention" `Quick test_config_convention;
          Alcotest.test_case "serve gauges and lane wiring" `Quick test_gauges ] ) ]
