(* Unit tests of the benchmark's own arithmetic: order statistics, the
   per-layer ledger, compare verdicts, and agreement between the metric
   catalog and BENCHMARK.json (whose path is the first argument). *)

open Benchkit
module J = Sp_obs.Json

let close = Alcotest.float 1e-9

let test_quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let check xs (q1, q3) =
    let a, b = Stat.quartiles xs in
    Alcotest.check close "q1" q1 a;
    Alcotest.check close "q3" q3 b
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 8.25);
  check [ 1.; 2. ] (0.75, 2.25);
  check [ 3.; 1.; 2. ] (1.0, 3.0);
  check [ 5.5; 1.25; 9.0; 2.0; 7.75 ] (1.625, 8.375);
  check [ 4.0 ] (4.0, 4.0);
  let s = Stat.summarize [ 5.5; 1.25; 9.0; 2.0; 7.75 ] in
  Alcotest.check close "median" 5.5 s.Stat.median;
  Alcotest.check close "min" 1.25 s.Stat.min;
  Alcotest.check close "max" 9.0 s.Stat.max;
  Alcotest.(check int) "n" 5 s.Stat.n;
  Alcotest.check close "even median" 2.5 (Stat.median [ 1.; 2.; 3.; 4. ])

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* 100 samples: p90 leaves exactly ten beyond it. *)
  let p, v = Stat.tail (xs 100) ~want:90.0 in
  Alcotest.check close "p90 allowed at n=100" 90.0 p;
  Alcotest.check close "p90 value" 90.1 v;
  Alcotest.(check int)
    "ten samples beyond" 10
    (List.length (List.filter (fun x -> x > v) (xs 100)));
  (* 50 samples: the highest percentile with ten beyond is p80. *)
  let p, v = Stat.tail (xs 50) ~want:90.0 in
  Alcotest.check close "lowered to p80" 80.0 p;
  Alcotest.(check int)
    "ten samples beyond" 10
    (List.length (List.filter (fun x -> x > v) (xs 50)));
  (* Too few for any tail: the median. *)
  let p, v = Stat.tail (xs 12) ~want:90.0 in
  Alcotest.check close "never below the median" 50.0 p;
  Alcotest.check close "median value" 6.5 v;
  let p, _ = Stat.tail (xs 1000) ~want:50.0 in
  Alcotest.check close "a median is a median" 50.0 p

(* A synthetic trace of one scheduling domain running two tenants whose
   barriers overlap, with exact timestamps (µs). *)
let synthetic_trace =
  let ev ph name pid ts =
    J.Obj
      [ ("name", J.Str name); ("ph", J.Str ph); ("pid", J.Num (float_of_int pid));
        ("tid", J.Num 0.0); ("ts", J.Num ts) ]
  in
  let span name pid b e = [ ev "B" name pid b; ev "E" name pid e ] in
  J.Obj
    [ ( "traceEvents",
        J.Arr
          (List.concat
             [ (* tenant 0: barrier 100..600 with a merge inside *)
               [ ev "B" "campaign.barrier" 100 100.0;
                 ev "B" "campaign.merge" 100 500.0;
                 ev "E" "campaign.merge" 100 550.0;
                 ev "E" "campaign.barrier" 100 600.0 ];
               (* tenant 1: barrier 400..900, overlapping tenant 0's *)
               span "campaign.barrier" 200 400.0 900.0;
               span "campaign.merge" 200 850.0 880.0;
               span "scheduler.slice" 0 300.0 600.0;
               span "scheduler.slice" 0 600.0 900.0;
               (* shard epochs and pool tasks on two workers *)
               span "shard.epoch" 101 110.0 490.0;
               span "shard.epoch" 201 410.0 840.0;
               span "pool.task" 100_001 105.0 495.0;
               span "pool.task" 100_002 405.0 845.0;
               (* an unmatched end is ignored *)
               [ ev "E" "campaign.merge" 100 950.0 ] ])) ]

let test_ledger () =
  let spans = Spans.of_trace synthetic_trace in
  Alcotest.(check int) "merges" 2 (List.length (Spans.named spans "campaign.merge"));
  Alcotest.check close "barrier sum" 0.001 (Spans.total_s spans "campaign.barrier");
  Alcotest.check close "barrier union" 0.0008 (Spans.union_s spans "campaign.barrier");
  let metrics =
    Ledger.campaign_metrics spans
      {
        Ledger.wall_s = 0.001;
        untraced_wall_s = 0.0008;
        workers = 2;
        propose_s = 0.0005;
        flush_s = 0.00002;
        wait_s = 0.0006;
      }
  in
  let get name =
    match List.assoc_opt name metrics with
    | Some v -> v
    | None -> Alcotest.failf "no %s" name
  in
  Alcotest.check close "epoch" 0.00081 (get "shard.epoch_s");
  Alcotest.check close "epoch self = epoch - propose" 0.00031 (get "shard.epoch_self_s");
  Alcotest.check close "merge" 0.00008 (get "campaign.merge_s");
  (* union 800 µs - merge 80 - flush 20 - wait 600 *)
  Alcotest.check close "barrier self" 0.0001 (get "campaign.barrier_self_s");
  Alcotest.check close "unattributed = wall - barrier union" 0.0002 (get "unattributed_s");
  Alcotest.check close "unattributed share" 0.2 (get "unattributed_frac");
  Alcotest.check close "busy" (0.00083 /. 0.002) (get "pool.busy_frac");
  Alcotest.check close "flush share" 0.02 (get "funnel.flush_frac");
  Alcotest.check close "overhead" 0.25 (get "trace_overhead_frac");
  Alcotest.check close "slice p50" 0.3 (get "scheduler.slice_ms_p50");
  (* The ledger's parts add up to the wall. *)
  Alcotest.check close "parts sum to wall" 0.001
    (get "pool.barrier_wait_s" +. get "campaign.merge_s" +. 0.00002
    +. get "campaign.barrier_self_s" +. get "unattributed_s")

(* Spans recorded through the program's own tracer come back out of its
   export with their nesting intact. *)
let test_spans_of_real_trace () =
  let trace = Sp_obs.Trace.create ~enabled:true () in
  let t = Sp_obs.Trace.tracer trace ~pid:3 ~name:"lane" in
  Sp_obs.Tracer.span t "outer" (fun () ->
      Sp_obs.Tracer.span t "inner" (fun () -> ());
      Sp_obs.Tracer.span t "inner" (fun () -> ()));
  let spans = Spans.of_trace (Sp_obs.Trace.export trace) in
  Alcotest.(check int) "inner spans" 2 (List.length (Spans.named spans "inner"));
  Alcotest.(check int) "outer spans" 1 (List.length (Spans.named spans "outer"));
  Alcotest.(check bool)
    "inner within outer" true
    (Spans.total_s spans "inner" <= Spans.total_s spans "outer");
  Alcotest.(check (list int)) "pid" [ 3; 3; 3 ] (List.map (fun s -> s.Spans.pid) spans)

let metric ?(n = 10) value q1 q3 min max =
  { Report.value; dist = { Stat.median = value; q1; q3; min; max; n } }

(* Pairs of run values (base, new): [k] pairs, the i-th reading [base]
   and [next] times the same factor, which alternates below and above 1
   and widens to 1 ± [wobble]. *)
let runs ?(wobble = 0.02) k base next =
  List.init k (fun i ->
      let s =
        1.0 +. (wobble *. float_of_int ((i + 1) / 2) /. float_of_int (max 1 (k / 2))
                *. if i mod 2 = 0 then -1.0 else 1.0)
      in
      (base *. s, next *. s))

let test_verdicts () =
  let v ?may_gain better pairs =
    Report.verdict_to_string (Report.verdict ?may_gain ~better ~bound:0.1 pairs)
  in
  let check name expected got = Alcotest.(check string) name expected got in
  check "higher, 20% up on ten pairs" "better" (v Catalog.Higher (runs 10 100. 120.));
  check "a gain needs ten pairs" "unchanged" (v Catalog.Higher (runs 9 100. 120.));
  check "no gain where none may be claimed" "unchanged"
    (v ~may_gain:false Catalog.Higher (runs 10 100. 120.));
  check "lower, 20% down on ten pairs" "better" (v Catalog.Lower (runs 10 100. 80.));
  check "a 3% gain counts when it clears the base runs' spread" "better"
    (v Catalog.Higher (runs ~wobble:0.01 10 100. 103.));
  check "higher, 20% down" "worse" (v Catalog.Higher (runs 3 100. 80.));
  check "lower, 20% up" "worse" (v Catalog.Lower (runs 3 100. 120.));
  check "higher, 5% down" "unchanged" (v Catalog.Higher (runs 3 100. 95.));
  (* One pair says nothing about the run-to-run spread. *)
  check "one pair, worse" "unresolved" (v Catalog.Higher [ (100., 50.) ]);
  check "one pair, new reads better" "unchanged" (v Catalog.Higher [ (100., 150.) ]);
  (* Runs of one side that disagree by more than the bound. *)
  let wide = [ (80., 70.); (100., 90.); (120., 110.); (90., 95.); (110., 100.) ] in
  check "spread wider than the bound" "unresolved" (v Catalog.Higher wide);
  check "wide, but every new run beats every base run" "unchanged"
    (v Catalog.Higher (List.map (fun (b, n) -> (b, n +. 100.)) wide));
  (* Nine wins in ten pairs, but the medians differ by less than the base
     runs' quartile distance. *)
  let noisy = List.map (fun (b, n) -> (b, n *. 1.04)) (runs ~wobble:0.05 10 100. 100.) in
  check "wins without clearing the base spread" "unchanged" (v Catalog.Higher noisy)

let test_compare_documents () =
  let doc ?(failed = 0) ~started medians =
    {
      Report.provenance = [ ("started", J.Num started) ];
      workloads =
        [ {
            Report.workload = "w";
            correct = failed = 0;
            attempted = 3;
            failed;
            problems = [];
            notes = [];
            metrics =
              List.map (fun (n, m) -> (n, metric m m m m m)) medians;
          } ];
    }
  in
  let bounds =
    [ { Report.b_name = "execs_per_s"; b_better = Catalog.Higher; b_bound = 0.1 };
      { Report.b_name = "setup_s"; b_better = Catalog.Lower; b_bound = 0.25 } ]
  in
  (* Round-trip the documents through their JSON form first. *)
  let rt d =
    match Report.of_json (Report.to_json d) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  (* Pair [i] starts at time 10i; [base_first] says which side ran first. *)
  let pair ?failed ?(base_first = true) i (bx, bs) (nx, ns) =
    let t = 10.0 *. float_of_int i in
    let tb, tn = if base_first then (t, t +. 1.0) else (t +. 1.0, t) in
    ( rt (doc ~started:tb [ ("execs_per_s", bx); ("setup_s", bs) ]),
      rt (doc ?failed ~started:tn [ ("execs_per_s", nx); ("setup_s", ns) ]) )
  in
  let verdicts pairs =
    List.map
      (fun (r : Report.row) -> (r.Report.r_metric, Report.verdict_to_string r.Report.r_verdict))
      (Report.compare ~bounds pairs)
  in
  let check = Alcotest.(check (list (pair string string))) in
  check "three pairs: halved throughput, 10% slower set-up"
    [ ("execs_per_s", "worse"); ("setup_s", "unchanged") ]
    (verdicts
       [ pair 0 (100., 1.0) (50., 1.1);
         pair 1 (101., 1.01) (51., 1.11);
         pair 2 (99., 0.99) (49., 1.09) ]);
  let ten ?failed ?(alternate = true) () =
    List.init 10 (fun i ->
        let w = float_of_int (i mod 3) in
        pair ?failed ~base_first:((not alternate) || i mod 2 = 0) i (100. +. w, 1.0)
          (130. +. w, 1.0))
  in
  Alcotest.(check bool) "alternating pairs" true (Report.alternated (ten ()));
  Alcotest.(check bool) "base always first" false (Report.alternated (ten ~alternate:false ()));
  Alcotest.(check int) "one row per metric" 2 (List.length (Report.compare ~bounds (ten ())));
  check "ten alternating pairs: 30% faster" [ ("execs_per_s", "better"); ("setup_s", "unchanged") ]
    (verdicts (ten ()));
  check "no gain when the base always ran first"
    [ ("execs_per_s", "unchanged"); ("setup_s", "unchanged") ]
    (verdicts (ten ~alternate:false ()));
  check "no gain when the new runs fail more"
    [ ("execs_per_s", "unchanged"); ("setup_s", "unchanged") ]
    (verdicts (ten ~failed:1 ()))

let benchmark_json () =
  match J.of_string (Sp_obs.Io.read_file Sys.argv.(1)) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let test_catalog_matches_benchmark_json () =
  let bench = benchmark_json () in
  let entries field =
    List.map
      (fun e ->
        ( J.Decode.str_field "name" e,
          J.Decode.str_field "unit" e,
          J.Decode.str_field "better" e ))
      (J.Decode.arr_field field bench)
  in
  let catalog ms =
    List.map
      (fun (d : Catalog.metric) ->
        (d.Catalog.name, d.Catalog.unit_, Catalog.better_to_string d.Catalog.better))
      ms
  in
  let entry = Alcotest.(list (triple string string string)) in
  Alcotest.check entry "end_to_end" (catalog Catalog.end_to_end) (entries "end_to_end");
  Alcotest.check entry "per_layer" (catalog Catalog.per_layer) (entries "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all)
    (List.map (J.Decode.str_field "name") (J.Decode.arr_field "workloads" bench));
  List.iter
    (fun (d : Catalog.metric) ->
      if not (Catalog.valid_name d.Catalog.name) then
        Alcotest.failf "metric name %S uses a character outside [A-Za-z0-9_.-]"
          d.Catalog.name)
    Catalog.all;
  let names = List.map (fun (d : Catalog.metric) -> d.Catalog.name) Catalog.all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The summary line carries exactly the four keys, and a value and
   unit per metric; several workloads prefix their metric names and sum
   their counts. *)
let test_contract_line () =
  let w ?(failed = 0) name =
    {
      Report.workload = name;
      correct = failed = 0;
      attempted = 4;
      failed;
      problems = [];
      notes = [];
      metrics = [ ("setup_s", metric 0.5 0.4 0.6 0.3 0.7) ];
    }
  in
  let parse ws =
    match J.of_string (Report.contract_line ws) with
    | Error e -> Alcotest.fail e
    | Ok (J.Obj fields as j) ->
      Alcotest.(check (list string))
        "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields);
      j
    | Ok _ -> Alcotest.fail "not an object"
  in
  let get path j = List.fold_left (fun j k -> Option.get (J.member k j)) j path in
  let j = parse [ w "a" ] in
  Alcotest.(check (option (float 0.0))) "value" (Some 0.5)
    (J.num_opt (get [ "metrics"; "setup_s"; "value" ] j));
  Alcotest.(check (option string)) "unit" (Some "s")
    (J.str_opt (get [ "metrics"; "setup_s"; "unit" ] j));
  let j = parse [ w "a"; w ~failed:1 "b" ] in
  Alcotest.(check (option (float 0.0))) "prefixed" (Some 0.5)
    (J.num_opt (get [ "metrics"; "b/setup_s"; "value" ] j));
  Alcotest.(check (option (float 0.0))) "attempted summed" (Some 8.0)
    (J.num_opt (get [ "attempted" ] j));
  Alcotest.(check (option (float 0.0))) "failed summed" (Some 1.0)
    (J.num_opt (get [ "failed" ] j));
  Alcotest.(check (option bool)) "one incorrect workload" (Some false)
    (match get [ "correct" ] j with J.Bool b -> Some b | _ -> None)

(* A run length fixes the campaign count (at least one), and every tenant
   without an execution budget sees at least two of serve's barriers. *)
let test_workload_shape () =
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check int) (w.Workload.name ^ ": --seconds 0") 1
        (Workload.campaigns w ~seconds:0.0);
      Alcotest.(check int) (w.Workload.name ^ ": ten campaigns' time") 10
        (Workload.campaigns w ~seconds:(10.0 *. w.Workload.campaign_s));
      List.iter
        (fun (tn : Workload.tenant) ->
          let barriers =
            Float.to_int (Float.ceil (tn.Workload.hours *. 3600.0 /. Workload.snapshot_every tn))
          in
          if tn.Workload.budget = None && barriers < 2 then
            Alcotest.failf "%s/%s: %d barriers" w.Workload.name tn.Workload.name barriers)
        w.Workload.tenants)
    Workload.all

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "benchmark"
    [ ( "stat",
        [ Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule ] );
      ( "ledger",
        [ Alcotest.test_case "self time on a synthetic trace" `Quick test_ledger;
          Alcotest.test_case "spans of a recorded trace" `Quick test_spans_of_real_trace ]
      );
      ( "compare",
        [ Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "documents" `Quick test_compare_documents ] );
      ( "catalog",
        [ Alcotest.test_case "matches BENCHMARK.json" `Quick
            test_catalog_matches_benchmark_json;
          Alcotest.test_case "contract line" `Quick test_contract_line;
          Alcotest.test_case "workload shape" `Quick test_workload_shape ] )
    ]
