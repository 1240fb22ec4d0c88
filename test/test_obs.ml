(* Tests for sp_obs, the telemetry subsystem: the JSON emitter/parser
   (byte-exact string and float round-trips), the ring-buffer tracer and
   its Chrome trace_event export (always balanced, always monotone, even
   after ring eviction), the trace validator, and the time-series
   sampler's JSONL/CSV writers. *)

module Json = Sp_obs.Json
module Tracer = Sp_obs.Tracer
module Trace = Sp_obs.Trace
module Trace_check = Sp_obs.Trace_check
module Timeseries = Sp_obs.Timeseries

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "re-parse failed: %s (input %s)" e (Json.to_string v)

let test_json_basics () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "bool" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int-valued float" "42" (Json.to_string (Json.Num 42.0));
  check Alcotest.string "array" "[1,2]"
    (Json.to_string (Json.Arr [ Json.Num 1.0; Json.Num 2.0 ]));
  check Alcotest.string "object field order" {|{"b":1,"a":2}|}
    (Json.to_string (Json.Obj [ ("b", Json.Num 1.0); ("a", Json.Num 2.0) ]));
  Alcotest.(check bool) "structural round-trip" true
    (Json.equal
       (Json.Obj
          [ ("xs", Json.Arr [ Json.Null; Json.Bool false; Json.Str "hi" ]) ])
       (roundtrip
          (Json.Obj
             [ ("xs", Json.Arr [ Json.Null; Json.Bool false; Json.Str "hi" ]) ])))

let test_json_string_escaping () =
  (* Every byte value must survive a round-trip: control characters via
     \uXXXX, quote/backslash via their short escapes, the rest verbatim. *)
  let all_bytes = String.init 256 Char.chr in
  (match roundtrip (Json.Str all_bytes) with
  | Json.Str s -> check Alcotest.string "all 256 bytes round-trip" all_bytes s
  | _ -> Alcotest.fail "expected a string");
  let encoded = Json.to_string (Json.Str "a\n\t\"\\\x01b") in
  check Alcotest.string "escape forms" {|"a\n\t\"\\\u0001b"|} encoded;
  (* Non-ASCII (UTF-8) passes through verbatim... *)
  check Alcotest.string "utf-8 verbatim" "\"\xc3\xa9\""
    (Json.to_string (Json.Str "\xc3\xa9"));
  (* ...and \uXXXX escapes (incl. surrogate pairs) decode to UTF-8. *)
  (match Json.of_string {|"é 😀"|} with
  | Ok (Json.Str s) -> check Alcotest.string "unicode escapes" "\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e)

let test_json_float_exact () =
  List.iter
    (fun f ->
      match roundtrip (Json.Num f) with
      | Json.Num f' ->
        Alcotest.(check bool)
          (Printf.sprintf "%h round-trips exactly" f)
          true (Float.equal f f')
      | _ -> Alcotest.fail "expected a number")
    [ 0.0; -0.0; 1.0; -1.5; 0.1; 1e-300; 1.7976931348623157e308;
      4.9e-324; 3.141592653589793; 1234567890123456.0; 6.858333333333333 ];
  check Alcotest.string "integral without exponent" "1234567890123456"
    (Json.num_to_string 1234567890123456.0);
  check Alcotest.string "nan is null" "null" (Json.num_to_string Float.nan);
  check Alcotest.string "inf is null" "null" (Json.num_to_string Float.infinity)

let test_json_float_exact_prop =
  QCheck.Test.make ~count:500 ~name:"every finite float re-parses exactly"
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.num_to_string f) with
      | Ok (Json.Num f') -> Float.equal f f'
      | _ -> false)

let test_json_string_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"every string round-trips byte-exactly"
    QCheck.string (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | _ -> false)

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" input)
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing";
      "\"bad \\q escape\"" ]

(* Every decoder of outside input goes through [of_string], so nesting is
   bounded: a hostile document is a prompt typed error, not a parse that
   grows the stack and heap with its length. *)
let test_json_depth_bound () =
  let nest n ~opening ~closing =
    String.make n opening ^ "0" ^ String.make n closing
  in
  (match Json.of_string (nest Json.max_depth ~opening:'[' ~closing:']') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%d nested arrays rejected: %s" Json.max_depth e);
  (match Json.of_string (nest (Json.max_depth + 1) ~opening:'[' ~closing:']') with
  | Ok _ -> Alcotest.fail "nesting past max_depth accepted"
  | Error _ -> ());
  let objects n = String.concat "" (List.init n (fun _ -> "{\"a\":")) ^ "0" ^ String.make n '}' in
  (match Json.of_string (objects (Json.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "object nesting past max_depth accepted"
  | Error _ -> ());
  let hostile = String.make 1_000_000 '[' in
  let t0 = Unix.gettimeofday () in
  (match Json.of_string hostile with
  | Ok _ -> Alcotest.fail "10^6 nested arrays accepted"
  | Error e ->
    Alcotest.(check string) "typed error names the bound and the byte"
      (Printf.sprintf "json: nesting deeper than %d at byte %d" Json.max_depth
         Json.max_depth)
      e);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "rejected in %.3f s (bound 0.5 s)" dt) true
    (dt < 0.5)

(* ------------------------------------------------------------------ *)
(* Tracer and export                                                    *)
(* ------------------------------------------------------------------ *)

let validated trace =
  match Trace_check.validate (Trace.export trace) with
  | Ok s -> s
  | Error e -> Alcotest.failf "export failed validation: %s" e

let test_tracer_spans_and_export () =
  let trace = Trace.create ~enabled:true () in
  let tr = Trace.tracer trace ~pid:0 ~name:"main" in
  Tracer.span tr "outer" (fun () ->
      Tracer.span tr "inner" (fun () -> ());
      Tracer.instant tr "tick";
      Tracer.counter tr "depth" 2.0);
  let s = validated trace in
  Alcotest.(check bool) "outer span" true (Trace_check.has_span s "outer");
  Alcotest.(check bool) "inner span" true (Trace_check.has_span s "inner");
  Alcotest.(check bool) "counter" true (Trace_check.has_counter s "depth");
  check (Alcotest.list Alcotest.int) "one pid lane" [ 0 ] s.Trace_check.pids;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "instants" [ ("tick", 1) ] s.Trace_check.instants;
  (* Spans aggregate: inner nests inside outer, so outer's total >= inner's. *)
  let total name =
    match
      List.find_opt
        (fun (st : Trace_check.span_stat) -> st.Trace_check.span = name)
        s.Trace_check.span_stats
    with
    | Some st -> st.Trace_check.total_us
    | None -> Alcotest.failf "span %s missing from stats" name
  in
  Alcotest.(check bool) "outer contains inner" true
    (total "outer" >= total "inner")

let test_tracer_span_reraises () =
  let trace = Trace.create ~enabled:true () in
  let tr = Trace.tracer trace ~pid:0 ~name:"main" in
  (try Tracer.span tr "will-raise" (fun () -> failwith "boom") with
  | Failure _ -> ());
  (* The span closed on the exception path, so the export stays valid. *)
  let s = validated trace in
  Alcotest.(check bool) "span recorded despite raise" true
    (Trace_check.has_span s "will-raise")

let test_tracer_ring_eviction_stays_balanced () =
  (* Overflow a tiny ring so B halves are evicted: the export must drop
     the orphaned E halves rather than emit an unbalanced trace. *)
  let trace = Trace.create ~capacity:8 ~enabled:true () in
  let tr = Trace.tracer trace ~pid:3 ~name:"hot" in
  for i = 1 to 100 do
    Tracer.span tr (Printf.sprintf "task-%d" (i mod 5)) (fun () -> ())
  done;
  Alcotest.(check bool) "events were dropped" true (Tracer.dropped tr > 0);
  check Alcotest.int "recorded counts everything" 200 (Tracer.recorded tr);
  let s = validated trace in
  Alcotest.(check bool) "still has complete spans" true
    (List.exists
       (fun (st : Trace_check.span_stat) -> st.Trace_check.spans > 0)
       s.Trace_check.span_stats)

let test_tracer_unclosed_span_dropped () =
  let trace = Trace.create ~enabled:true () in
  let tr = Trace.tracer trace ~pid:0 ~name:"main" in
  Tracer.begin_span tr "never-closed";
  Tracer.span tr "complete" (fun () -> ());
  let s = validated trace in
  Alcotest.(check bool) "complete span exported" true
    (Trace_check.has_span s "complete");
  Alcotest.(check bool) "unclosed span dropped" false
    (Trace_check.has_span s "never-closed")

let test_tracer_disabled_is_noop () =
  let tr = Tracer.null in
  Tracer.span tr "x" (fun () -> ());
  Tracer.instant tr "y";
  Tracer.counter tr "z" 1.0;
  check Alcotest.int "nothing recorded" 0 (Tracer.recorded tr);
  let trace = Trace.disabled in
  let tr' = Trace.tracer trace ~pid:7 ~name:"shard" in
  Tracer.span tr' "x" (fun () -> ());
  check Alcotest.int "disabled collection hands out null" 0 (Tracer.recorded tr');
  let s = validated trace in
  check Alcotest.int "empty export still validates" 0 s.Trace_check.events

let test_trace_multi_pid_export () =
  let trace = Trace.create ~enabled:true () in
  let a = Trace.tracer trace ~pid:1 ~name:"shard-0" in
  let b = Trace.tracer trace ~pid:2 ~name:"shard-1" in
  Tracer.span a "epoch" (fun () -> Tracer.span b "epoch" (fun () -> ()));
  Alcotest.(check bool) "same pid memoized" true
    (Trace.tracer trace ~pid:1 ~name:"whatever" == a);
  let s = validated trace in
  check (Alcotest.list Alcotest.int) "both lanes" [ 1; 2 ] s.Trace_check.pids

let test_trace_check_rejects_malformed () =
  let ev ?(ts = 1.0) ?(pid = 0) name ph =
    Json.Obj
      [ ("name", Json.Str name); ("ph", Json.Str ph); ("ts", Json.Num ts);
        ("pid", Json.Num (float_of_int pid)); ("tid", Json.Num 0.0) ]
  in
  let file events = Json.Obj [ ("traceEvents", Json.Arr events) ] in
  let rejects label events =
    match Trace_check.validate (file events) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validator accepted %s" label
  in
  rejects "orphan E" [ ev "a" "E" ];
  rejects "unclosed B" [ ev "a" "B" ];
  rejects "name-mismatched pair" [ ev ~ts:1.0 "a" "B"; ev ~ts:2.0 "b" "E" ];
  rejects "backwards time"
    [ ev ~ts:2.0 "a" "B"; ev ~ts:1.0 "a" "E" ];
  rejects "unknown phase" [ ev "a" "X" ];
  (match Trace_check.validate (Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validator accepted an object with no traceEvents");
  (* Interleaved lanes are independent: B/E balance is per (pid, tid). *)
  match
    Trace_check.validate
      (file [ ev ~ts:1.0 ~pid:1 "a" "B"; ev ~ts:1.5 ~pid:2 "b" "B";
              ev ~ts:2.0 ~pid:1 "a" "E"; ev ~ts:2.5 ~pid:2 "b" "E" ])
  with
  | Ok s -> check Alcotest.int "events counted" 4 s.Trace_check.events
  | Error e -> Alcotest.failf "independent lanes rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Timeseries                                                           *)
(* ------------------------------------------------------------------ *)

let test_timeseries_sampling () =
  let ts = Timeseries.create () in
  check Alcotest.int "empty" 0 (Timeseries.length ts);
  Timeseries.sample ts ~time:300.0 [ ("edges", 10.0); ("execs", 100.0) ];
  Timeseries.sample ts ~time:600.0 [ ("edges", 25.0); ("corpus", 3.0) ];
  check Alcotest.int "rows" 2 (Timeseries.length ts);
  check (Alcotest.list Alcotest.string) "columns in first-seen order"
    [ "edges"; "execs"; "corpus" ] (Timeseries.columns ts);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0)))
    "column extraction" [ (300.0, 10.0); (600.0, 25.0) ]
    (Timeseries.column ts "edges");
  check (Alcotest.option (Alcotest.float 0.0)) "last" (Some 25.0)
    (Timeseries.last ts "edges");
  check (Alcotest.option (Alcotest.float 0.0)) "last of sparse column"
    (Some 100.0) (Timeseries.last ts "execs")

let test_timeseries_jsonl_roundtrip () =
  let ts = Timeseries.create () in
  Timeseries.sample ts ~time:300.0 [ ("edges", 10.5); ("execs_per_s", 6.858333333333333) ];
  Timeseries.sample ts ~time:600.0 [ ("edges", 25.0); ("execs_per_s", 7.25) ];
  let jsonl = Timeseries.to_jsonl ts in
  (match Timeseries.of_jsonl jsonl with
  | Ok ts' ->
    check Alcotest.string "byte-exact re-serialization" jsonl
      (Timeseries.to_jsonl ts')
  | Error e -> Alcotest.fail e);
  (* Each line is a standalone JSON object with "t" first. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "line starts with t field" true
        (String.length line > 5 && String.sub line 0 5 = {|{"t":|});
      match Json.of_string line with
      | Ok (Json.Obj _) -> ()
      | _ -> Alcotest.failf "line is not an object: %s" line)
    (String.split_on_char '\n' (String.trim jsonl))

let test_timeseries_csv () =
  let ts = Timeseries.create () in
  Timeseries.sample ts ~time:1.0 [ ("a", 1.0) ];
  Timeseries.sample ts ~time:2.0 [ ("a", 2.0); ("b", 0.5) ];
  check Alcotest.string "rectangular with empty cells"
    "t,a,b\n1,1,\n2,2,0.5\n" (Timeseries.to_csv ts)

let test_timeseries_of_jsonl_errors () =
  (match Timeseries.of_jsonl "{\"edges\":1}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a row without t");
  (match Timeseries.of_jsonl "not json\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Timeseries.of_jsonl "" with
  | Ok ts -> check Alcotest.int "empty input, empty series" 0 (Timeseries.length ts)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Tracer drop metadata                                                 *)
(* ------------------------------------------------------------------ *)

let test_tracer_drop_metadata () =
  (* An overflowed ring must advertise its truncation in the export so
     `stats --check` can warn (and --strict can fail). *)
  let trace = Trace.create ~capacity:8 ~enabled:true () in
  let tr = Trace.tracer trace ~pid:7 ~name:"hot" in
  for _ = 1 to 50 do
    Tracer.span tr "task" (fun () -> ())
  done;
  let s = validated trace in
  (match s.Trace_check.dropped with
  | [ (7, n) ] ->
    check Alcotest.int "dropped count matches the tracer's" (Tracer.dropped tr) n
  | other ->
    Alcotest.failf "expected one dropped entry for pid 7, got %d"
      (List.length other));
  Alcotest.(check bool) "total_dropped positive" true
    (Trace_check.total_dropped s > 0);
  (* An untruncated trace carries no drop metadata at all — the export
     bytes are unchanged for healthy rings. *)
  let quiet = Trace.create ~enabled:true () in
  let qt = Trace.tracer quiet ~pid:1 ~name:"cold" in
  Tracer.span qt "task" (fun () -> ());
  let qs = validated quiet in
  check Alcotest.int "no drops, no metadata" 0 (Trace_check.total_dropped qs)

(* ------------------------------------------------------------------ *)
(* Events                                                               *)
(* ------------------------------------------------------------------ *)

module Events = Sp_obs.Events

let test_events_levels_and_since () =
  let lines = ref [] in
  let ev =
    Events.create ~capacity:4 ~min_level:Events.Info
      ~sink:(fun l -> lines := l :: !lines)
      ()
  in
  Events.log ev ~level:Events.Debug ~kind:"noise" [];
  check Alcotest.int "below min_level gets no seq" 0 (Events.seq ev);
  Events.log ev ~kind:"a" [ ("x", Json.Num 1.0) ];
  Events.log ev ~level:Events.Warn ~kind:"b" [];
  Events.log ev ~level:Events.Error ~kind:"c" [];
  check Alcotest.int "three accepted" 3 (Events.seq ev);
  check Alcotest.int "sink saw each accepted event" 3 (List.length !lines);
  (* since: strict cursor, oldest first *)
  let all = Events.since ev 0 in
  check
    Alcotest.(list string)
    "oldest first" [ "a"; "b"; "c" ]
    (List.map (fun e -> e.Events.ev_kind) all);
  let tail = Events.since ev 1 in
  check
    Alcotest.(list string)
    "cursor is exclusive" [ "b"; "c" ]
    (List.map (fun e -> e.Events.ev_kind) tail);
  let warns = Events.since ~min_level:Events.Warn ev 0 in
  check
    Alcotest.(list string)
    "level filter" [ "b"; "c" ]
    (List.map (fun e -> e.Events.ev_kind) warns);
  (* Overflow the 4-slot ring: the oldest events evict, the sink keeps
     everything, seq stays monotone. *)
  for i = 4 to 10 do
    Events.log ev ~kind:(Printf.sprintf "k%d" i) []
  done;
  check Alcotest.int "seq counts all accepted" 10 (Events.seq ev);
  Alcotest.(check bool) "ring evicted" true (Events.dropped ev > 0);
  let retained = Events.since ev 0 in
  check Alcotest.int "ring holds capacity" 4 (List.length retained);
  check Alcotest.int "sink saw every accepted event" 10 (List.length !lines);
  (match retained with
  | first :: _ -> check Alcotest.int "oldest retained seq" 7 first.Events.ev_seq
  | [] -> Alcotest.fail "ring empty");
  (* the sink lines are the event_json serialization *)
  (match Json.of_string (List.hd !lines) with
  | Ok j ->
    Alcotest.(check bool) "sink line parses to an event object" true
      (Json.member "seq" j <> None && Json.member "kind" j <> None)
  | Error e -> Alcotest.failf "sink line unparsable: %s" e)

let test_events_null_disabled () =
  Alcotest.(check bool) "null disabled" false (Events.enabled Events.null);
  Events.log Events.null ~kind:"ignored" [];
  check Alcotest.int "no seq" 0 (Events.seq Events.null);
  check Alcotest.int "no events" 0 (List.length (Events.since Events.null 0))

(* ------------------------------------------------------------------ *)
(* HTTP parser                                                          *)
(* ------------------------------------------------------------------ *)

module Http = Sp_obs.Http

let test_http_parse_request () =
  (match Http.parse_request "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Ok r ->
    check Alcotest.string "method" "GET" r.Http.rq_method;
    check Alcotest.string "path" "/metrics" r.Http.rq_path;
    check Alcotest.string "version" "HTTP/1.1" r.Http.rq_version;
    check Alcotest.(option string) "header lowercased" (Some "x")
      (Http.header r "HOST")
  | Error e -> Alcotest.failf "plain GET rejected: %s" e);
  (match
     Http.parse_request "GET /events?since=42&level=warn HTTP/1.1\r\n\r\n"
   with
  | Ok r ->
    check Alcotest.string "query stripped from path" "/events" r.Http.rq_path;
    check Alcotest.(option int) "query_int" (Some 42) (Http.query_int r "since");
    check Alcotest.(option int) "non-int query" None (Http.query_int r "level")
  | Error e -> Alcotest.failf "query GET rejected: %s" e);
  (match Http.parse_request "GET /a%20b+c HTTP/1.0\r\n\r\n" with
  | Ok r -> check Alcotest.string "percent+plus decoded" "/a b c" r.Http.rq_path
  | Error e -> Alcotest.failf "escaped path rejected: %s" e)

let test_http_parse_hostile () =
  let rejected head =
    match Http.parse_request head with
    | Ok _ -> Alcotest.failf "hostile head accepted: %S" head
    | Error _ -> ()
  in
  rejected "";
  rejected "GET";
  rejected "GET /";
  rejected "get /x HTTP/1.1";
  (* lowercase method *)
  rejected "GET x HTTP/1.1";
  (* target must start with / *)
  rejected "GET /x HTTP/2.0";
  (* unsupported version *)
  rejected "GET /x SMTP";
  rejected "GET /\x01 HTTP/1.1";
  (* ctl byte in target *)
  rejected "GET /x HTTP/1.1\r\nno-colon-header\r\n";
  rejected "GET /x HTTP/1.1\r\nbad: \x00value\r\n";
  (* percent_decode leaves invalid escapes verbatim *)
  check Alcotest.string "bad escape passthrough" "%zz"
    (Http.percent_decode "%zz")

let test_http_read_head_partial () =
  (* Drip the head through a socketpair a few bytes at a time: read_head
     must reassemble across arbitrarily fragmented reads and discard
     body bytes after the terminator. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let head = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
  let writer =
    Thread.create
      (fun () ->
        String.iteri
          (fun _ c ->
            ignore (Unix.write_substring a (String.make 1 c) 0 1);
            if Char.code c mod 7 = 0 then Thread.yield ())
          (head ^ "trailing body ignored"))
      ()
  in
  (match Http.read_head b with
  | Ok got ->
    Alcotest.(check bool) "head recovered" true
      (String.length got >= String.length head - 4)
  | Error e -> Alcotest.failf "read_head failed: %s" e);
  Thread.join writer;
  Unix.close a;
  Unix.close b;
  (* EOF before the terminator is an error, not a hang *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring c "GET / HTTP/1.1\r\n" 0 16);
  Unix.close c;
  (match Http.read_head d with
  | Ok _ -> Alcotest.fail "truncated head accepted"
  | Error _ -> ());
  Unix.close d;
  (* an oversized head is rejected by the size cap *)
  let e, f = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let flood = Thread.create (fun () ->
      try
        ignore
          (Unix.write_substring e (String.make 9000 'A') 0 9000)
      with Unix.Unix_error _ -> ()) ()
  in
  (match Http.read_head ~max_bytes:1024 f with
  | Ok _ -> Alcotest.fail "oversized head accepted"
  | Error _ -> ());
  Unix.close f;
  Thread.join flood;
  Unix.close e

(* ------------------------------------------------------------------ *)
(* Exposition                                                           *)
(* ------------------------------------------------------------------ *)

module Exposition = Sp_obs.Exposition

let test_exposition_render_validate () =
  let metrics =
    [ Exposition.metric ~help:"total things" Exposition.Counter "things_total"
        42.0;
      Exposition.metric
        ~labels:[ ("tenant", "al\"pha\n\\") ]
        Exposition.Gauge "tenant_state" 1.0;
      Exposition.metric
        ~labels:[ ("tenant", "beta") ]
        Exposition.Gauge "tenant_state" 0.0;
      Exposition.metric Exposition.Gauge "weird_values" Float.nan;
      Exposition.metric Exposition.Gauge "more_values" Float.infinity
    ]
  in
  let text = Exposition.render metrics in
  (match Exposition.validate text with
  | Ok x ->
    check Alcotest.int "families" 4 x.Exposition.x_families;
    check Alcotest.int "samples" 5 x.Exposition.x_samples;
    check
      Alcotest.(list string)
      "first-seen family order"
      [ "things_total"; "tenant_state"; "weird_values"; "more_values" ]
      x.Exposition.x_names
  | Error e -> Alcotest.failf "renderer output rejected: %s\n%s" e text);
  Alcotest.(check bool) "label value escaped" true
    (let needle = {|al\"pha\n\\|} in
     let n = String.length needle in
     let rec go i =
       i + n <= String.length text
       && (String.sub text i n = needle || go (i + 1))
     in
     go 0);
  (* sanitize_name maps internal dotted names into the charset *)
  check Alcotest.string "sanitize dots" "scheduler_execs_total"
    (Exposition.sanitize_name "scheduler.execs_total");
  check Alcotest.string "sanitize leading digit" "_9lives"
    (Exposition.sanitize_name "9lives");
  (* invalid names raise rather than emit a corrupt payload *)
  (match Exposition.render [ Exposition.metric Exposition.Gauge "bad name" 0.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid metric name accepted");
  (match
     Exposition.render
       [ Exposition.metric ~labels:[ ("bad label", "v") ] Exposition.Gauge "m" 0.0 ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid label name accepted")

let test_exposition_validator_rejects () =
  let rejected text =
    match Exposition.validate text with
    | Ok _ -> Alcotest.failf "accepted: %S" text
    | Error _ -> ()
  in
  rejected "no_type_decl 1\n";
  (* sample before TYPE *)
  rejected "# TYPE m counter\n# TYPE m counter\nm 1\n";
  (* duplicate TYPE *)
  rejected "# TYPE m counter\nm not-a-number\n";
  rejected "# TYPE m counter\nm{unclosed=\"v\" 1\n";
  match Exposition.validate "# TYPE m counter\nm{l=\"v\"} 1\nm 2\n" with
  | Ok x -> check Alcotest.int "two samples, one family" 2 x.Exposition.x_samples
  | Error e -> Alcotest.failf "valid payload rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Exporter                                                             *)
(* ------------------------------------------------------------------ *)

module Exporter = Sp_obs.Exporter

let test_exporter_end_to_end () =
  let ev = Events.create () in
  Events.log ev ~kind:"boot" [ ("ok", Json.Bool true) ];
  let ex = Exporter.create ~events:ev () in
  Exporter.publish ex
    {
      Exporter.p_metrics =
        [ Exposition.metric Exposition.Counter "snowplow_scheduler_slices" 3.0 ];
      p_health = Json.Obj [ ("status", Json.Str "ok") ];
      p_tenants = Json.Arr [ Json.Obj [ ("name", Json.Str "alpha") ] ];
    };
  match Exporter.start ex ~port:0 with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok port ->
    Fun.protect ~finally:(fun () -> Exporter.stop ex) @@ fun () ->
    let get path =
      match Http.get ~host:"127.0.0.1" ~port path with
      | Ok r -> r
      | Error e -> Alcotest.failf "GET %s: %s" path e
    in
    let code, _, metrics = get "/metrics" in
    check Alcotest.int "/metrics 200" 200 code;
    (match Exposition.validate metrics with
    | Ok x ->
      Alcotest.(check bool) "published family served" true
        (List.mem "snowplow_scheduler_slices" x.Exposition.x_names)
    | Error e -> Alcotest.failf "/metrics invalid: %s" e);
    let code, _, health = get "/health" in
    check Alcotest.int "/health 200" 200 code;
    check Alcotest.string "/health body" {|{"status":"ok"}|}
      (String.trim health);
    let code, _, tenants = get "/tenants" in
    check Alcotest.int "/tenants 200" 200 code;
    check Alcotest.string "/tenants body" {|[{"name":"alpha"}]|}
      (String.trim tenants);
    let code, _, events_body = get "/events?since=0" in
    check Alcotest.int "/events 200" 200 code;
    (match Json.of_string events_body with
    | Ok j ->
      (* the exporter logs its own exporter.start event after boot *)
      (match Option.bind (Json.member "events" j) Json.arr_opt with
      | Some (e1 :: _ as evs) ->
        check Alcotest.(option string) "first event kind served" (Some "boot")
          (Option.bind (Json.member "kind" e1) Json.str_opt);
        check Alcotest.int "both events served" 2 (List.length evs)
      | _ ->
        Alcotest.failf "/events: expected events, got %s" events_body);
      check Alcotest.(option (float 0.0)) "next cursor" (Some 2.0)
        (Option.bind (Json.member "next" j) Json.num_opt)
    | Error e -> Alcotest.failf "/events unparsable: %s" e);
    (* the since cursor is exclusive: seq 1 is skipped *)
    let _, _, tail_body = get "/events?since=1" in
    (match Json.of_string tail_body with
    | Ok j ->
      (match Option.bind (Json.member "events" j) Json.arr_opt with
      | Some evs ->
        Alcotest.(check bool) "cursor excludes seq 1" true
          (List.for_all
             (fun e ->
               Option.bind (Json.member "seq" e) Json.num_opt
               |> Option.value ~default:0.0 > 1.0)
             evs)
      | None -> Alcotest.fail "/events tail: missing events array")
    | Error e -> Alcotest.failf "/events tail unparsable: %s" e);
    let code, _, _ = get "/nope" in
    check Alcotest.int "404 for unknown path" 404 code;
    let code, _, _ = get "/events?level=bogus" in
    check Alcotest.int "400 for a bad level" 400 code;
    (* a republish swaps what subsequent scrapes see *)
    Exporter.publish ex
      {
        Exporter.p_metrics = [];
        p_health = Json.Obj [ ("status", Json.Str "degraded") ];
        p_tenants = Json.Arr [];
      };
    let _, _, health2 = get "/health" in
    check Alcotest.string "republished health" {|{"status":"degraded"}|}
      (String.trim health2)

let test_exporter_concurrent_scrapes () =
  let ex = Exporter.create () in
  Exporter.publish ex
    {
      Exporter.p_metrics =
        [ Exposition.metric Exposition.Gauge "snowplow_up" 1.0 ];
      p_health = Json.Obj [ ("status", Json.Str "ok") ];
      p_tenants = Json.Arr [];
    };
  match Exporter.start ex ~port:0 with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok port ->
    Fun.protect ~finally:(fun () -> Exporter.stop ex) @@ fun () ->
    let failures = Atomic.make 0 in
    let scraper _ =
      Thread.create
        (fun () ->
          for _ = 1 to 10 do
            match Http.get ~host:"127.0.0.1" ~port "/metrics" with
            | Ok (200, _, body) -> (
              match Exposition.validate body with
              | Ok _ -> ()
              | Error _ -> Atomic.incr failures)
            | Ok _ | Error _ -> Atomic.incr failures
          done)
        ()
    in
    let threads = List.init 4 scraper in
    List.iter Thread.join threads;
    check Alcotest.int "every concurrent scrape succeeded" 0
      (Atomic.get failures);
    (* stop is idempotent and wakes the accept loop *)
    Exporter.stop ex;
    Exporter.stop ex

(* ------------------------------------------------------------------ *)
(* stats rules, top scrape check, bench-diff comparison                 *)
(* ------------------------------------------------------------------ *)

let test_stats_rules () =
  let trace = Trace.create ~capacity:8 ~enabled:true () in
  let tr = Trace.tracer trace ~pid:0 ~name:"main" in
  for _ = 1 to 20 do
    Tracer.span tr "epoch" (fun () -> ())
  done;
  let s = validated trace in
  check
    Alcotest.(list string)
    "dropped events pass --check" []
    (Trace_check.problems ~strict:false ~expect_spans:[ "epoch" ] s);
  check
    Alcotest.(list string)
    "--strict fails them; a missing span fails either way"
    [ "32 event(s) dropped from bounded rings"; "expected span \"merge\" missing" ]
    (Trace_check.problems ~strict:true ~expect_spans:[ "epoch"; "merge" ] s);
  let ts = Timeseries.create () in
  Timeseries.sample ts ~time:1.0 [ ("edges", 3.0) ];
  check
    Alcotest.(list string)
    "missing series, in order" [ "corpus"; "blocks" ]
    (Timeseries.missing ts [ "corpus"; "edges"; "blocks" ])

module Scrape = Sp_obs.Scrape

let good_sample () =
  let module E = Sp_obs.Exposition in
  {
    Scrape.health = Json.Obj [ ("status", Json.Str "ok"); ("running", Json.Bool true) ];
    tenants =
      Json.Arr
        [ Json.Obj
            [ ("name", Json.Str "a"); ("state", Json.Str "healthy");
              ("weight", Json.Num 2.0); ("slices", Json.Num 3.0);
              ("executions", Json.Num 900.0); ("budget_remaining", Json.Null);
              ("retries", Json.Num 1.0) ];
          Json.Obj [ ("name", Json.Str "no-state") ];
          Json.Obj [ ("name", Json.Str "b"); ("state", Json.Str "exhausted");
                     ("budget_remaining", Json.Num 0.0) ] ];
    metrics =
      E.render
        (List.map
           (fun name -> E.metric E.Gauge name 1.0)
           [ "snowplow_scheduler_slices"; "snowplow_tenant_state";
             "snowplow_tenant_executions" ]);
  }

let test_scrape_check () =
  let good = good_sample () in
  check Alcotest.(list string) "a well-formed scrape passes" [] (Scrape.check good);
  check
    Alcotest.(list string)
    "every broken endpoint is reported"
    [ "/metrics: expected family snowplow_tenant_state missing";
      "/metrics: expected family snowplow_tenant_executions missing";
      "/health: missing status"; "/tenants: empty roster" ]
    (Scrape.check
       { health = Json.Obj [];
         tenants = Json.Arr [];
         metrics =
           Sp_obs.Exposition.(render [ metric Gauge "snowplow_scheduler_slices" 1.0 ]) });
  check
    Alcotest.(list string)
    "wrong shapes"
    [ "/metrics: no samples"; "/metrics: expected family snowplow_scheduler_slices missing";
      "/metrics: expected family snowplow_tenant_state missing";
      "/metrics: expected family snowplow_tenant_executions missing";
      "/health: expected an object"; "/tenants: expected an array" ]
    (Scrape.check { health = Json.Arr []; tenants = Json.Obj []; metrics = "" });
  Alcotest.(check bool) "garbage exposition is invalid" true
    (match Scrape.check { good with metrics = "not a metric line{" } with
    | p :: _ -> String.starts_with ~prefix:"/metrics: invalid exposition" p
    | [] -> false);
  let rows = Scrape.tenant_rows good.tenants in
  check Alcotest.(list string) "rows need a name and a state" [ "a"; "b" ]
    (List.map (fun (r : Scrape.tenant_row) -> r.name) rows);
  (match rows with
  | [ a; b ] ->
    check Alcotest.int "executions" 900 a.executions;
    check Alcotest.int "retries" 1 a.retries;
    check (Alcotest.float 0.0) "weight" 2.0 a.weight;
    check Alcotest.(option int) "null budget" None a.budget_remaining;
    check Alcotest.(option int) "budget" (Some 0) b.budget_remaining;
    check (Alcotest.float 0.0) "default weight" 1.0 b.weight
  | _ -> Alcotest.fail "two rows expected");
  check Alcotest.int "non-array has no rows" 0 (List.length (Scrape.tenant_rows Json.Null));
  let target = Alcotest.(result (pair string int) string) in
  check target "host and port" (Ok ("10.0.0.1", 9090)) (Scrape.parse_target "10.0.0.1:9090");
  check target "empty host is loopback" (Ok ("127.0.0.1", 80)) (Scrape.parse_target ":80");
  check target "port out of range" (Error "--connect \"h:70000\": bad port")
    (Scrape.parse_target "h:70000");
  check target "no port" (Error "--connect \"h\": expected HOST:PORT")
    (Scrape.parse_target "h")

module Bench_diff = Sp_obs.Bench_diff

let test_bench_diff_compare () =
  let floors = [ { Bench_diff.experiment = "E1"; key = "speedup"; min = 3.0 } ] in
  let bars = [ { Bench_diff.experiment = "E1"; key = "speedup"; min = 1.1 } ] in
  let cmp ~baseline ~fresh = Bench_diff.compare ~floors ~bars "E1" ~baseline ~fresh in
  check Alcotest.(list string) "a clean pair passes" []
    (cmp ~baseline:[ ("speedup", 3.5); ("delta", -1.0) ]
       ~fresh:[ ("delta", 0.0); ("speedup", 1.2) ]);
  check Alcotest.(list string) "other experiments' bounds do not apply" []
    (Bench_diff.compare ~floors ~bars "E2" ~baseline:[ ("x", 1.0) ] ~fresh:[ ("x", 2.0) ]);
  check
    Alcotest.(list string)
    "key sets, finiteness, positivity, floor and bar"
    [ "E1: metric key sets differ (baseline: speedup,wall_s; fresh: speedup)";
      "E1: baseline wall_s is not finite (nan)";
      "E1: fresh speedup must be positive, got -1";
      "E1: committed baseline speedup = 2 is below the 3 floor (perf rot in the \
       committed trajectory)";
      "E1: fresh speedup = -1 is below the 1.1 quick-mode bar" ]
    (cmp ~baseline:[ ("speedup", 2.0); ("wall_s", Float.nan) ] ~fresh:[ ("speedup", -1.0) ]);
  check
    Alcotest.(list string)
    "a missing bounded key is a problem"
    [ "E1: baseline is missing speedup"; "E1: fresh run is missing speedup" ]
    (cmp ~baseline:[] ~fresh:[]);
  List.iter
    (fun (key, positive) ->
      Alcotest.(check bool) key positive (Bench_diff.positive_key key))
    [ ("wall_s", true); ("Execs_total", true); ("inference_qps", true);
      ("throughput_ratio", true); ("speedup_vs_reference", true); ("delta", false) ]

let test_bench_diff_run () =
  let dir name =
    let d = Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bench-diff-%s-%d" name (Unix.getpid ())) in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  in
  let baseline_dir = dir "base" and fresh_dir = dir "fresh" in
  let write d e body = Sp_obs.Io.write_atomic (Filename.concat d ("BENCH_" ^ e ^ ".json")) body in
  write baseline_dir "E1" {|{"experiment":"E1","wall_s":2.0,"n":3}|};
  write fresh_dir "E1" {|{"experiment":"E1","wall_s":0.5,"n":1}|};
  write baseline_dir "E2" {|{"wall_s":1.0}|};
  write fresh_dir "E2" "[1]";
  write baseline_dir "E3" {|{"wall_s":1.0}|};
  check Alcotest.(list string) "pairs with a fresh side, sorted" [ "E1"; "E2" ]
    (Bench_diff.experiments ~baseline_dir ~fresh_dir);
  let o = Bench_diff.run ~floors:[] ~bars:[] ~baseline_dir ~fresh_dir [ "E1"; "E2"; "E3" ] in
  check Alcotest.(list (pair string int)) "compared" [ ("E1", 2) ] o.Bench_diff.compared;
  check Alcotest.int "values on both sides" 4 o.Bench_diff.values;
  check Alcotest.int "unreadable files are problems" 2 (List.length o.Bench_diff.problems);
  Alcotest.(check bool) "non-object fresh file" true
    (List.exists
       (fun p -> String.ends_with ~suffix:"expected a JSON object" p)
       o.Bench_diff.problems)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sp_obs"
    [
      ( "json",
        [
          Alcotest.test_case "emit and parse basics" `Quick test_json_basics;
          Alcotest.test_case "string escaping round-trips" `Quick
            test_json_string_escaping;
          Alcotest.test_case "floats round-trip exactly" `Quick
            test_json_float_exact;
          Alcotest.test_case "malformed input rejected" `Quick
            test_json_parse_errors;
          Alcotest.test_case "nesting depth bounded" `Quick
            test_json_depth_bound;
        ] );
      qsuite "json-props"
        [ test_json_float_exact_prop; test_json_string_roundtrip_prop ];
      ( "tracer",
        [
          Alcotest.test_case "spans, instants, counters export" `Quick
            test_tracer_spans_and_export;
          Alcotest.test_case "span closes on raise" `Quick
            test_tracer_span_reraises;
          Alcotest.test_case "ring eviction keeps export balanced" `Quick
            test_tracer_ring_eviction_stays_balanced;
          Alcotest.test_case "unclosed span dropped at export" `Quick
            test_tracer_unclosed_span_dropped;
          Alcotest.test_case "disabled tracer is a no-op" `Quick
            test_tracer_disabled_is_noop;
          Alcotest.test_case "multi-pid collection" `Quick
            test_trace_multi_pid_export;
          Alcotest.test_case "validator rejects malformed traces" `Quick
            test_trace_check_rejects_malformed;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "sampling and columns" `Quick
            test_timeseries_sampling;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_timeseries_jsonl_roundtrip;
          Alcotest.test_case "csv shape" `Quick test_timeseries_csv;
          Alcotest.test_case "of_jsonl validation" `Quick
            test_timeseries_of_jsonl_errors;
        ] );
      ( "tracer-drops",
        [
          Alcotest.test_case "truncation rides the export as metadata"
            `Quick test_tracer_drop_metadata;
        ] );
      ( "events",
        [
          Alcotest.test_case "levels, since cursor, ring eviction, sink"
            `Quick test_events_levels_and_since;
          Alcotest.test_case "null log is inert" `Quick
            test_events_null_disabled;
        ] );
      ( "http",
        [
          Alcotest.test_case "request parsing" `Quick test_http_parse_request;
          Alcotest.test_case "hostile heads rejected" `Quick
            test_http_parse_hostile;
          Alcotest.test_case "read_head reassembles partial reads" `Quick
            test_http_read_head_partial;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "render/validate round-trip" `Quick
            test_exposition_render_validate;
          Alcotest.test_case "validator rejects malformed payloads" `Quick
            test_exposition_validator_rejects;
        ] );
      ( "cli-logic",
        [
          Alcotest.test_case "stats pass/fail rules" `Quick test_stats_rules;
          Alcotest.test_case "top scrape check and tenant rows" `Quick
            test_scrape_check;
          Alcotest.test_case "bench-diff comparison" `Quick
            test_bench_diff_compare;
          Alcotest.test_case "bench-diff over trajectory files" `Quick
            test_bench_diff_run;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "endpoints end-to-end" `Quick
            test_exporter_end_to_end;
          Alcotest.test_case "concurrent scrapes" `Quick
            test_exporter_concurrent_scrapes;
        ] );
    ]
