(* Tests for campaign snapshot/resume: the JSON codecs each serialized
   component round-trips through, the atomic file writer the snapshots
   (and every other artifact) rely on, the on-disk snapshot layout, and
   the headline property — a campaign killed after any barrier and
   resumed from its snapshot produces a report byte-identical
   ([Campaign.report_json] serialization) to the uninterrupted run. *)

module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Json = Sp_obs.Json
module Io = Sp_obs.Io
module Accum = Sp_coverage.Accum
module Kernel = Sp_kernel.Kernel
module Build = Sp_kernel.Build
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Parser = Sp_syzlang.Parser
module Vm = Sp_fuzz.Vm
module Strategy = Sp_fuzz.Strategy
module Campaign = Sp_fuzz.Campaign
module Corpus = Sp_fuzz.Corpus
module Snapshot = Sp_fuzz.Snapshot

let check = Alcotest.check

(* Shared small kernel (same shape as test_parallel's). *)
let small_config =
  { Build.default_config with num_syscalls = 16; handler_budget = 120; max_depth = 8 }

let kernel = Kernel.generate small_config

let db = Kernel.spec_db kernel

let parse = Parser.program db

(* ------------------------------------------------------------------ *)
(* Component codecs                                                     *)
(* ------------------------------------------------------------------ *)

let qcheck_int64_roundtrip =
  QCheck.Test.make ~count:500 ~name:"int64 hex codec round-trips any state"
    QCheck.int64 (fun v ->
      Json.Decode.int64_field "s" (Json.Obj [ ("s", Json.Decode.int64_to_json v) ])
      = v)

let test_rng_json_roundtrip () =
  let rng = Rng.create 99 in
  for _ = 1 to 23 do ignore (Rng.bits64 rng) done;
  let doc = Json.Obj [ ("rng", Json.Decode.int64_to_json (Rng.state rng)) ] in
  let restored = Rng.of_state (Json.Decode.int64_field "rng" doc) in
  check
    (Alcotest.list Alcotest.int64)
    "restored stream replays the original"
    (List.init 40 (fun _ -> Rng.bits64 rng))
    (List.init 40 (fun _ -> Rng.bits64 restored))

let qcheck_bitset_roundtrip =
  QCheck.Test.make ~count:300 ~name:"bitset codec round-trips"
    QCheck.(pair (int_range 1 512) (small_list small_nat))
    (fun (cap, raw) ->
      let b = Bitset.of_list cap (List.map (fun i -> i mod cap) raw) in
      let b' = Accum.bitset_of_json (Accum.bitset_to_json b) in
      Bitset.equal b b' && Bitset.capacity b' = cap)

let test_accum_json_roundtrip () =
  let rng = Rng.create 3 in
  let acc = Accum.create ~num_blocks:64 ~num_edges:128 in
  for _ = 1 to 20 do
    let blocks = Bitset.of_list 64 (List.init 5 (fun _ -> Rng.int rng 64)) in
    let edges = Bitset.of_list 128 (List.init 7 (fun _ -> Rng.int rng 128)) in
    ignore (Accum.add acc ~blocks ~edges)
  done;
  let j = Accum.to_json acc in
  let acc' = Accum.of_json j in
  check Alcotest.int "blocks covered" (Accum.blocks_covered acc)
    (Accum.blocks_covered acc');
  check Alcotest.int "edges covered" (Accum.edges_covered acc)
    (Accum.edges_covered acc');
  Alcotest.(check bool) "capacities preserved" true
    (Accum.capacities acc = Accum.capacities acc');
  Alcotest.(check bool) "block sets equal" true
    (Bitset.equal (Accum.snapshot_blocks acc) (Accum.snapshot_blocks acc'));
  (* Canonical bytes: re-serializing the restored accumulator is stable. *)
  check Alcotest.string "canonical serialization" (Json.to_string j)
    (Json.to_string (Accum.to_json acc'))

let test_corpus_codec_roundtrip () =
  let progs = Gen.corpus (Rng.create 5) db ~size:8 in
  let corpus = Corpus.create () in
  List.iteri
    (fun i prog ->
      let entry =
        { Corpus.prog;
          blocks = Bitset.of_list 64 [ i; (2 * i) mod 64 ];
          edges = Bitset.of_list 128 [ (3 * i) mod 128 ];
          added_at = float_of_int i *. 10.0 }
      in
      Alcotest.(check bool) "admitted" true (Corpus.add corpus entry))
    progs;
  let j = Snapshot.corpus_to_json corpus in
  let entries = Snapshot.corpus_entries_of_json ~parse j in
  check Alcotest.int "entry count" (Corpus.size corpus) (List.length entries);
  (* Re-adding the decoded entries in list order reproduces the corpus —
     including entry order, so the serialization is byte-stable. *)
  let corpus' = Corpus.create () in
  List.iter (fun e -> ignore (Corpus.add corpus' e)) entries;
  check Alcotest.string "canonical corpus serialization" (Json.to_string j)
    (Json.to_string (Snapshot.corpus_to_json corpus'));
  List.iter2
    (fun (a : Corpus.entry) (b : Corpus.entry) ->
      Alcotest.(check bool) "programs equal" true (Prog.equal a.Corpus.prog b.Corpus.prog);
      Alcotest.(check bool) "coverage equal" true
        (Bitset.equal a.Corpus.blocks b.Corpus.blocks
        && Bitset.equal a.Corpus.edges b.Corpus.edges);
      check (Alcotest.float 0.0) "added_at equal" a.Corpus.added_at b.Corpus.added_at)
    (Corpus.entries corpus) (Corpus.entries corpus')

let test_codec_rejects_malformed () =
  (match Snapshot.entry_of_json ~parse Json.Null with
  | _ -> Alcotest.fail "entry_of_json accepted Null"
  | exception Json.Decode.Error _ -> ());
  (match Accum.bitset_of_json (Json.Obj [ ("capacity", Json.Num 4.0) ]) with
  | _ -> Alcotest.fail "bitset_of_json accepted a set with no elements field"
  | exception Json.Decode.Error _ -> ());
  match
    Json.Decode.int64_field "s" (Json.Obj [ ("s", Json.Str "not-hex") ])
  with
  | _ -> Alcotest.fail "int64_field accepted a non-hex string"
  | exception Json.Decode.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                        *)
(* ------------------------------------------------------------------ *)

let with_dir name f = f (Test_support.Test_dir.fresh name)

let no_tmp_leftovers dir =
  Array.for_all
    (fun file -> not (Filename.check_suffix file ".tmp"))
    (Sys.readdir dir)

let test_write_atomic_roundtrip () =
  with_dir "wa-basic" (fun dir ->
      let path = Filename.concat dir "out.txt" in
      Io.write_atomic path "first\n";
      check Alcotest.string "write then read" "first\n" (Io.read_file path);
      Io.write_atomic path "second\n";
      check Alcotest.string "overwrite" "second\n" (Io.read_file path);
      Alcotest.(check bool) "no temp files left" true (no_tmp_leftovers dir))

let test_write_atomic_interrupted () =
  with_dir "wa-interrupted" (fun dir ->
      let path = Filename.concat dir "out.txt" in
      Io.write_atomic path "previous snapshot\n";
      (* A writer that dies mid-stream models a kill during serialization:
         the destination must keep its previous contents and the temp file
         must not leak. *)
      (match
         Io.write_atomic_with path (fun oc ->
             output_string oc "torn partial wri";
             failwith "killed mid-write")
       with
      | () -> Alcotest.fail "interrupted write should raise"
      | exception Failure _ -> ());
      check Alcotest.string "previous contents intact" "previous snapshot\n"
        (Io.read_file path);
      Alcotest.(check bool) "no temp files left" true (no_tmp_leftovers dir))

(* ------------------------------------------------------------------ *)
(* Snapshot files                                                       *)
(* ------------------------------------------------------------------ *)

let test_snapshot_path_layout () =
  check Alcotest.string "zero-padded barrier name" "d/snapshot-000003.json"
    (Snapshot.path ~dir:"d" ~barrier:3);
  check Alcotest.string "wide barriers fit" "d/snapshot-123456.json"
    (Snapshot.path ~dir:"d" ~barrier:123456)

let test_snapshot_write_read () =
  with_dir "snap-files" (fun dir ->
      (* write creates nested directories as needed *)
      let nested = Filename.concat dir "a/b" in
      let doc = Json.Obj [ ("barrier", Json.Num 1.0); ("ok", Json.Bool true) ] in
      let path = Snapshot.write ~dir:nested ~barrier:1 doc in
      check Alcotest.string "path returned" (Snapshot.path ~dir:nested ~barrier:1) path;
      (match Snapshot.read path with
      | Ok j -> Alcotest.(check bool) "round-trips" true (Json.equal doc j)
      | Error e -> Alcotest.failf "read failed: %s" e);
      match Snapshot.read (Filename.concat dir "missing.json") with
      | Ok _ -> Alcotest.fail "read of a missing file should be an Error"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Resume determinism                                                   *)
(* ------------------------------------------------------------------ *)

let seeds = Gen.corpus (Rng.create 42) db ~size:30

let cfg =
  { Campaign.default_config with
    seed_corpus = seeds; seed = 7; duration = 900.0; snapshot_every = 300.0 }

let vm_for s = Vm.create ~seed:(100 + s) kernel

let strategy_for _ = Strategy.syzkaller db

let report_bytes r = Json.to_string (Campaign.report_json r)

(* Build and run one campaign; a rejected [restore] document is an
   [Error], as the CLI reports it. *)
let run_campaign ?snapshot_dir ?restore ?on_barrier ?aux ?(jobs = 2)
    ?(strategy_for = strategy_for) cfg =
  Json.Decode.run (fun () ->
      Campaign.run
        (Campaign.create_instance ?snapshot_dir ?restore ?on_barrier ?aux ~jobs
           ~vm_for ~strategy_for cfg))

let run_ok ?snapshot_dir cfg =
  match run_campaign ?snapshot_dir cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign failed: %s" e

let snap_dir = "snap-resume"

(* One uninterrupted jobs=2 run, snapshotting at every barrier — the
   oracle every resumed run must match byte-for-byte. *)
let baseline =
  lazy
    (with_dir snap_dir (fun dir ->
         report_bytes (run_ok ~snapshot_dir:dir cfg)))

let resume_from ?(cfg = cfg) ?(jobs = 2) barrier =
  match Snapshot.read (Snapshot.path ~dir:snap_dir ~barrier) with
  | Error e -> Alcotest.failf "snapshot %d unreadable: %s" barrier e
  | Ok snapshot -> run_campaign ~restore:snapshot ~jobs cfg

let test_snapshots_written_per_barrier () =
  let oracle = Lazy.force baseline in
  Alcotest.(check bool) "baseline did real work" true (String.length oracle > 0);
  (* 900 s at a 300 s grid = barriers 1..3, one file each. *)
  List.iter
    (fun barrier ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot %d exists" barrier)
        true
        (Sys.file_exists (Snapshot.path ~dir:snap_dir ~barrier)))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "no temp files left" true (no_tmp_leftovers snap_dir)

let test_snapshotting_does_not_perturb () =
  let oracle = Lazy.force baseline in
  check Alcotest.string "snapshot_dir leaves the campaign unchanged" oracle
    (report_bytes (run_ok cfg))

let test_resume_matches_uninterrupted () =
  let oracle = Lazy.force baseline in
  (* >= 2 distinct resume points: kill after the first barrier, and kill
     after the second. Both must replay to the identical report. *)
  List.iter
    (fun barrier ->
      match resume_from barrier with
      | Error e -> Alcotest.failf "resume at barrier %d failed: %s" barrier e
      | Ok r ->
        check Alcotest.string
          (Printf.sprintf "resume at barrier %d is byte-identical" barrier)
          oracle (report_bytes r))
    [ 1; 2 ]

let test_resume_from_final_snapshot () =
  let oracle = Lazy.force baseline in
  match resume_from 3 with
  | Error e -> Alcotest.failf "resume from final snapshot failed: %s" e
  | Ok r ->
    check Alcotest.string "final snapshot reassembles the report" oracle
      (report_bytes r)

let test_resume_rejects_config_mismatch () =
  ignore (Lazy.force baseline);
  (match resume_from ~cfg:{ cfg with seed = cfg.seed + 1 } 1 with
  | Ok _ -> Alcotest.fail "seed mismatch accepted"
  | Error _ -> ());
  (match resume_from ~jobs:3 1 with
  | Ok _ -> Alcotest.fail "jobs mismatch accepted"
  | Error _ -> ());
  match resume_from ~cfg:{ cfg with duration = 1200.0 } 1 with
  | Ok _ -> Alcotest.fail "duration mismatch accepted"
  | Error _ -> ()

let test_resume_rejects_garbage () =
  (match
     run_campaign ~restore:(Json.Obj [ ("format", Json.Str "bogus") ]) cfg
   with
  | Ok _ -> Alcotest.fail "wrong format accepted"
  | Error _ -> ());
  match run_campaign ~restore:Json.Null cfg with
  | Ok _ -> Alcotest.fail "Null snapshot accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Snowplow aux state: inference / funnel / prediction memos            *)
(* ------------------------------------------------------------------ *)

(* A real (untrained) PMM behind the real service, as in test_parallel:
   creation is cheap and deterministic, so two calls build services with
   identical initial state — which is what lets a resumed run recreate
   the service fresh and restore the snapshot's aux into it. *)
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

let test_inference_state_roundtrip () =
  let service = inference () in
  let prog s = Gen.program (Rng.create s) db () in
  (* Mixed-tag traffic, partially drained: the surviving state holds a
     non-empty queue, warm caches and per-tag counters. *)
  for s = 1 to 6 do
    ignore
      (Snowplow.Inference.request service ~tag:(s mod 2)
         ~now:(float_of_int s) (prog s) ~targets:[ 0 ])
  done;
  ignore (Snowplow.Inference.poll service ~tag:1 ~now:1000.0 ());
  let j = Snowplow.Inference.state_json service in
  let service' = inference () in
  Snowplow.Inference.restore_state service' ~parse j;
  check Alcotest.string "canonical state serialization"
    (Json.to_string j)
    (Json.to_string (Snowplow.Inference.state_json service'));
  check Alcotest.int "pending queue restored"
    (Snowplow.Inference.pending service)
    (Snowplow.Inference.pending service');
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "tag %d stats restored" tag)
        true
        (Snowplow.Inference.tenant_stats service ~tag
        = Snowplow.Inference.tenant_stats service' ~tag))
    [ 0; 1 ];
  (* The restored queue drains identically. *)
  check Alcotest.int "same completions deliverable"
    (List.length (Snowplow.Inference.poll service ~now:1e9 ()))
    (List.length (Snowplow.Inference.poll service' ~now:1e9 ()))

let test_snapshot_latest () =
  with_dir "snap-latest" (fun dir ->
      check
        (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
        "empty dir has no snapshot" None
        (Snapshot.latest ~dir);
      List.iter
        (fun b -> ignore (Snapshot.write ~dir ~barrier:b Json.Null))
        [ 1; 3; 2 ];
      check
        (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
        "highest barrier wins"
        (Some (3, Snapshot.path ~dir ~barrier:3))
        (Snapshot.latest ~dir))

(* The headline aux property: a snowplow campaign — strategy state in the
   shared inference service, the funnel lanes and per-shard prediction
   memos, all outside the campaign record — killed at a barrier and
   resumed from its snapshot still reproduces the uninterrupted report
   byte-for-byte, because [Persist.aux] rides that state in the
   snapshot's [aux] field. The wiring is the launcher's, as in the
   CLI. *)
let aux_cfg =
  { Campaign.default_config with
    seed_corpus = Gen.corpus (Rng.create 29) db ~size:20;
    seed = 13;
    duration = 900.0;
    snapshot_every = 300.0 }

let aux_jobs = 2

let snowplow_run ?snapshot_dir ?restore () =
  let service =
    Snowplow.Launch.of_inference ~tenant_jobs:[| aux_jobs |] (inference ())
  in
  let { Snowplow.Launch.strategy_for; on_barrier; aux } =
    Snowplow.Launch.snowplow_lane service ~tenant:0 kernel
  in
  run_campaign ?snapshot_dir ?restore ~on_barrier ~aux ~jobs:aux_jobs
    ~strategy_for aux_cfg

let test_snowplow_resume_matches_uninterrupted () =
  let dir = "snap-aux" in
  let oracle =
    with_dir dir (fun dir ->
        match snowplow_run ~snapshot_dir:dir () with
        | Ok r -> report_bytes r
        | Error e -> Alcotest.failf "snowplow baseline failed: %s" e)
  in
  List.iter
    (fun barrier ->
      let snapshot =
        match Snapshot.read (Snapshot.path ~dir ~barrier) with
        | Ok s -> s
        | Error e -> Alcotest.failf "snapshot %d unreadable: %s" barrier e
      in
      match snowplow_run ~restore:snapshot () with
      | Error e -> Alcotest.failf "snowplow resume at %d failed: %s" barrier e
      | Ok r ->
        check Alcotest.string
          (Printf.sprintf
             "snowplow resume at barrier %d is byte-identical" barrier)
          oracle (report_bytes r))
    [ 1; 2 ]

(* Inside [aux], the caches, the memos and the inboxes key every entry
   by fingerprint: the only strings there are 32-digit hex fingerprints,
   never program text. (The pending queue and the outboxes keep their
   programs, which run again.) *)
let test_aux_holds_no_program_text () =
  with_dir "snap-aux-text" (fun dir ->
      (match snowplow_run ~snapshot_dir:dir () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snowplow run failed: %s" e);
      let aux =
        match Snapshot.read (Snapshot.path ~dir ~barrier:2) with
        | Ok doc -> Json.Decode.field "aux" doc
        | Error e -> Alcotest.failf "snapshot unreadable: %s" e
      in
      let rec strings = function
        | Json.Str s -> [ s ]
        | Json.Arr xs -> List.concat_map strings xs
        | Json.Obj kvs -> List.concat_map (fun (_, v) -> strings v) kvs
        | _ -> []
      in
      let at path = List.fold_left (fun j k -> Json.Decode.field k j) aux path in
      List.iter
        (fun path ->
          let name = String.concat "." path in
          let ss = strings (at path) in
          Alcotest.(check bool) (name ^ " is not empty") true (ss <> []);
          List.iter
            (fun s ->
              if Prog.fingerprint_of_hex s = None then
                Alcotest.failf "%s holds a non-fingerprint string %S" name s)
            ss)
        [ [ "inference"; "cache" ]; [ "inference"; "by_prog" ];
          [ "predictions" ]; [ "funnel"; "inboxes" ] ])

(* Versions 2 and 3 kept a program text beside every cache, memo, inbox
   and attempt entry. Rewriting a live [aux] into that layout and
   restoring it as version 3 must give back the same state, byte for
   byte: each entry re-keyed by its program's fingerprint, in the same
   order, with the same stamps and answers. *)
let test_aux_v3_layout_converts () =
  let progs = List.init 6 (fun s -> Gen.program (Rng.create (s + 1)) db ()) in
  let texts = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace texts
        (Prog.fingerprint_to_hex (Prog.fingerprint p))
        (Json.Str (Prog.to_string p)))
    progs;
  let text = function
    | Json.Str hex -> Hashtbl.find texts hex
    | _ -> Alcotest.fail "expected a fingerprint"
  in
  (* The 7th send (the last program's) stalls and is reclaimed; its
     retry, sent after both caches expired, stalls too and stays in the
     attempt ledger. *)
  let faults =
    Sp_util.Faults.create ~schedule:[ ("inference.timeout@0", [ 7; 8 ]) ] ~seed:0 ()
  in
  let wiring () =
    let service = inference () in
    let funnel =
      Snowplow.Funnel.create_multi ~degrade:Snowplow.Funnel.default_degrade ~faults
        ~tenant_shards:[| 1 |] service
    in
    let memo = Snowplow.Hybrid.make_predictions () in
    ( funnel,
      memo,
      Snowplow.Persist.aux ~parse ~inference:service ~funnel ~predictions:[| memo |] )
  in
  let funnel, memo, aux = wiring () in
  let ep = Snowplow.Funnel.endpoint_for funnel ~tenant:0 ~shard:0 in
  let deliver ~now batch =
    List.iteri
      (fun i p -> ignore (ep.Snowplow.Inference.ep_request ~now p ~targets:[ i; 7 ]))
      batch;
    ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now);
    ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:(now +. 5.0))
  in
  (* The first three answers reach the memo through a strategy's poll;
     the last three wait in the inbox. *)
  deliver ~now:0.0 (List.filteri (fun i _ -> i < 3) progs);
  let strategy =
    Snowplow.Hybrid.strategy_with ~predictions:memo ~endpoint:ep kernel
  in
  let base = List.hd progs in
  let r = Kernel.execute kernel base in
  ignore
    (strategy.Strategy.propose (Rng.create 3) ~now:5.0
       ~covered:(Bitset.create (Kernel.num_blocks kernel))
       (Corpus.create ())
       { Corpus.prog = base; blocks = r.Kernel.covered;
         edges = r.Kernel.covered_edges; added_at = 0.0 });
  deliver ~now:10.0 (List.filteri (fun i _ -> i >= 3) progs);
  ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:50.0);
  ignore (Snowplow.Funnel.flush_tenant funnel ~tenant:0 ~now:2000.0);
  let v4 = aux.Campaign.aux_json () in
  let field path j = List.fold_left (fun j k -> Json.Decode.field k j) j path in
  let arr f = function
    | Json.Arr xs -> Json.Arr (List.map f xs)
    | _ -> Alcotest.fail "expected an array"
  in
  let lru value = arr (fun e ->
      Json.Obj
        [ ("key", Json.Str "0000000000000000");
          ("written_at", field [ "written_at" ] e);
          ("value", value (field [ "key" ] e) (field [ "value" ] e)) ])
  in
  let cached fp targets answer =
    Json.Obj [ ("src_prog", text fp); ("src_targets", targets); ("answer", answer) ]
  in
  let v3 =
    Json.Obj
      [ ( "inference",
          match field [ "inference" ] v4 with
          | Json.Obj kvs ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   match k with
                   | "cache" ->
                     ( k,
                       lru (fun key answer ->
                           cached (field [ "fp" ] key) (field [ "targets" ] key) answer)
                         v )
                   | "by_prog" ->
                     (k, lru (fun key answer -> cached key (Json.Arr []) answer) v)
                   | _ -> (k, v))
                 kvs)
          | _ -> Alcotest.fail "inference state is not an object" );
        ( "funnel",
          match field [ "funnel" ] v4 with
          | Json.Obj kvs ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   let with_prog rest e =
                     Json.Obj
                       (("prog", text (field [ "fp" ] e))
                       :: List.map (fun k -> (k, field [ k ] e)) rest)
                   in
                   match k with
                   | "inboxes" -> (k, arr (arr (with_prog [ "paths" ])) v)
                   | "lanes" ->
                     ( k,
                       arr
                         (function
                           | Json.Obj lane ->
                             Json.Obj
                               (List.map
                                  (fun (k, v) ->
                                    if k = "attempts" then
                                      (k, arr (with_prog [ "attempt" ]) v)
                                    else (k, v))
                                  lane)
                           | _ -> Alcotest.fail "lane is not an object")
                         v )
                   | _ -> (k, v))
                 kvs)
          | _ -> Alcotest.fail "funnel state is not an object" );
        ( "predictions",
          arr
            (lru (fun key paths -> Json.Obj [ ("prog", text key); ("paths", paths) ]))
            (field [ "predictions" ] v4) ) ]
  in
  let sizes =
    List.map
      (fun path ->
        match field path v4 with
        | Json.Arr [ Json.Arr xs ] | Json.Arr xs -> List.length xs
        | _ -> 0)
      [ [ "inference"; "cache" ]; [ "inference"; "by_prog" ]; [ "predictions" ];
        [ "funnel"; "inboxes" ]; [ "funnel"; "lanes" ] ]
  in
  Alcotest.(check bool) "every converted part is populated" true
    (List.for_all (fun n -> n > 0) sizes);
  (match field [ "funnel"; "lanes" ] v4 with
  | Json.Arr [ lane ] ->
    Alcotest.(check bool) "an attempt is in flight" true
      (field [ "attempts" ] lane <> Json.Arr [])
  | _ -> Alcotest.fail "expected one lane");
  let _, _, aux' = wiring () in
  aux'.Campaign.aux_restore ~version:3 v3;
  check Alcotest.string "the version-3 layout restores to the same state"
    (Json.to_string v4)
    (Json.to_string (aux'.Campaign.aux_json ()))

(* ------------------------------------------------------------------ *)
(* Durable writes                                                       *)
(* ------------------------------------------------------------------ *)

(* The write path's crash window that matters for power loss: the new
   snapshot is written and fsynced, the rename has not happened. The
   previous barrier's file must stay the newest valid one, and the
   temporary must not be left behind. (A real power cut cannot be
   simulated in a test; this pins the ordering that makes one safe.) *)
let test_crash_before_rename () =
  with_dir "snap-durable" (fun dir ->
      let doc b = Json.Obj [ ("barrier", Json.Num (float_of_int b)) ] in
      ignore (Snapshot.write ~dir ~barrier:1 (doc 1));
      let fired = ref false in
      (match
         Snapshot.write ~dir ~barrier:2
           ~inject:(fun () ->
             fired := true;
             (* the new data is complete on disk at this point *)
             Array.iter
               (fun f ->
                 if Filename.check_suffix f ".tmp" then
                   check Alcotest.string "temporary holds the whole document"
                     (Json.to_string (doc 2))
                     (Io.read_file (Filename.concat dir f)))
               (Sys.readdir dir);
             failwith "power cut")
           (doc 2)
       with
      | _ -> Alcotest.fail "a write that crashed before its rename returned"
      | exception Failure _ -> ());
      Alcotest.(check bool) "fault fired" true !fired;
      (match Snapshot.latest_valid ~dir () with
      | Some (1, _, j) -> Alcotest.(check bool) "barrier 1 intact" true (Json.equal j (doc 1))
      | Some (b, _, _) -> Alcotest.failf "newest valid snapshot is barrier %d" b
      | None -> Alcotest.fail "no valid snapshot left");
      Alcotest.(check bool) "no barrier-2 file" false
        (Sys.file_exists (Snapshot.path ~dir ~barrier:2));
      Alcotest.(check bool) "no temp files left" true (no_tmp_leftovers dir))

(* ------------------------------------------------------------------ *)
(* Format fixtures                                                      *)
(* ------------------------------------------------------------------ *)

(* test/fixtures/vN-* are version-N snapshots written by the last commit
   that wrote version N (test/fixtures/README.md has the generator and
   the commits). This build must resume each to the report an
   uninterrupted run produces, and write current-version snapshots from
   there on that match the uninterrupted run's byte for byte. The configs
   below are the generator's. *)

let fixture dir =
  match Snapshot.latest_valid ~dir:(Filename.concat "fixtures" dir) () with
  | Some (1, _, doc) -> doc
  | Some (b, _, _) -> Alcotest.failf "fixture %s: barrier %d, expected 1" dir b
  | None -> Alcotest.failf "fixture %s missing" dir

let fixture_grid cfg = { cfg with Campaign.duration = 60.0; snapshot_every = 20.0 }

let fixture_syz_cfg = fixture_grid { cfg with seed_corpus = seeds; seed = 7 }

let fixture_snowplow_cfg = fixture_grid aux_cfg

let versioned_fixture v dir =
  let doc = fixture (Printf.sprintf "v%d-%s" v dir) in
  check Alcotest.int (Printf.sprintf "fixture is a version-%d document" v) v
    (Json.Decode.int_field "version" doc);
  doc

let snapshot_bytes dir barrier = Io.read_file (Snapshot.path ~dir ~barrier)

(* An uninterrupted run and a run resumed from [doc], each snapshotting
   into its own directory: the reports and every snapshot the resumed run
   wrote (barriers 2 and 3) must be byte-equal. *)
let check_fixture_resume
    ~(run :
       snapshot_dir:string ->
       ?restore:Json.t ->
       unit ->
       (Campaign.report, string) result) doc =
  let oracle =
    with_dir "fixture-fresh" (fun dir ->
        match run ~snapshot_dir:dir () with
        | Ok r -> report_bytes r
        | Error e -> Alcotest.failf "uninterrupted run failed: %s" e)
  in
  with_dir "fixture-resumed" (fun dir ->
      match run ~snapshot_dir:dir ~restore:doc () with
      | Error e -> Alcotest.failf "resume from the fixture failed: %s" e
      | Ok r ->
        check Alcotest.string "resumed report byte-identical" oracle (report_bytes r);
        List.iter
          (fun b ->
            let written = snapshot_bytes dir b in
            (match Json.of_string written with
            | Ok j ->
              check Alcotest.int "written in the current version" Snapshot.format_version
                (Json.Decode.int_field "version" j)
            | Error e -> Alcotest.failf "snapshot %d unreadable: %s" b e);
            check Alcotest.string
              (Printf.sprintf "snapshot %d byte-identical" b)
              (snapshot_bytes "fixture-fresh" b) written)
          [ 2; 3 ])

let test_fixture_syzkaller v () =
  let doc = versioned_fixture v "syzkaller-jobs2" in
  (match
     Json.Decode.run (fun () ->
         Campaign.validate_snapshot ~snapshot:doc ~jobs:2 fixture_syz_cfg)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "v%d fixture rejected: %s" v e);
  check_fixture_resume doc ~run:(fun ~snapshot_dir ?restore () ->
      run_campaign ~snapshot_dir ?restore ~jobs:2 fixture_syz_cfg)

let test_fixture_snowplow v () =
  let doc = versioned_fixture v "snowplow-jobs1" in
  Alcotest.(check bool) "fixture carries aux state" true
    (match Json.member "aux" doc with Some (Json.Obj _) -> true | _ -> false);
  check_fixture_resume doc ~run:(fun ~snapshot_dir ?restore () ->
      let service =
        Snowplow.Launch.of_inference ~tenant_jobs:[| 1 |] (inference ())
      in
      let { Snowplow.Launch.strategy_for; on_barrier; aux } =
        Snowplow.Launch.snowplow_lane service ~tenant:0 kernel
      in
      run_campaign ~snapshot_dir ?restore ~on_barrier ~aux ~jobs:1 ~strategy_for
        fixture_snowplow_cfg)

(* The scheduler tree: two syzkaller tenants killed after two slices,
   resumed under a fresh scheduler; each tenant's report must equal its
   uninterrupted solo run. *)
let test_fixture_scheduler_tree v () =
  let module Scheduler = Sp_fuzz.Scheduler in
  let tenant_cfg seed =
    fixture_grid
      { Campaign.default_config with
        seed_corpus = Gen.corpus (Rng.create (seed lxor 0x5eed)) db ~size:30;
        seed }
  in
  let vm_for seed s = Vm.create ~seed:(seed + (7919 * s)) kernel in
  let tenants = [ ("alpha", 7, 2); ("beta", 23, 1) ] in
  let resumed =
    match
      Scheduler.run ~workers:2
        (List.map
           (fun (name, seed, jobs) ->
             let doc = versioned_fixture v ("sched/" ^ name) in
             Scheduler.tenant ~restore:doc ~name ~jobs ~vm_for:(vm_for seed)
               ~strategy_for (tenant_cfg seed))
           tenants)
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "scheduler resume from the v%d tree failed: %s" v e
  in
  List.iter
    (fun (name, seed, jobs) ->
      let solo =
        report_bytes
          (Campaign.run
             (Campaign.create_instance ~jobs ~vm_for:(vm_for seed) ~strategy_for
                (tenant_cfg seed)))
      in
      let tr =
        List.find (fun tr -> tr.Scheduler.tr_name = name) resumed.Scheduler.sr_tenants
      in
      Alcotest.(check bool) (name ^ " completed") true tr.Scheduler.tr_completed;
      check Alcotest.string (name ^ " resumed report byte-identical to solo") solo
        (report_bytes tr.Scheduler.tr_report))
    tenants

(* A version this build cannot read is refused by the typed decode error,
   which names the version — before any VM or strategy is built. *)
let test_unknown_version_rejected () =
  let doc = fixture "v2-syzkaller-jobs2" in
  let v5 =
    match doc with
    | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = "version" then (k, Json.Num 5.0) else (k, v)) fields)
    | _ -> Alcotest.fail "fixture is not an object"
  in
  let expected = "snapshot format version 5, this build reads 2, 3, 4" in
  (match
     Campaign.validate_snapshot ~snapshot:v5 ~jobs:2 fixture_syz_cfg
   with
  | () -> Alcotest.fail "version 5 accepted"
  | exception Json.Decode.Error msg -> check Alcotest.string "typed error" expected msg);
  match run_campaign ~restore:v5 ~jobs:2 fixture_syz_cfg with
  | Ok _ -> Alcotest.fail "campaign resumed from a version-5 document"
  | Error msg -> check Alcotest.string "create_instance refuses it" expected msg

(* Every committed JSON document stays within the parser's nesting bound. *)
let test_committed_documents_parse () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".json" then [ p ]
           else [])
  in
  let docs = files "../examples" @ files "fixtures" in
  Alcotest.(check bool) "found the examples and fixtures" true (List.length docs >= 11);
  List.iter
    (fun p ->
      match Json.of_string (Io.read_file p) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" p e)
    docs

(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "snapshot"
    [ ( "codec",
        [ qtest qcheck_int64_roundtrip;
          Alcotest.test_case "rng state through JSON" `Quick test_rng_json_roundtrip;
          qtest qcheck_bitset_roundtrip;
          Alcotest.test_case "accum round-trip" `Quick test_accum_json_roundtrip;
          Alcotest.test_case "corpus codec round-trip" `Quick
            test_corpus_codec_roundtrip;
          Alcotest.test_case "malformed input rejected" `Quick
            test_codec_rejects_malformed ] );
      ( "write-atomic",
        [ Alcotest.test_case "write/read/overwrite" `Quick
            test_write_atomic_roundtrip;
          Alcotest.test_case "interrupted write keeps previous file" `Quick
            test_write_atomic_interrupted;
          Alcotest.test_case "crash between fsync and rename" `Quick
            test_crash_before_rename ] );
      ( "snapshot-files",
        [ Alcotest.test_case "path layout" `Quick test_snapshot_path_layout;
          Alcotest.test_case "write/read round-trip" `Quick
            test_snapshot_write_read ] );
      ( "resume",
        [ Alcotest.test_case "one file per barrier" `Quick
            test_snapshots_written_per_barrier;
          Alcotest.test_case "snapshotting does not perturb" `Quick
            test_snapshotting_does_not_perturb;
          Alcotest.test_case "resume == uninterrupted (2 resume points)" `Slow
            test_resume_matches_uninterrupted;
          Alcotest.test_case "resume from final snapshot" `Quick
            test_resume_from_final_snapshot;
          Alcotest.test_case "config mismatch rejected" `Quick
            test_resume_rejects_config_mismatch;
          Alcotest.test_case "garbage snapshot rejected" `Quick
            test_resume_rejects_garbage ] );
      ( "aux",
        [ Alcotest.test_case "inference state round-trip" `Quick
            test_inference_state_roundtrip;
          Alcotest.test_case "latest snapshot in a dir" `Quick
            test_snapshot_latest;
          Alcotest.test_case "snowplow resume == uninterrupted" `Slow
            test_snowplow_resume_matches_uninterrupted;
          Alcotest.test_case "caches, memos and inboxes hold no program text"
            `Quick test_aux_holds_no_program_text;
          Alcotest.test_case "version-3 layout converts" `Quick
            test_aux_v3_layout_converts ] );
      ( "fixtures",
        [ Alcotest.test_case "v2 syzkaller jobs 2 resumes" `Quick
            (test_fixture_syzkaller 2);
          Alcotest.test_case "v2 snowplow jobs 1 with aux resumes" `Quick
            (test_fixture_snowplow 2);
          Alcotest.test_case "v2 scheduler tree resumes" `Quick
            (test_fixture_scheduler_tree 2);
          Alcotest.test_case "version 5 rejected" `Quick
            test_unknown_version_rejected;
          Alcotest.test_case "committed documents parse" `Quick
            test_committed_documents_parse;
          Alcotest.test_case "v3 syzkaller jobs 2 resumes" `Quick
            (test_fixture_syzkaller 3);
          Alcotest.test_case "v3 snowplow jobs 1 with aux resumes" `Quick
            (test_fixture_snowplow 3);
          Alcotest.test_case "v3 scheduler tree resumes" `Quick
            (test_fixture_scheduler_tree 3) ] ) ]
