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

let with_dir name f =
  if not (Sys.file_exists name) then Sys.mkdir name 0o755;
  Array.iter
    (fun file -> Sys.remove (Filename.concat name file))
    (Sys.readdir name);
  f name

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
            test_write_atomic_interrupted ] );
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
            test_snowplow_resume_matches_uninterrupted ] ) ]
