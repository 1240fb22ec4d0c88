(* Extensions showcase: corpus distillation (Moonshine-style, §7) and the
   learned syscall-insertion model (§6's future work).

   Run with: dune exec examples/corpus_tools.exe *)

module Kernel = Sp_kernel.Kernel
module Campaign = Sp_fuzz.Campaign
module Bitset = Sp_util.Bitset

let () =
  let kernel = Kernel.linux_like ~seed:7 ~version:"6.8" in
  let db = Kernel.spec_db kernel in
  (* Accumulate a corpus with a short Syzkaller campaign. *)
  let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create 5) db ~size:60 in
  let cfg =
    { Campaign.default_config with seed_corpus = seeds; seed = 6; duration = 3600.0 }
  in
  print_endline "accumulating a corpus (1 virtual hour of Syzkaller)...";
  let r =
    Campaign.run
      (Campaign.create_instance ~jobs:1
         ~vm_for:(fun _ -> Sp_fuzz.Vm.create ~seed:7 kernel)
         ~strategy_for:(fun _ -> Sp_fuzz.Strategy.syzkaller db)
         cfg)
  in
  let corpus_progs =
    List.map (fun (e : Sp_fuzz.Corpus.entry) -> e.Sp_fuzz.Corpus.prog)
      (Sp_fuzz.Corpus.entries r.Campaign.corpus)
  in
  (* 1. Distill it. *)
  let report = Sp_fuzz.Distill.distill kernel corpus_progs in
  Printf.printf
    "distillation: %d tests (%d calls) -> %d tests (%d calls), %d blocks preserved\n\n"
    report.Sp_fuzz.Distill.original_count report.Sp_fuzz.Distill.original_calls
    report.Sp_fuzz.Distill.distilled_count report.Sp_fuzz.Distill.distilled_calls
    report.Sp_fuzz.Distill.blocks_covered;
  (* 2. Train the insertion model against this campaign's coverage. *)
  let covered = r.Campaign.covered_blocks in
  print_endline "collecting successful-insertion examples...";
  let bases = Sp_syzlang.Gen.corpus (Sp_util.Rng.create 8) db ~size:40 in
  let examples = Snowplow.Insertion.collect_examples ~seed:9 ~covered kernel ~bases in
  Printf.printf "%d examples of insertions that unlocked marginal coverage\n" (List.length examples);
  let model = Snowplow.Insertion.create kernel in
  let losses = Snowplow.Insertion.train model ~covered examples in
  Printf.printf "training loss: %.3f -> %.3f over %d epochs\n"
    (List.hd losses)
    (List.nth losses (List.length losses - 1))
    (List.length losses);
  (* 3. Ask it what to insert into a fresh test. *)
  let base = Sp_syzlang.Gen.program (Sp_util.Rng.create 10) db () in
  print_endline "\nbase test:";
  print_string (Sp_syzlang.Prog.to_string base);
  let top = Snowplow.Insertion.top_k model ~covered base ~k:5 in
  Printf.printf "\nmost promising syscalls to insert:\n";
  List.iteri
    (fun i sys ->
      Printf.printf "  %d. %s\n" (i + 1) (Sp_syzlang.Spec.by_id db sys).Sp_syzlang.Spec.name)
    top
