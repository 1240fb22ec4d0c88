(* E9: the §6 extensions — learned system-call insertion (localization of
   SYSCALL_INSERTION, with instantiation over the syscall vocabulary) and
   corpus distillation (§7's Moonshine idea as a substrate). Not part of
   the paper's evaluation; reported as the "future work" implementation. *)

module Table = Sp_util.Table
module Bitset = Sp_util.Bitset
module Kernel = Sp_kernel.Kernel
module Gen = Sp_syzlang.Gen
module Rng = Sp_util.Rng

let insertion_experiment p =
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  (* Coverage context from a short warm campaign. *)
  let seeds = Exp_common.seed_corpus db ~seed:2100 ~size:80 in
  let warm_cfg =
    { Sp_fuzz.Campaign.default_config with
      seed_corpus = seeds; seed = 2101; duration = 3600.0 }
  in
  let warm =
    Exp_common.run_campaign (Sp_fuzz.Vm.create ~seed:2 kernel)
      (Sp_fuzz.Strategy.syzkaller db) warm_cfg
  in
  let covered = warm.Sp_fuzz.Campaign.covered_blocks in
  let bases = Exp_common.seed_corpus db ~seed:2102 ~size:60 in
  let examples =
    Snowplow.Insertion.collect_examples ~seed:2103 ~covered kernel ~bases
  in
  Exp_common.log "E9: %d successful-insertion examples" (List.length examples);
  let n = List.length examples in
  let train_ex = List.filteri (fun i _ -> i < n * 8 / 10) examples in
  let eval_ex = List.filteri (fun i _ -> i >= n * 8 / 10) examples in
  let model = Snowplow.Insertion.create kernel in
  let _ = Snowplow.Insertion.train model ~covered train_ex in
  let t =
    Table.create ~title:"Learned insertion (sec. 6 extension): held-out accuracy"
      ~header:[ "selector"; "top-1"; "top-3"; "top-5" ] ()
  in
  let row name acc_fn =
    Table.add_row t
      [ name;
        Printf.sprintf "%.1f%%" (100.0 *. acc_fn 1);
        Printf.sprintf "%.1f%%" (100.0 *. acc_fn 3);
        Printf.sprintf "%.1f%%" (100.0 *. acc_fn 5) ]
  in
  row "learned" (fun k -> Snowplow.Insertion.accuracy model ~covered eval_ex ~k);
  let num_sys = Sp_syzlang.Spec.count db in
  row "uniform random" (fun k -> float_of_int k /. float_of_int num_sys);
  Table.print t;
  print_newline ()

let distill_experiment p =
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  (* Distill the corpus a short campaign accumulated. *)
  let seeds = Exp_common.seed_corpus db ~seed:2200 ~size:80 in
  let cfg =
    { Sp_fuzz.Campaign.default_config with
      seed_corpus = seeds; seed = 2201; duration = 7200.0 }
  in
  let r =
    Exp_common.run_campaign (Sp_fuzz.Vm.create ~seed:3 kernel)
      (Sp_fuzz.Strategy.syzkaller db) cfg
  in
  let corpus_progs =
    List.map (fun (e : Sp_fuzz.Corpus.entry) -> e.Sp_fuzz.Corpus.prog)
      (Sp_fuzz.Corpus.entries r.Sp_fuzz.Campaign.corpus)
  in
  let report = Sp_fuzz.Distill.distill kernel corpus_progs in
  let t =
    Table.create ~title:"Corpus distillation (Moonshine-style substrate)"
      ~header:[ "metric"; "before"; "after" ] ()
  in
  Table.add_row t
    [ "tests"; string_of_int report.Sp_fuzz.Distill.original_count;
      string_of_int report.Sp_fuzz.Distill.distilled_count ];
  Table.add_row t
    [ "total calls"; string_of_int report.Sp_fuzz.Distill.original_calls;
      string_of_int report.Sp_fuzz.Distill.distilled_calls ];
  Table.add_row t
    [ "blocks covered"; string_of_int report.Sp_fuzz.Distill.blocks_covered;
      string_of_int report.Sp_fuzz.Distill.blocks_covered ];
  Table.print t;
  print_newline ()

let run () =
  Exp_common.section "E9 — Extensions: learned insertion + corpus distillation";
  let p = Exp_common.pipeline () in
  insertion_experiment p;
  distill_experiment p
