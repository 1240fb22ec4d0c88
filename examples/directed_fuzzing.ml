(* Directed fuzzing (§5.4): point the fuzzer at one target code location —
   here the crash site of an injected deep bug — and compare how fast
   SyzDirect-style heuristics and PMM-guided Snowplow-D reach it.

   Run with: dune exec examples/directed_fuzzing.exe *)

module Campaign = Sp_fuzz.Campaign
module Kernel = Sp_kernel.Kernel
module Ir = Sp_kernel.Ir
module Bug = Sp_kernel.Bug

let find_crash_block kernel (bug : Bug.t) =
  let rec go i =
    if i >= Kernel.num_blocks kernel then None
    else
      match (Kernel.block kernel i).Ir.term with
      | Ir.Crash id when id = bug.Bug.id -> Some i
      | _ -> go (i + 1)
  in
  go 0

let () =
  let config =
    {
      Snowplow.Pipeline.default_config with
      gen_bases = 50;
      corpus_bases = 50;
      dataset = { Snowplow.Dataset.default_config with mutations_per_base = 300 };
      trainer = { Snowplow.Trainer.default_config with epochs = 5 };
      encoder = { Snowplow.Encoder.default_config with steps = 1500 };
    }
  in
  print_endline "training PMM (reduced budget)...";
  let p = Snowplow.Pipeline.train ~config () in
  let kernel = p.Snowplow.Pipeline.kernel in
  let db = Kernel.spec_db kernel in
  (* Target: the crash site of the first deep (previously-unknown) bug. *)
  let bug =
    Array.to_list (Kernel.bugs kernel)
    |> List.find (fun (b : Bug.t) -> not b.Bug.known)
  in
  let target = Option.get (find_crash_block kernel bug) in
  Format.printf "target: block %d — %a@." target Bug.pp bug;
  Printf.printf "ground-truth gate (hidden from the fuzzers):\n";
  List.iter
    (fun pred -> Format.printf "  %a@." Ir.pp_predicate pred)
    (Kernel.bug_gate kernel bug.Bug.id);
  let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create 77) db ~size:60 in
  let run name strategy =
    let cfg =
      {
        Campaign.default_config with
        seed_corpus = seeds;
        seed = 21;
        duration = 4.0 *. 3600.0;
        snapshot_every = 600.0;
        target = Some target;
      }
    in
    let r =
      Campaign.run
        (Campaign.create_instance ~jobs:1
           ~vm_for:(fun _ -> Sp_fuzz.Vm.create ~fleet_scale:192.0 ~seed:2 kernel)
           ~strategy_for:(fun _ -> strategy)
           cfg)
    in
    (match r.Campaign.target_hit_at with
    | Some t -> Printf.printf "%-12s reached the target after %.0f virtual seconds\n" name t
    | None -> Printf.printf "%-12s did not reach the target within the cap\n" name);
    r
  in
  let target_sys =
    let sys = (Kernel.block kernel target).Ir.sys_id in
    if sys >= 0 then Some sys else None
  in
  let syz = run "SyzDirect" (Sp_fuzz.Strategy.syzdirect ~target_sys db) in
  let inference = Snowplow.Pipeline.inference_for p kernel in
  let snow = run "Snowplow-D" (Snowplow.Directed.strategy ~inference ~target kernel) in
  match (syz.Campaign.target_hit_at, snow.Campaign.target_hit_at) with
  | Some a, Some b when b > 0.0 ->
    Printf.printf "\nspeedup: %.1fx\n" (a /. b)
  | None, Some _ -> print_endline "\nonly Snowplow-D reached the target"
  | Some _, None -> print_endline "\nonly SyzDirect reached the target"
  | _ -> print_endline "\nneither system reached the target within the cap"
