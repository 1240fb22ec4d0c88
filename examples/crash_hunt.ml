(* Crash hunting and triage: run a short Syzkaller campaign with reproducer
   extraction enabled, then show what the triage pipeline produced —
   dedup'd crash reports, known-vs-new classification against the
   Syzbot-style list, and minimized reproducers (§5.3.2's workflow).

   Run with: dune exec examples/crash_hunt.exe *)

module Campaign = Sp_fuzz.Campaign
module Triage = Sp_fuzz.Triage
module Bug = Sp_kernel.Bug

let () =
  let kernel = Sp_kernel.Kernel.linux_like ~seed:7 ~version:"6.8" in
  let db = Sp_kernel.Kernel.spec_db kernel in
  Printf.printf "kernel has %d injected bugs (%d on the known list)\n\n"
    (Array.length (Sp_kernel.Kernel.bugs kernel))
    (Array.length
       (Array.of_list
          (List.filter
             (fun (b : Bug.t) -> b.Bug.known)
             (Array.to_list (Sp_kernel.Kernel.bugs kernel)))));
  let seeds = Sp_syzlang.Gen.corpus (Sp_util.Rng.create 31) db ~size:100 in
  let cfg =
    {
      Campaign.default_config with
      seed_corpus = seeds;
      seed = 13;
      duration = 12.0 *. 3600.0;
      attempt_repro = true;
    }
  in
  print_endline "fuzzing 12 virtual hours with reproduction enabled...";
  let report =
    Campaign.run
      (Campaign.create_instance ~jobs:1
         ~vm_for:(fun _ -> Sp_fuzz.Vm.create ~seed:3 kernel)
         ~strategy_for:(fun _ -> Sp_fuzz.Strategy.syzkaller db)
         cfg)
  in
  Printf.printf "executions: %d; crashes found: %d (%d new, %d known)\n\n"
    report.Campaign.executions
    (List.length report.Campaign.crashes)
    (List.length report.Campaign.new_crashes)
    (List.length report.Campaign.known_crashes);
  List.iter
    (fun (f : Triage.found) ->
      Printf.printf "crash after %.0f virtual seconds:\n  %s\n" f.Triage.found_at
        f.Triage.description;
      Printf.printf "  category: %s%s\n"
        (Bug.category_to_string f.Triage.bug.Bug.category)
        (if f.Triage.bug.Bug.concurrency then " (racy)" else "");
      (match f.Triage.reproducer with
      | Some repro ->
        Printf.printf "  minimized reproducer (%d of %d calls kept):\n"
          (Array.length repro)
          (Array.length f.Triage.witness);
        print_string
          (String.concat ""
             (List.map
                (fun line -> "    " ^ line ^ "\n")
                (String.split_on_char '\n' (String.trim (Sp_syzlang.Prog.to_string repro)))))
      | None -> print_endline "  no reproducer (syz-repro analogue failed to replay)");
      print_newline ())
    report.Campaign.crashes
