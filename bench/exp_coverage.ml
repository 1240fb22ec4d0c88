(* E3/E4: Figure 6 — edge coverage over 24 hours of fuzzing, Syzkaller vs
   Snowplow, on kernels 6.8 (trained-on), 6.9 and 6.10 (generalization),
   repeated with distinct initial seeds; plus the coverage-improvement
   summary (Figure 6d) and the time-to-coverage speedups. *)

module Campaign = Sp_fuzz.Campaign
module Table = Sp_util.Table
module Plot = Sp_util.Ascii_plot

let repeats = 3 (* the paper uses 5; scaled down for a single-core run *)

let versions = [ "6.8"; "6.9"; "6.10" ]

let run_pair p version seed =
  let kernel = Snowplow.Pipeline.kernel_version p version in
  let db = Sp_kernel.Kernel.spec_db kernel in
  let seeds = Exp_common.seed_corpus db ~seed:(1000 + seed) ~size:100 in
  let cfg =
    { Campaign.default_config with seed_corpus = seeds; seed = 7000 + seed }
  in
  let syz =
    Exp_common.run_campaign
      (Sp_fuzz.Vm.create ~seed kernel)
      (Sp_fuzz.Strategy.syzkaller db) cfg
  in
  let inference = Snowplow.Pipeline.inference_for p kernel in
  let snow =
    Exp_common.run_campaign
      (Sp_fuzz.Vm.create ~seed kernel)
      (Snowplow.Hybrid.strategy ~inference kernel)
      cfg
  in
  (syz, snow)

type version_result = {
  version : string;
  syz : Campaign.report list;
  snow : Campaign.report list;
}

let collect () =
  let p = Exp_common.pipeline () in
  List.map
    (fun version ->
      let pairs =
        List.init repeats (fun seed ->
            let r = run_pair p version seed in
            Exp_common.log "E3: %s seed %d done (syz %d / snow %d edges)" version
              seed (fst r).Campaign.final_edges (snd r).Campaign.final_edges;
            r)
      in
      { version; syz = List.map fst pairs; snow = List.map snd pairs })
    versions

let mean_final reports =
  Sp_util.Stats.mean
    (List.map (fun (r : Campaign.report) -> float_of_int r.Campaign.final_edges) reports)

(* Mean virtual time for the Snowplow mean curve to reach Syzkaller's mean
   24-hour coverage — the dark vertical line of Figure 6. *)
let speedup_of vr =
  let syz_final = mean_final vr.syz in
  let snow_mean, _ = Exp_common.mean_series vr.snow in
  let rec first_reach = function
    | [] -> None
    | (h, v) :: rest -> if v >= syz_final then Some h else first_reach rest
  in
  Option.map (fun h -> 24.0 /. h) (first_reach snow_mean)

let print_figure vr =
  let syz_mean, syz_band = Exp_common.mean_series vr.syz in
  let snow_mean, snow_band = Exp_common.mean_series vr.snow in
  print_endline
    (Plot.render
       ~title:(Printf.sprintf "Figure 6 (%s): edge coverage over 24h of fuzzing" vr.version)
       ~x_label:"uptime (h)" ~y_label:"edge coverage"
       [ Plot.series ~band:syz_band ~label:"Syzkaller" ~glyph:'s' syz_mean;
         Plot.series ~band:snow_band ~label:"Snowplow" ~glyph:'O' snow_mean ])

let run () =
  Exp_common.section "E3/E4 — Figure 6: coverage campaigns (§5.3.1)";
  let results = collect () in
  List.iter print_figure results;
  let t =
    Table.create ~title:"Figure 6d: summary over repeated 24h campaigns"
      ~header:
        [ "Kernel"; "Syzkaller@24h (mean)"; "Snowplow@24h (mean)";
          "improvement"; "time-to-Syzkaller@24h"; "speedup" ]
      ()
  in
  List.iter
    (fun vr ->
      let syz = mean_final vr.syz and snow = mean_final vr.snow in
      let speedup = speedup_of vr in
      let snow_mean, _ = Exp_common.mean_series vr.snow in
      let reach =
        let rec go = function
          | [] -> "-"
          | (h, v) :: rest -> if v >= syz then Printf.sprintf "%.1f h" h else go rest
        in
        go snow_mean
      in
      Table.add_row t
        [ vr.version;
          Printf.sprintf "%.0f" syz;
          Printf.sprintf "%.0f" snow;
          Printf.sprintf "%+.1f%%" (100.0 *. ((snow /. syz) -. 1.0));
          reach;
          (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-") ])
    results;
  Table.print t;
  print_endline
    "\nPaper reference: +7.0% / 5.2x (6.8), +8.6% (6.9), +7.7% (6.10), >4.8x";
  print_endline
    "speedups; bands of the two systems do not overlap after 5 hours.\n"
