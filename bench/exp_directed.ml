(* E7: directed kernel fuzzing (§5.4, Table 5) — time for SyzDirect vs
   Snowplow-D to reach target code locations, per-target and in subtotal.

   Targets mirror the SyzDirect dataset's bug-related locations: the crash
   blocks of the kernel's injected bugs (deep, precise-argument-gated
   code) plus a few shallow blocks near handler entries (the paper's
   easy-to-reach rows). *)

module Campaign = Sp_fuzz.Campaign
module Kernel = Sp_kernel.Kernel
module Ir = Sp_kernel.Ir
module Bug = Sp_kernel.Bug
module Table = Sp_util.Table

let runs = 2 (* per paper: 5; scaled down *)

let time_cap = 6.0 *. 3600.0 (* paper caps at 24 h; scaled with the fleet *)

let fleet_scale = 192.0

type target = { label : string; block : int }

let pick_targets kernel =
  (* Deep targets: crash blocks of new bugs (bug-related locations). *)
  let deep =
    Array.to_list (Kernel.bugs kernel)
    |> List.filter (fun (b : Bug.t) -> not b.Bug.known)
    |> List.filteri (fun i _ -> i < 12)
    |> List.filter_map (fun (b : Bug.t) ->
           (* locate the crash block of this bug *)
           let rec find i =
             if i >= Kernel.num_blocks kernel then None
             else
               match (Kernel.block kernel i).Ir.term with
               | Ir.Crash id when id = b.Bug.id -> Some i
               | _ -> find (i + 1)
           in
           Option.map
             (fun blk ->
               { label = Printf.sprintf "%s/%s.c:%d" b.Bug.subsystem b.Bug.syscall blk;
                 block = blk })
             (find 0))
  in
  (* Shallow targets: low-depth blocks of a few handlers. *)
  let shallow =
    List.init 6 (fun i ->
        let sys = (i * 7) mod Sp_syzlang.Spec.count (Kernel.spec_db kernel) in
        let entry = Kernel.handler_entry kernel sys in
        let spec = Sp_syzlang.Spec.by_id (Kernel.spec_db kernel) sys in
        (* second hop from the entry: easy as long as the syscall is invoked *)
        let blk =
          match Sp_cfg.Cfg.succs (Kernel.cfg kernel) entry with
          | b :: _ -> b
          | [] -> entry
        in
        { label = Printf.sprintf "entry/%s.c:%d" spec.Sp_syzlang.Spec.name blk; block = blk })
  in
  deep @ shallow

let run_one p kernel target strategy_of seed =
  let db = Kernel.spec_db kernel in
  let seeds = Exp_common.seed_corpus db ~seed:(6000 + seed) ~size:60 in
  let cfg =
    {
      Campaign.default_config with
      seed_corpus = seeds;
      seed = 8000 + seed;
      duration = time_cap;
      snapshot_every = 600.0;
      target = Some target.block;
    }
  in
  let vm = Sp_fuzz.Vm.create ~fleet_scale ~seed kernel in
  let r = Exp_common.run_campaign vm (strategy_of p kernel target) cfg in
  r.Campaign.target_hit_at

let syzdirect_strategy _p kernel target =
  let target_sys =
    let sys = (Kernel.block kernel target.block).Ir.sys_id in
    if sys >= 0 then Some sys else None
  in
  Sp_fuzz.Strategy.syzdirect ~target_sys (Kernel.spec_db kernel)

let snowd_strategy p kernel target =
  let inference = Snowplow.Pipeline.inference_for p kernel in
  Snowplow.Directed.strategy ~inference ~target:target.block kernel

type row = {
  target : target;
  syz_times : float list;  (* successful runs only *)
  snow_times : float list;
}

let mean_or_na = function
  | [] -> None
  | l -> Some (Sp_util.Stats.mean l)

let run () =
  Exp_common.section "E7 — Table 5: directed kernel fuzzing (§5.4)";
  let p = Exp_common.pipeline () in
  let kernel = p.Snowplow.Pipeline.kernel in
  let targets = pick_targets kernel in
  Exp_common.log "E7: %d targets, %d runs each, %.0fh cap" (List.length targets)
    runs (time_cap /. 3600.0);
  let rows =
    List.map
      (fun target ->
        let collect strategy_of =
          List.init runs (fun seed -> run_one p kernel target strategy_of seed)
          |> List.filter_map Fun.id
        in
        let syz_times = collect syzdirect_strategy in
        let snow_times = collect snowd_strategy in
        Exp_common.log "E7: %-32s syzdirect %d/%d snowplow-d %d/%d" target.label
          (List.length syz_times) runs (List.length snow_times) runs;
        { target; syz_times; snow_times })
      targets
  in
  let t =
    Table.create ~title:"Table 5 (reproduced): average time to reach target (s)"
      ~header:[ "Target location"; "SyzDirect"; "Snowplow-D"; "Speedup" ] ()
  in
  let both_syz = ref 0.0 and both_snow = ref 0.0 and both_n = ref 0 in
  let extra = ref 0 in
  let fmt times =
    match mean_or_na times with
    | None -> Printf.sprintf "NA (0/%d)" runs
    | Some m -> Printf.sprintf "%.0f (%d/%d)" m (List.length times) runs
  in
  List.iter
    (fun row ->
      let speedup =
        match (mean_or_na row.syz_times, mean_or_na row.snow_times) with
        | Some s, Some n ->
          both_syz := !both_syz +. s;
          both_snow := !both_snow +. n;
          incr both_n;
          Printf.sprintf "%.1f" (s /. Float.max 1.0 n)
        | None, Some _ ->
          incr extra;
          "INF"
        | Some _, None -> "0"
        | None, None -> "NA"
      in
      Table.add_row t [ row.target.label; fmt row.syz_times; fmt row.snow_times; speedup ])
    (List.sort
       (fun a b ->
         compare (mean_or_na b.syz_times = None) (mean_or_na a.syz_times = None))
       rows);
  Table.add_sep t;
  Table.add_row t
    [ Printf.sprintf "Subtotal (%d reached by both)" !both_n;
      Printf.sprintf "%.0f" !both_syz;
      Printf.sprintf "%.0f" !both_snow;
      Printf.sprintf "%.1f" (!both_syz /. Float.max 1.0 !both_snow) ];
  Table.print t;
  Printf.printf
    "\nTargets reached only by Snowplow-D: %d (paper: 2). Paper subtotal speedup: 8.5x.\n\n"
    !extra
