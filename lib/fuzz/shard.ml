module Rng = Sp_util.Rng
module Metrics = Sp_util.Metrics
module Fpset = Sp_util.Fpset
module Tracer = Sp_obs.Tracer
module Kernel = Sp_kernel.Kernel
module Bug = Sp_kernel.Bug
module Prog = Sp_syzlang.Prog
module Accum = Sp_coverage.Accum

type t = {
  id : int;
  vm : Vm.t;
  clock : Clock.t;
  rng : Rng.t;
  strategy : Strategy.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
  executed : Fpset.t;
  crash_seen : (string, unit) Hashtbl.t;
  mutable seeds : Prog.t list;
}

let create ?(tracer = Tracer.null) ~id ~vm ~strategy ~rng ~seeds () =
  let metrics = Metrics.create () in
  Vm.set_metrics vm metrics;
  Vm.set_tracer vm tracer;
  Vm.set_throughput_factor vm strategy.Strategy.throughput_factor;
  {
    id;
    vm;
    clock = Clock.create ();
    rng;
    strategy;
    metrics;
    tracer;
    executed = Fpset.create ();
    crash_seen = Hashtbl.create 16;
    seeds;
  }

let id t = t.id

let vm t = t.vm

let now t = Clock.now t.clock

let metrics t = t.metrics

let executed t = t.executed

module Json = Sp_obs.Json

let state_json t =
  (* The executed set is dumped in numeric order so the snapshot bytes
     are canonical — independent of the table layout, which differs
     between an uninterrupted run and a resumed one. Membership is all
     that matters semantically. *)
  let executed = ref [] in
  Fpset.iter_sorted
    (fun hi lo -> executed := Json.Str (Fpset.to_hex hi lo) :: !executed)
    t.executed;
  let crash_seen =
    Hashtbl.fold (fun d () acc -> d :: acc) t.crash_seen []
    |> List.sort String.compare
  in
  Json.Obj
    [ ("id", Json.Num (float_of_int t.id));
      ("clock", Json.Num (Clock.now t.clock));
      ("rng", Json.Decode.int64_to_json (Rng.state t.rng));
      ("vm", Vm.state_json t.vm);
      ("seeds", Json.Arr (List.map (fun p -> Json.Str (Prog.to_string p)) t.seeds));
      ("executed", Json.Arr (List.rev !executed));
      ("crash_seen", Json.Arr (List.map (fun d -> Json.Str d) crash_seen))
    ]

let restore_state t ~parse ~version j =
  let open Json.Decode in
  let id = int_field "id" j in
  if id <> t.id then error "shard state: id %d restored into shard %d" id t.id;
  let str_items name =
    List.map
      (function
        | Json.Str s -> s
        | _ -> error "shard %s: expected strings" name)
      (arr_field name j)
  in
  let parse_prog name s =
    match parse s with
    | Ok p -> p
    | Error msg -> error "shard %s: %s" name msg
  in
  (* The clock was created at 0; a single advance reproduces the stored
     value exactly (0. +. x = x in floats). *)
  Clock.advance t.clock (num_field "clock" j);
  Rng.set_state t.rng (int64_field "rng" j);
  Vm.restore_state t.vm (field "vm" j);
  t.seeds <- List.map (parse_prog "seeds") (str_items "seeds");
  Fpset.clear t.executed;
  (* Version 2 stored the executed programs' text: converting it is
     fingerprinting each parsed program, as the shard would have. *)
  let fingerprint s =
    if version = 2 then
      let fp = Prog.fingerprint (parse_prog "executed" s) in
      (fp.Prog.fp_hi, fp.Prog.fp_lo)
    else
      match Fpset.of_hex s with
      | Some pair -> pair
      | None -> error "shard executed: bad fingerprint %S" s
  in
  List.iter
    (fun s ->
      let hi, lo = fingerprint s in
      ignore (Fpset.add t.executed hi lo))
    (str_items "executed");
  Hashtbl.reset t.crash_seen;
  List.iter (fun d -> Hashtbl.replace t.crash_seen d ()) (str_items "crash_seen")

type crash_event = {
  ce_crash : Kernel.crash;
  ce_prog : Prog.t;
  ce_time : float;
}

type epoch = {
  ep_shard : int;
  ep_admissions : Corpus.entry list;
  ep_crashes : crash_event list;
  ep_coverage : Accum.t;
  ep_origin : (string * (int * int)) list;
  ep_target_hit_at : float option;
  ep_idle : bool;
}

(* Mutable working set of one epoch. *)
type ctx = {
  acc : Accum.t;  (* private: global snapshot + this epoch's coverage *)
  local : Corpus.t;  (* private copy of the barrier-frozen global corpus *)
  origin : (string, int * int) Hashtbl.t;
  mutable admissions_rev : Corpus.entry list;
  mutable crashes_rev : crash_event list;
  mutable target_hit_at : float option;
  mutable worked : bool;
}

(* Whether [prog] is new to this shard, recording it if so. The set
   holds fingerprints, not programs: two distinct programs sharing all
   126 bits (about 6e-23 likely among 1e8 programs) would cost one
   never-run program, skipped and charged as a duplicate — the same way
   in every run, so reports stay a pure function of (seed, jobs,
   schedule). *)
let first_run t prog =
  let fp = Prog.fingerprint prog in
  Fpset.add t.executed fp.Prog.fp_hi fp.Prog.fp_lo

let check_target t ctx target =
  match target with
  | Some b when ctx.target_hit_at = None && Accum.mem_block ctx.acc b ->
    ctx.target_hit_at <- Some (Clock.now t.clock)
  | Some _ | None -> ()

(* Ingest the shard VM scratch's last execution. Novelty is judged with
   [Accum.add_stamped] directly on the scratch's stamped views; bitsets
   are materialized only for the rare corpus admission. *)
let ingest_raw ?(origin = "seed") t ctx target prog =
  ctx.worked <- true;
  let scratch = Vm.scratch t.vm in
  let crash = Kernel.scratch_crash scratch in
  let delta =
    Accum.add_stamped ctx.acc
      ~blocks:(Kernel.scratch_blocks scratch)
      ~edges:(Kernel.scratch_edges scratch)
  in
  (let execs, new_edges =
     Option.value ~default:(0, 0) (Hashtbl.find_opt ctx.origin origin)
   in
   Hashtbl.replace ctx.origin origin (execs + 1, new_edges + delta.Accum.new_edges));
  (* Crashing programs never enter the corpus: the VM died, and mutating
     them would mostly re-trigger the same crash (Syzkaller behaves the
     same way). *)
  if crash = None && (delta.Accum.new_blocks > 0 || delta.Accum.new_edges > 0)
  then begin
    let entry =
      {
        Corpus.prog;
        blocks = Kernel.scratch_blocks_bitset scratch;
        edges = Kernel.scratch_edges_bitset scratch;
        added_at = Clock.now t.clock;
      }
    in
    if Corpus.add ctx.local entry then
      ctx.admissions_rev <- entry :: ctx.admissions_rev
  end;
  (match crash with
  | Some crash ->
    (* One event per description per shard bounds the merge's work; the
       global triage dedups across shards. *)
    let d = Bug.description crash.Kernel.bug in
    if not (Hashtbl.mem t.crash_seen d) then begin
      Hashtbl.add t.crash_seen d ();
      ctx.crashes_rev <-
        { ce_crash = crash; ce_prog = prog; ce_time = Clock.now t.clock }
        :: ctx.crashes_rev
    end
  | None -> ());
  check_target t ctx target

let run_epoch_inner t ?max_execs ~corpus ~accum ~target ~until () =
  let exec0 = Vm.executions t.vm in
  let ctx =
    {
      acc = Accum.copy accum;
      local = Corpus.copy corpus;
      origin = Hashtbl.create 8;
      admissions_rev = [];
      crashes_rev = [];
      target_hit_at = None;
      worked = false;
    }
  in
  let capped () =
    match max_execs with
    | None -> false
    | Some c -> Vm.executions t.vm - exec0 >= c
  in
  let finished () =
    Clock.now t.clock >= until
    || (target <> None && ctx.target_hit_at <> None)
    || capped ()
  in
  (* Leftover seed slice first (all of it in the first epoch, normally). *)
  while (not (finished ())) && t.seeds <> [] do
    match t.seeds with
    | [] -> ()
    | prog :: rest ->
      t.seeds <- rest;
      if first_run t prog then begin
        Vm.run_raw t.vm t.clock prog;
        ingest_raw t ctx target prog
      end
  done;
  while (not (finished ())) && Corpus.size ctx.local > 0 do
    ctx.worked <- true;
    Metrics.incr t.metrics "campaign.iterations";
    let iter_start = Clock.now t.clock in
    let entry =
      match target with
      | Some _ -> Corpus.choose_directed t.rng ctx.local
      | None -> Corpus.choose t.rng ctx.local
    in
    let proposals =
      (* Wall clock: this runs on a worker domain (see Metrics.time_wall). *)
      Metrics.time_wall t.metrics "campaign.propose_wall_s" (fun () ->
          t.strategy.Strategy.propose t.rng ~now:(Clock.now t.clock)
            ~covered:(Accum.blocks ctx.acc) ctx.local entry)
    in
    Metrics.incr ~by:(List.length proposals) t.metrics "campaign.proposals";
    List.iter
      (fun (p : Strategy.proposal) ->
        if not (finished ()) then begin
          if first_run t p.Strategy.prog then begin
            Vm.run_raw t.vm t.clock p.Strategy.prog;
            ingest_raw ~origin:p.Strategy.origin t ctx target p.Strategy.prog
          end
          else begin
            Metrics.incr t.metrics "campaign.duplicates";
            Vm.charge_duplicate t.vm t.clock
          end
        end)
      proposals;
    Metrics.observe t.metrics "campaign.iter_virtual_s"
      (Clock.now t.clock -. iter_start)
  done;
  (* Keep shards in lockstep: a shard that ran out of work (or hit the
     target) still arrives at the barrier with clock = [until]. *)
  if Clock.now t.clock < until then
    Clock.advance t.clock (until -. Clock.now t.clock);
  {
    ep_shard = t.id;
    ep_admissions = List.rev ctx.admissions_rev;
    ep_crashes = List.rev ctx.crashes_rev;
    ep_coverage = ctx.acc;
    ep_origin =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.origin []
      |> List.sort compare;
    ep_target_hit_at = ctx.target_hit_at;
    ep_idle = not ctx.worked;
  }

(* The span runs on the worker domain executing the epoch — each shard
   owns its tracer, so this is race-free by construction. *)
let run_epoch t ?max_execs ~corpus ~accum ~target ~until () =
  Tracer.span t.tracer "shard.epoch" (fun () ->
      run_epoch_inner t ?max_execs ~corpus ~accum ~target ~until ())
