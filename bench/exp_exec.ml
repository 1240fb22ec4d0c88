(* E11: the compiled executor — raw execs/sec, per-exec latency and
   allocation, bytecode vs the reference tree-walking interpreter.

   Two modes:
   - full (default): the default kernel, long measurement loops, the >=3x
     throughput bar of the acceptance criterion.
   - quick (SNOWPLOW_QUICK set): a smaller kernel and short loops, run
     from the @ci alias as a smoke test. Correctness (differential
     equality vs the reference oracle) and steady-state allocation are
     asserted in both modes — those are deterministic; the quick timing
     assertion keeps a wide margin (1.1x sanity bar) so a loaded CI box cannot flake
     it while a real executor regression still fails. *)

module Kernel = Sp_kernel.Kernel
module Reference = Oracle.Kernel_reference
module Build = Sp_kernel.Build
module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Table = Sp_util.Table

let quick = Sys.getenv_opt "SNOWPLOW_QUICK" <> None

let failures = ref 0

let bar name ok detail =
  Exp_common.log "%s: %s — %s" name detail (if ok then "PASSES" else "FAILS");
  if not ok then incr failures

let equal_result (a : Kernel.result) (b : Kernel.result) =
  a.Kernel.traces = b.Kernel.traces
  && a.Kernel.crash = b.Kernel.crash
  && Bitset.equal a.Kernel.covered b.Kernel.covered
  && Bitset.equal a.Kernel.covered_edges b.Kernel.covered_edges
  && a.Kernel.objects = b.Kernel.objects

(* One measured executor mode: throughput loop (no per-exec clock), then a
   latency-sampling loop, then an allocation loop. *)
type measurement = {
  execs_per_s : float;
  p50_us : float;
  p99_us : float;
  words_per_exec : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let measure ~iters ~progs f =
  let np = Array.length progs in
  for i = 0 to (iters / 10) - 1 do
    f progs.(i mod np)
  done;
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    f progs.(i mod np)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let samples = min iters 2000 in
  let lat = Array.make samples 0.0 in
  for i = 0 to samples - 1 do
    let s0 = Unix.gettimeofday () in
    f progs.(i mod np);
    lat.(i) <- (Unix.gettimeofday () -. s0) *. 1e6
  done;
  Array.sort compare lat;
  let w0 = Gc.minor_words () in
  let alloc_iters = min iters 5000 in
  for i = 0 to alloc_iters - 1 do
    f progs.(i mod np)
  done;
  let w1 = Gc.minor_words () in
  {
    execs_per_s = float_of_int iters /. wall;
    p50_us = percentile lat 0.50;
    p99_us = percentile lat 0.99;
    words_per_exec = (w1 -. w0) /. float_of_int alloc_iters;
  }

let run () =
  Exp_common.section
    (if quick then "E11 — compiled executor (quick smoke)"
     else "E11 — compiled executor vs reference interpreter");
  (* Quick mode keeps the default kernel: the speedup is a function of
     handler size, and a toy kernel under-reports it enough to make the
     timing bar meaningless. Short loops keep the smoke test cheap. *)
  let config = Build.default_config in
  let kernel = Kernel.generate config in
  let oracle = Reference.of_built (Kernel.built kernel) in
  let db = Kernel.spec_db kernel in
  let rng = Rng.create 2025 in
  let progs =
    Array.init (if quick then 32 else 64) (fun _ ->
        Sp_syzlang.Gen.program rng db ())
  in
  let scratch = Kernel.create_scratch kernel in
  (* Correctness first: the bench must not time a wrong executor. Noise
     streams are duplicated so both interpreters consume identical draws. *)
  let diff_bad = ref 0 in
  Array.iteri
    (fun i prog ->
      let noise_level = if i mod 3 = 0 then 0.8 else 0.0 in
      let r_ref, r_byte =
        if noise_level > 0.0 then
          ( Reference.execute oracle ~noise:(Rng.create (900 + i), noise_level)
              prog,
            Kernel.execute kernel ~scratch
              ~noise:(Rng.create (900 + i), noise_level)
              prog )
        else (Reference.execute oracle prog, Kernel.execute kernel ~scratch prog)
      in
      if not (equal_result r_ref r_byte) then incr diff_bad)
    progs;
  bar "differential (bytecode == reference)" (!diff_bad = 0)
    (Printf.sprintf "%d/%d programs identical"
       (Array.length progs - !diff_bad)
       (Array.length progs));
  (* Measurements. *)
  let iters = if quick then 4_000 else 40_000 in
  let m_ref =
    measure ~iters:(iters / 4) ~progs (fun p ->
        ignore (Reference.execute oracle p))
  in
  let m_mat =
    measure ~iters ~progs (fun p -> ignore (Kernel.execute kernel p))
  in
  let m_scr =
    measure ~iters:(iters * 4) ~progs (fun p ->
        Kernel.execute_into kernel scratch p)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Executor performance (%d syscalls, %d blocks)"
           config.Build.num_syscalls (Kernel.num_blocks kernel))
      ~header:
        [ "executor"; "execs/s"; "p50"; "p99"; "minor words/exec"; "speedup" ]
      ()
  in
  let row name (m : measurement) =
    Table.add_row t
      [ name;
        Printf.sprintf "%.0f" m.execs_per_s;
        Printf.sprintf "%.1f us" m.p50_us;
        Printf.sprintf "%.1f us" m.p99_us;
        Printf.sprintf "%.1f" m.words_per_exec;
        Printf.sprintf "%.2fx" (m.execs_per_s /. m_ref.execs_per_s) ]
  in
  row "reference (tree walk)" m_ref;
  row "bytecode + result" m_mat;
  row "bytecode + scratch" m_scr;
  Table.print t;
  (* Artifact: one row per executor mode (t = mode index), so executor
     trajectories across commits have a machine-readable source. *)
  (let ts = Sp_obs.Timeseries.create () in
   List.iteri
     (fun i (m : measurement) ->
       Sp_obs.Timeseries.sample ts ~time:(float_of_int i)
         [
           ("execs_per_s", m.execs_per_s);
           ("p50_us", m.p50_us);
           ("p99_us", m.p99_us);
           ("words_per_exec", m.words_per_exec);
         ])
     [ m_ref; m_mat; m_scr ];
   Exp_common.emit_timeseries "e11-executor" (Some ts));
  Exp_common.emit_bench "E11"
    [ ("ref_execs_per_s", m_ref.execs_per_s);
      ("bytecode_execs_per_s", m_mat.execs_per_s);
      ("scratch_execs_per_s", m_scr.execs_per_s);
      ("scratch_p50_us", m_scr.p50_us);
      ("scratch_p99_us", m_scr.p99_us);
      ("scratch_words_per_exec", m_scr.words_per_exec);
      ("speedup_vs_reference", m_scr.execs_per_s /. m_ref.execs_per_s)
    ];
  let speedup = m_scr.execs_per_s /. m_ref.execs_per_s in
  bar "steady-state allocation"
    (m_scr.words_per_exec <= 8.0)
    (Printf.sprintf "%.2f minor words/exec with scratch reuse (bound 8)"
       m_scr.words_per_exec);
  if quick then
    (* Sanity bar only: short quick loops on a loaded 1-core CI host can
       skew the ratio badly (the dense/reference pair in e13 was observed
       at 1.48x under a full concurrent @ci build vs 3.5x uncontended).
       The real perf-rot gate is the 3x floor on the committed full-scale
       baseline, enforced by bench-diff. *)
    bar "throughput (quick)" (speedup >= 1.1)
      (Printf.sprintf "scratch path %.2fx reference (quick sanity bar 1.1x)"
         speedup)
  else
    bar "throughput" (speedup >= 3.0)
      (Printf.sprintf "scratch path %.2fx reference (bar 3x)" speedup);
  if !failures > 0 then begin
    Exp_common.log "e11: %d bar(s) FAILED" !failures;
    exit 1
  end
