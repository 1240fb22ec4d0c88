(* Tests for sp_kernel: generation determinism, structure invariants, the
   interpreter, bugs and noise, plus sp_coverage helpers. *)

module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Cfg = Sp_cfg.Cfg
module Kernel = Sp_kernel.Kernel
module Ir = Sp_kernel.Ir
module Bug = Sp_kernel.Bug
module Build = Sp_kernel.Build
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen

(* A small kernel keeps the tests fast. *)
let small_config =
  { Build.default_config with num_syscalls = 16; handler_budget = 120; max_depth = 8 }

let kernel = Kernel.generate small_config

let db = Kernel.spec_db kernel

let corpus seed n = Gen.corpus (Rng.create seed) db ~size:n

(* ------------------------------------------------------------------ *)
(* Generation                                                           *)
(* ------------------------------------------------------------------ *)

let test_deterministic_generation () =
  let k2 = Kernel.generate small_config in
  Alcotest.(check int) "same block count" (Kernel.num_blocks kernel) (Kernel.num_blocks k2);
  for b = 0 to Kernel.num_blocks kernel - 1 do
    let b1 = Kernel.block kernel b and b2 = Kernel.block k2 b in
    if b1.Ir.term <> b2.Ir.term then Alcotest.fail "terminators differ"
  done

let test_structure () =
  Alcotest.(check bool) "has blocks" true (Kernel.num_blocks kernel > 500);
  (* every handler entry reaches its exit *)
  for sys = 0 to Sp_syzlang.Spec.count db - 1 do
    let entry = Kernel.handler_entry kernel sys in
    let exit_b = Kernel.handler_exit kernel sys in
    Alcotest.(check bool) "exit reachable from entry" true
      (Bitset.mem (Cfg.reachable (Kernel.cfg kernel) entry) exit_b)
  done

let test_block_sys_ids () =
  for b = 0 to Kernel.num_blocks kernel - 1 do
    let blk = Kernel.block kernel b in
    if blk.Ir.sys_id >= Sp_syzlang.Spec.count db then
      Alcotest.fail "block with out-of-range sys id"
  done

let test_cfg_matches_terminators () =
  for b = 0 to Kernel.num_blocks kernel - 1 do
    let succs = List.sort compare (Cfg.succs (Kernel.cfg kernel) b) in
    let expected =
      List.sort_uniq compare (Ir.successors (Kernel.block kernel b).Ir.term)
    in
    if succs <> expected then Alcotest.fail "cfg out of sync with terminators"
  done

let test_bugs_reachable () =
  (* every injected bug's crash block is statically reachable from its
     handler's entry *)
  Array.iter
    (fun (bug : Bug.t) ->
      let crash_block = ref None in
      for b = 0 to Kernel.num_blocks kernel - 1 do
        match (Kernel.block kernel b).Ir.term with
        | Ir.Crash id when id = bug.Bug.id -> crash_block := Some b
        | _ -> ()
      done;
      match !crash_block with
      | None -> Alcotest.fail "bug without crash block"
      | Some cb ->
        let sys = (Kernel.block kernel cb).Ir.sys_id in
        let entry = Kernel.handler_entry kernel sys in
        Alcotest.(check bool) "crash block reachable" true
          (Bitset.mem (Cfg.reachable (Kernel.cfg kernel) entry) cb))
    (Kernel.bugs kernel)

let test_version_evolution () =
  let base = Kernel.linux_like ~seed:3 ~version:"6.8" in
  let next = Kernel.linux_like ~seed:3 ~version:"6.9" in
  Alcotest.(check bool) "later version grew" true
    (Kernel.num_blocks next > Kernel.num_blocks base);
  (* the syscall interface is shared *)
  Alcotest.(check int) "same interface"
    (Sp_syzlang.Spec.count (Kernel.spec_db base))
    (Sp_syzlang.Spec.count (Kernel.spec_db next));
  (* known bugs are shared, new bugs are version-specific *)
  let known k =
    Array.to_list (Kernel.bugs k)
    |> List.filter (fun (b : Bug.t) -> b.Bug.known)
    |> List.map Bug.description
  in
  Alcotest.(check (list string)) "known bug list shared" (known base) (known next)

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let prop_execute_deterministic =
  QCheck.Test.make ~count:60 ~name:"execution is deterministic"
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = Gen.program (Rng.create seed) db () in
      let r1 = Kernel.execute kernel p and r2 = Kernel.execute kernel p in
      Bitset.equal r1.Kernel.covered r2.Kernel.covered
      && Bitset.equal r1.Kernel.covered_edges r2.Kernel.covered_edges
      && r1.Kernel.crash = r2.Kernel.crash)

let prop_traces_consistent =
  QCheck.Test.make ~count:60 ~name:"trace blocks are exactly the covered set"
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = Gen.program (Rng.create seed) db () in
      let r = Kernel.execute kernel p in
      let from_traces = Bitset.create (Kernel.num_blocks kernel) in
      List.iter
        (fun (tr : Kernel.call_trace) ->
          List.iter (Bitset.add from_traces) tr.Kernel.visited)
        r.Kernel.traces;
      Bitset.equal from_traces r.Kernel.covered)

let prop_trace_follows_cfg =
  QCheck.Test.make ~count:60 ~name:"consecutive trace blocks are static edges"
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = Gen.program (Rng.create seed) db () in
      let r = Kernel.execute kernel p in
      List.for_all
        (fun (tr : Kernel.call_trace) ->
          let rec ok = function
            | [] | [ _ ] -> true
            | a :: (b :: _ as rest) ->
              Cfg.mem_edge (Kernel.cfg kernel) (a, b) && ok rest
          in
          ok tr.Kernel.visited)
        r.Kernel.traces)

let prop_crash_stops_execution =
  QCheck.Test.make ~count:200 ~name:"a crash aborts the remaining calls"
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = Gen.program (Rng.create seed) db () in
      let r = Kernel.execute kernel p in
      match r.Kernel.crash with
      | None -> List.length r.Kernel.traces = Array.length p
      | Some c ->
        List.length r.Kernel.traces = c.Kernel.crash_call + 1)

let test_entry_and_exit_in_trace () =
  let p = corpus 4 1 |> List.hd in
  let r = Kernel.execute kernel p in
  List.iter
    (fun (tr : Kernel.call_trace) ->
      let sys = p.(tr.Kernel.call_idx).Prog.spec.Sp_syzlang.Spec.sys_id in
      Alcotest.(check bool) "starts at handler entry" true
        (List.hd tr.Kernel.visited = Kernel.handler_entry kernel sys))
    r.Kernel.traces

let test_noise_pollutes () =
  let p = corpus 8 1 |> List.hd in
  let clean = Kernel.execute kernel p in
  let rng = Rng.create 1 in
  let differs = ref false in
  for _ = 1 to 20 do
    let noisy = Kernel.execute ~noise:(rng, 0.8) kernel p in
    if not (Bitset.equal clean.Kernel.covered noisy.Kernel.covered) then differs := true
  done;
  Alcotest.(check bool) "noise changes coverage" true !differs

let test_resource_dependency () =
  (* Cross-call dependency: a consumer's coverage can depend on the
     producer's arguments (the paper's implicit control dependencies). At
     least one producer argument mutation must change some consumer's
     coverage across a corpus of tests. *)
  let rng = Rng.create 12 in
  let found = ref false in
  List.iter
    (fun p ->
      if not !found then begin
        let r = Kernel.execute kernel p in
        if r.Kernel.crash = None then
          List.iter
            (fun ((path : Prog.path), ty) ->
              match ty with
              | Sp_syzlang.Ty.Flags _ when p.(path.Prog.call).Prog.spec.Sp_syzlang.Spec.ret <> None ->
                for _ = 1 to 8 do
                  let v = Sp_syzlang.Value.random rng ty in
                  let p' = Prog.set p path v in
                  let r' = Kernel.execute kernel p' in
                  if r'.Kernel.crash = None
                     && not (Bitset.equal r.Kernel.covered r'.Kernel.covered)
                  then found := true
                done
              | _ -> ())
            (Prog.mutable_nodes p)
      end)
    (corpus 77 40);
  Alcotest.(check bool) "producer args influence coverage" true !found

(* ------------------------------------------------------------------ *)
(* Coverage helpers (sp_coverage)                                       *)
(* ------------------------------------------------------------------ *)

let test_accum () =
  let a = Sp_coverage.Accum.create ~num_blocks:10 ~num_edges:10 in
  let blocks = Bitset.of_list 10 [ 1; 2 ] and edges = Bitset.of_list 10 [ 0 ] in
  let d = Sp_coverage.Accum.add a ~blocks ~edges in
  Alcotest.(check int) "new blocks" 2 d.Sp_coverage.Accum.new_blocks;
  Alcotest.(check int) "new edges" 1 d.Sp_coverage.Accum.new_edges;
  let d2 = Sp_coverage.Accum.add a ~blocks ~edges in
  Alcotest.(check int) "nothing new" 0 d2.Sp_coverage.Accum.new_blocks;
  Alcotest.(check int) "totals" 2 (Sp_coverage.Accum.blocks_covered a)

let test_bug_categories () =
  Alcotest.(check int) "7 categories" 7 (List.length Bug.all_categories);
  Array.iter
    (fun (bug : Bug.t) ->
      Alcotest.(check bool) "description non-empty" true
        (String.length (Bug.description bug) > 0))
    (Kernel.bugs kernel)

(* ------------------------------------------------------------------ *)
(* Tokens, predicates, interface generation                             *)
(* ------------------------------------------------------------------ *)

module Token = Sp_kernel.Token

let test_tokens () =
  Alcotest.(check bool) "opcode ids distinct" true (Token.opcode "cmp" <> Token.opcode "je");
  Alcotest.(check int) "opsig in bucket range" (Token.opsig_bucket "open_flags")
    (Token.opsig "open_flags" - Token.opsig "" + Token.opsig_bucket "");
  Alcotest.(check bool) "opsig stable" true (Token.opsig "x" = Token.opsig "x");
  Alcotest.(check bool) "bucket bounded" true
    (Token.opsig_bucket "anything" < Token.num_opsig_buckets);
  Alcotest.(check bool) "const buckets distinguish small ints" true
    (Token.const_bucket 1 <> Token.const_bucket 2);
  Alcotest.(check string) "padding printable" "<pad>" (Token.to_string Token.padding);
  Alcotest.check_raises "unknown opcode"
    (Invalid_argument "Token.opcode: unknown mnemonic frobnicate") (fun () ->
      ignore (Token.opcode "frobnicate"))

let test_eval_cmp () =
  let open Sp_kernel.Ir in
  Alcotest.(check bool) "eq" true (eval_cmp Eq 3 3);
  Alcotest.(check bool) "ne" true (eval_cmp Ne 3 4);
  Alcotest.(check bool) "lt" true (eval_cmp Lt 3 4);
  Alcotest.(check bool) "gt" false (eval_cmp Gt 3 4);
  Alcotest.(check bool) "masked all bits" true (eval_cmp Masked 0b111 0b101);
  Alcotest.(check bool) "masked missing bit" false (eval_cmp Masked 0b010 0b101)

let test_specgen_deterministic () =
  let a = Sp_kernel.Specgen.generate (Rng.create 5) ~num_syscalls:20 in
  let b = Sp_kernel.Specgen.generate (Rng.create 5) ~num_syscalls:20 in
  List.iter2
    (fun (sa : Sp_syzlang.Spec.t) sb ->
      Alcotest.(check string) "same names" sa.Sp_syzlang.Spec.name sb.Sp_syzlang.Spec.name;
      Alcotest.(check int) "same arity"
        (List.length sa.Sp_syzlang.Spec.args)
        (List.length sb.Sp_syzlang.Spec.args))
    (Sp_syzlang.Spec.all a) (Sp_syzlang.Spec.all b)

let test_specgen_producers_complete () =
  (* every consumed resource kind has a producer in the same interface *)
  let db48 = Sp_kernel.Specgen.generate (Rng.create 5) ~num_syscalls:Sp_kernel.Specgen.catalog_size in
  List.iter
    (fun (spec : Sp_syzlang.Spec.t) ->
      List.iter
        (fun (f : Sp_syzlang.Ty.field) ->
          match f.fty with
          | Sp_syzlang.Ty.Resource kind ->
            Alcotest.(check bool)
              (Printf.sprintf "%s has a producer" kind)
              true
              (Sp_syzlang.Spec.producers_of db48 kind <> [])
          | _ -> ())
        spec.Sp_syzlang.Spec.args)
    (Sp_syzlang.Spec.all db48)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sp_kernel"
    [
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_generation;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "block sys ids" `Quick test_block_sys_ids;
          Alcotest.test_case "cfg sync" `Quick test_cfg_matches_terminators;
          Alcotest.test_case "bugs reachable" `Quick test_bugs_reachable;
          Alcotest.test_case "version evolution" `Slow test_version_evolution;
          Alcotest.test_case "bug categories" `Quick test_bug_categories;
        ] );
      qsuite "execution-props"
        [
          prop_execute_deterministic;
          prop_traces_consistent;
          prop_trace_follows_cfg;
          prop_crash_stops_execution;
        ];
      ( "execution",
        [
          Alcotest.test_case "entry in trace" `Quick test_entry_and_exit_in_trace;
          Alcotest.test_case "noise pollutes" `Quick test_noise_pollutes;
          Alcotest.test_case "resource dependency" `Quick test_resource_dependency;
        ] );
      ( "coverage", [ Alcotest.test_case "accumulator" `Quick test_accum ] );
      ( "tokens+specgen",
        [
          Alcotest.test_case "tokens" `Quick test_tokens;
          Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
          Alcotest.test_case "specgen deterministic" `Quick test_specgen_deterministic;
          Alcotest.test_case "producers complete" `Quick test_specgen_producers_complete;
        ] );
    ]
