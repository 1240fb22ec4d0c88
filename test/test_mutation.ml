(* Tests for sp_mutation: instantiators and the engine. *)

module Rng = Sp_util.Rng
module Ty = Sp_syzlang.Ty
module Value = Sp_syzlang.Value
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Engine = Sp_mutation.Engine
module Instantiate = Sp_mutation.Instantiate

let db = Sp_kernel.Specgen.generate (Rng.create 3) ~num_syscalls:24

let prog_gen =
  QCheck.make
    ~print:(fun p -> Prog.to_string p)
    QCheck.Gen.(map (fun seed -> Gen.program (Rng.create seed) db ()) int)

let engine = Engine.create db

(* ------------------------------------------------------------------ *)
(* Instantiate                                                          *)
(* ------------------------------------------------------------------ *)

let prop_instantiate_conforms =
  QCheck.Test.make ~count:300 ~name:"instantiated values conform to their type"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let tys =
        [ Ty.Int { bits = 32; lo = 0; hi = 100 };
          Ty.Flags { flag_name = "f"; flag_values = [ ("A", 1); ("B", 2); ("C", 4) ] };
          Ty.Enum { enum_name = "e"; choices = [ ("X", 3); ("Y", 9) ] };
          Ty.Buffer { min_len = 0; max_len = 64 };
          Ty.Str [ "a"; "b" ];
          Ty.Ptr (Ty.Int { bits = 32; lo = 0; hi = 7 }) ]
      in
      List.for_all
        (fun ty ->
          let v0 = Value.default rng ty in
          Value.conforms ty (Instantiate.value rng ty v0))
        tys)

let test_const_len_untouched () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "const untouched" true
    (Instantiate.value rng (Ty.Const 5) (Value.Vconst 5) = Value.Vconst 5);
  Alcotest.(check bool) "len untouched" true
    (Instantiate.value rng (Ty.Len 0) (Value.Vlen 3) = Value.Vlen 3)

let test_enum_changes () =
  let rng = Rng.create 1 in
  let ty = Ty.Enum { enum_name = "e"; choices = [ ("X", 3); ("Y", 9) ] } in
  for _ = 1 to 20 do
    match Instantiate.value rng ty (Value.Venum 3) with
    | Value.Venum 9 -> ()
    | v -> Alcotest.failf "enum mutated to %s" (Value.to_string v)
  done

let prop_at_path_valid =
  QCheck.Test.make ~count:200 ~name:"at_path keeps the program valid"
    QCheck.(pair prog_gen (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Rng.create seed in
      let nodes = Prog.mutable_nodes p in
      nodes = []
      ||
      let path, _ = List.nth nodes (Rng.int rng (List.length nodes)) in
      Prog.validate (Instantiate.at_path rng p path) = Ok ())

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let prop_mutate_valid =
  QCheck.Test.make ~count:300 ~name:"engine mutants validate"
    QCheck.(pair prog_gen (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Rng.create seed in
      let donor = Gen.program (Rng.create (seed lxor 77)) db () in
      let mutated, _ = Engine.mutate engine rng ~donor p in
      Prog.validate mutated = Ok ())

let prop_mutate_args_at_touches_only_named_call =
  QCheck.Test.make ~count:200 ~name:"mutate_args_at changes only the targeted call"
    QCheck.(pair prog_gen (int_bound 1000000))
    (fun (p, seed) ->
      let rng = Rng.create seed in
      let nodes = Prog.mutable_nodes p in
      nodes = []
      ||
      let path, _ = List.nth nodes (Rng.int rng (List.length nodes)) in
      let p' = Engine.mutate_args_at engine rng p [ path ] in
      Array.length p = Array.length p'
      && Array.for_all2
           (fun (a : Prog.call) (b : Prog.call) ->
             a.Prog.spec.Sp_syzlang.Spec.name = b.Prog.spec.Sp_syzlang.Spec.name)
           p p'
      && fst
           (Array.fold_left
              (fun (ok, i) (a : Prog.call) ->
                let b = p'.(i) in
                let same = List.for_all2 Value.equal a.Prog.args b.Prog.args in
                ((ok && (i = path.Prog.call || same)), i + 1))
              (true, 0) p))

let test_selector_distribution () =
  let rng = Rng.create 5 in
  let p = Gen.program (Rng.create 0) db () in
  let counts = Hashtbl.create 4 in
  let selector = Engine.syzkaller_selector ~splice:true () in
  for _ = 1 to 2000 do
    let m = selector rng p in
    Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m))
  done;
  let get m = Option.value ~default:0 (Hashtbl.find_opt counts m) in
  Alcotest.(check bool) "args dominate" true
    (get Engine.Argument_mutation > get Engine.Call_insertion);
  Alcotest.(check bool) "insertion > removal" true
    (get Engine.Call_insertion > get Engine.Call_removal);
  Alcotest.(check bool) "all types occur" true
    (List.for_all
       (fun m -> get m > 0)
       [ Engine.Argument_mutation; Engine.Call_insertion; Engine.Call_removal;
         Engine.Splice ])

let test_localizer_picks_mutable () =
  let rng = Rng.create 9 in
  let localizer = Engine.syzkaller_arg_localizer () in
  let p = Gen.program (Rng.create 3) db () in
  for _ = 1 to 50 do
    let paths = localizer rng p in
    Alcotest.(check bool) "non-empty" true (paths <> []);
    List.iter
      (fun path ->
        match Prog.ty_at p path with
        | Ty.Const _ | Ty.Len _ | Ty.Struct _ -> Alcotest.fail "picked immutable node"
        | _ -> ())
      paths
  done

let prop_length_capped =
  QCheck.Test.make ~count:100 ~name:"insertion respects the call cap"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = ref (Gen.program (Rng.create (seed lxor 3)) db ()) in
      for _ = 1 to 40 do
        let m, _ = Engine.mutate engine rng !p in
        p := m
      done;
      Array.length !p <= 12)

let test_mutation_type_names () =
  Alcotest.(check string) "arg" "ARGUMENT_MUTATION"
    (Engine.mutation_type_to_string Engine.Argument_mutation);
  Alcotest.(check string) "insert" "SYSCALL_INSERTION"
    (Engine.mutation_type_to_string Engine.Call_insertion)

(* ------------------------------------------------------------------ *)
(* Fingerprints over a mutation stream                                  *)
(* ------------------------------------------------------------------ *)

(* What a shard's executed set sees: generated programs and chains of
   their mutants. Among 10^5 distinct ones, no two may share a
   fingerprint (at 126 bits, any sharing is a mixing defect, not bad
   luck). Distinctness is judged on an independent exact encoding of
   what [Prog.equal] compares (call names and values, every constructor
   tagged and every list and string length-prefixed); only its digest is
   kept, to bound the test's memory. *)
let exact_key p =
  let b = Buffer.create 256 in
  let add_int n = Buffer.add_string b (string_of_int n); Buffer.add_char b ',' in
  let add_str s = add_int (String.length s); Buffer.add_string b s in
  let rec add_value (v : Value.t) =
    match v with
    | Vconst n -> Buffer.add_char b 'c'; add_int n
    | Vint n -> Buffer.add_char b 'i'; add_int n
    | Vflags n -> Buffer.add_char b 'f'; add_int n
    | Venum n -> Buffer.add_char b 'e'; add_int n
    | Vlen n -> Buffer.add_char b 'l'; add_int n
    | Vbuf { len; seed } -> Buffer.add_char b 'b'; add_int len; add_int seed
    | Vstr s -> Buffer.add_char b 's'; add_str s
    | Vptr None -> Buffer.add_char b 'n'
    | Vptr (Some v) -> Buffer.add_char b 'p'; add_value v
    | Vstruct vs -> Buffer.add_char b 't'; add_values vs
    | Vres i -> Buffer.add_char b 'r'; add_int i
  and add_values vs = add_int (List.length vs); List.iter add_value vs in
  add_int (Array.length p);
  Array.iter (fun c -> add_str c.Prog.spec.Sp_syzlang.Spec.name; add_values c.Prog.args) p;
  Digest.string (Buffer.contents b)

let test_fingerprints_distinct () =
  let seen : (int * int, Digest.t) Hashtbl.t = Hashtbl.create 200_000 in
  let keys : (Digest.t, unit) Hashtbl.t = Hashtbl.create 200_000 in
  let target = 100_000 in
  let record p =
    let d = exact_key p in
    if not (Hashtbl.mem keys d) then begin
      Hashtbl.add keys d ();
      let fp = Prog.fingerprint p in
      let key = (fp.Prog.fp_hi, fp.Prog.fp_lo) in
      match Hashtbl.find_opt seen key with
      | Some _ ->
        Alcotest.failf "two distinct programs share fingerprint %s; one is:\n%s"
          (Sp_util.Fpset.to_hex fp.Prog.fp_hi fp.Prog.fp_lo)
          (Prog.to_string p)
      | None -> Hashtbl.add seen key d
    end
  in
  let rng = Rng.create 17 in
  let base = ref 0 in
  while Hashtbl.length keys < target do
    incr base;
    let p = Gen.program (Rng.create !base) db () in
    record p;
    let m = ref p in
    for _ = 1 to 7 do
      let next, _ = Engine.mutate engine rng ~donor:p !m in
      m := next;
      record next
    done
  done;
  Alcotest.(check bool) "at least 10^5 distinct programs" true
    (Hashtbl.length keys >= target);
  Alcotest.(check int) "one fingerprint per distinct program"
    (Hashtbl.length keys) (Hashtbl.length seen)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sp_mutation"
    [
      ( "instantiate",
        [
          Alcotest.test_case "const/len untouched" `Quick test_const_len_untouched;
          Alcotest.test_case "enum changes value" `Quick test_enum_changes;
        ] );
      qsuite "instantiate-props" [ prop_instantiate_conforms; prop_at_path_valid ];
      ( "engine",
        [
          Alcotest.test_case "selector distribution" `Quick test_selector_distribution;
          Alcotest.test_case "localizer mutable only" `Quick test_localizer_picks_mutable;
          Alcotest.test_case "type names" `Quick test_mutation_type_names;
          Alcotest.test_case "10^5 distinct programs, distinct fingerprints"
            `Slow test_fingerprints_distinct;
        ] );
      qsuite "engine-props"
        [ prop_mutate_valid; prop_mutate_args_at_touches_only_named_call; prop_length_capped ];
    ]
