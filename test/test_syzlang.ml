(* Unit and property tests for sp_syzlang: types, values, programs,
   parser/printer, generator. The syscall interface of the synthetic
   kernel provides realistic specs for the property tests. *)

module Rng = Sp_util.Rng
module Ty = Sp_syzlang.Ty
module Spec = Sp_syzlang.Spec
module Value = Sp_syzlang.Value
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Parser = Sp_syzlang.Parser

let db = Sp_kernel.Specgen.generate (Rng.create 3) ~num_syscalls:24

let prog_gen =
  (* QCheck generator of well-formed programs via the program generator. *)
  QCheck.make
    ~print:(fun p -> Prog.to_string p)
    QCheck.Gen.(map (fun seed -> Gen.program (Rng.create seed) db ()) int)

(* ------------------------------------------------------------------ *)
(* Spec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_spec_db () =
  Alcotest.(check int) "count" 24 (Spec.count db);
  let open_spec = Spec.find_exn db "open" in
  Alcotest.(check string) "name" "open" open_spec.Spec.name;
  Alcotest.(check bool) "produces fd" true (open_spec.Spec.ret = Some "fd");
  Alcotest.(check bool) "read consumes fd" true
    (List.exists
       (fun (f : Ty.field) -> f.fty = Ty.Resource "fd")
       (Spec.find_exn db "read").Spec.args);
  Alcotest.(check bool) "unknown is None" true (Spec.find db "nope" = None)

let test_spec_ids_dense () =
  List.iteri
    (fun i spec -> Alcotest.(check int) "dense id" i spec.Spec.sys_id)
    (Spec.all db)

let test_producers () =
  let fds = Spec.producers_of db "fd" in
  Alcotest.(check bool) "open produces fd" true
    (List.exists (fun s -> s.Spec.name = "open") fds)

let test_duplicate_name_rejected () =
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Spec.make_db: duplicate syscall name x") (fun () ->
      ignore (Spec.make_db [ ("x", [], None); ("x", [], None) ]))

(* ------------------------------------------------------------------ *)
(* Value                                                                *)
(* ------------------------------------------------------------------ *)

let all_types_of_db () =
  List.concat_map
    (fun spec ->
      let rec tys (t : Ty.t) =
        t
        ::
        (match t with
        | Ty.Ptr inner -> tys inner
        | Ty.Struct fields -> List.concat_map (fun f -> tys f.Ty.fty) fields
        | _ -> [])
      in
      List.concat_map (fun (f : Ty.field) -> tys f.fty) spec.Spec.args)
    (Spec.all db)

let test_minimal_conforms () =
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        (Printf.sprintf "minimal conforms to %s" (Ty.to_string ty))
        true
        (Value.conforms ty (Value.minimal ty)))
    (all_types_of_db ())

let prop_default_random_conform =
  QCheck.Test.make ~count:200 ~name:"default and random values conform"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun ty ->
          Value.conforms ty (Value.default rng ty)
          && Value.conforms ty (Value.random rng ty))
        (all_types_of_db ()))

let test_scalar_views () =
  Alcotest.(check int) "int" 7 (Value.scalar (Value.Vint 7));
  Alcotest.(check int) "buffer length" 42 (Value.scalar (Value.Vbuf { len = 42; seed = 3 }));
  Alcotest.(check int) "null ptr" 0 (Value.scalar (Value.Vptr None));
  Alcotest.(check int) "non-null ptr" 1 (Value.scalar (Value.Vptr (Some (Value.Vint 0))));
  Alcotest.(check bool) "string hash is stable" true
    (Value.scalar (Value.Vstr "x") = Value.scalar (Value.Vstr "x"))

let prop_content_hash_respects_equal =
  QCheck.Test.make ~count:200 ~name:"equal values have equal content hashes"
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (s1, s2) ->
      let v1 = Value.random (Rng.create s1) (Ty.Int { bits = 32; lo = 0; hi = 100 }) in
      let v2 = Value.random (Rng.create s2) (Ty.Int { bits = 32; lo = 0; hi = 100 }) in
      (not (Value.equal v1 v2)) || Value.content_hash v1 = Value.content_hash v2)

(* ------------------------------------------------------------------ *)
(* Prog                                                                 *)
(* ------------------------------------------------------------------ *)

let prop_generated_valid =
  QCheck.Test.make ~count:150 ~name:"generated programs validate" prog_gen
    (fun p -> Prog.validate p = Ok ())

let prop_roundtrip =
  QCheck.Test.make ~count:150 ~name:"print/parse round trip" prog_gen (fun p ->
      match Parser.program db (Prog.to_string p) with
      | Ok p' -> Prog.equal p p'
      | Error _ -> false)

(* The stock generator only draws strings from the spec's name lists, so
   it can never shake out printer/parser escaping bugs; this property
   plants adversarial payloads (quotes, backslashes, control characters,
   arbitrary bytes) into every string argument before round-tripping. *)
let prop_roundtrip_hostile_strings =
  let hostile =
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12))
  in
  QCheck.Test.make ~count:400 ~name:"round trip survives hostile string payloads"
    (QCheck.make
       ~print:(fun (p, s) -> Prog.to_string p ^ "  [payload " ^ String.escaped s ^ "]")
       QCheck.Gen.(pair (QCheck.gen prog_gen) hostile))
    (fun (p, s) ->
      let str_paths =
        List.filter_map
          (fun (path, ty) ->
            match ty with Ty.Str _ -> Some path | _ -> None)
          (Prog.mutable_nodes p)
      in
      str_paths = []
      ||
      let p =
        List.fold_left (fun p path -> Prog.set p path (Value.Vstr s)) p str_paths
      in
      match Parser.program db (Prog.to_string p) with
      | Ok p' -> Prog.equal p p'
      | Error _ -> false)

let prop_get_set_roundtrip =
  QCheck.Test.make ~count:150 ~name:"set then get returns the new value"
    QCheck.(pair prog_gen (int_bound 100000))
    (fun (p, seed) ->
      let rng = Rng.create seed in
      let nodes = Prog.mutable_nodes p in
      nodes = []
      ||
      let path, ty = List.nth nodes (Rng.int rng (List.length nodes)) in
      let v = Value.random rng ty in
      let p' = Prog.set p path v in
      match ty with
      | Ty.Len _ -> true (* lengths are recomputed *)
      | _ -> Value.equal (Prog.get p' path) v || Prog.validate p' = Ok ())

let prop_set_preserves_validity =
  QCheck.Test.make ~count:150 ~name:"set preserves validity"
    QCheck.(pair prog_gen (int_bound 100000))
    (fun (p, seed) ->
      let rng = Rng.create seed in
      let nodes = Prog.mutable_nodes p in
      nodes = []
      ||
      let path, ty = List.nth nodes (Rng.int rng (List.length nodes)) in
      (* resources need program-level wiring; skip them here *)
      match ty with
      | Ty.Resource _ -> true
      | _ -> Prog.validate (Prog.set p path (Value.random rng ty)) = Ok ())

let prop_remove_call_valid =
  QCheck.Test.make ~count:150 ~name:"remove_call keeps programs valid"
    QCheck.(pair prog_gen (int_bound 100000))
    (fun (p, seed) ->
      Array.length p <= 1
      ||
      let rng = Rng.create seed in
      let p' = Prog.remove_call p (Rng.int rng (Array.length p)) in
      Prog.validate p' = Ok () && Array.length p' = Array.length p - 1)

let prop_insert_call_shifts_resources =
  QCheck.Test.make ~count:150 ~name:"insert_call keeps programs valid"
    QCheck.(pair prog_gen (int_bound 100000))
    (fun (p, seed) ->
      let rng = Rng.create seed in
      let spec = List.nth (Spec.all db) (Rng.int rng (Spec.count db)) in
      let call = Prog.make_call rng spec in
      let pos = Rng.int rng (Array.length p + 1) in
      let p' = Prog.insert_call p pos call in
      Prog.validate p' = Ok () && Array.length p' = Array.length p + 1)

let test_arg_nodes_count () =
  let rng = Rng.create 5 in
  let p = Gen.program rng db () in
  Alcotest.(check int) "num_args consistent"
    (List.length (Prog.arg_nodes p))
    (Prog.num_args p);
  Alcotest.(check bool) "mutable subset" true
    (List.length (Prog.mutable_nodes p) <= Prog.num_args p)

let test_fix_lens () =
  (* A call with an explicit Len field tracking a buffer sibling. *)
  let db2 =
    Spec.make_db
      [ ("w",
         [ { Ty.fname = "buf"; fty = Ty.Ptr (Ty.Buffer { min_len = 0; max_len = 64 }) };
           { Ty.fname = "len"; fty = Ty.Len 0 } ],
         None) ]
  in
  let spec = Spec.find_exn db2 "w" in
  let call =
    { Prog.spec;
      args = [ Value.Vptr (Some (Value.Vbuf { len = 13; seed = 0 })); Value.Vlen 0 ] }
  in
  let fixed = Prog.fix_lens call in
  Alcotest.(check bool) "len recomputed" true
    (List.nth fixed.Prog.args 1 = Value.Vlen 13)

let test_parser_errors () =
  Alcotest.(check bool) "unknown syscall" true
    (Result.is_error (Parser.program db "nosuchcall(1)"));
  Alcotest.(check bool) "garbage" true (Result.is_error (Parser.program db "open(((("));
  Alcotest.(check bool) "empty program parses" true
    (match Parser.program db "" with Ok [||] -> true | _ -> false)

let prop_corpus_unique =
  QCheck.Test.make ~count:20 ~name:"generated corpus has no duplicate programs"
    QCheck.(int_bound 100000)
    (fun seed ->
      let progs = Gen.corpus (Rng.create seed) db ~size:30 in
      let hashes = List.map Prog.hash progs in
      List.length (List.sort_uniq compare hashes) = List.length hashes)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                         *)
(* ------------------------------------------------------------------ *)

let same_fingerprint a b =
  let fa = Prog.fingerprint a and fb = Prog.fingerprint b in
  fa.Prog.fp_hi = fb.Prog.fp_hi && fa.Prog.fp_lo = fb.Prog.fp_lo

(* The executed set relies on this direction: a program that [equal]
   calls the same — however it was built, including back from its text,
   as a v2 snapshot restore builds it — has the same fingerprint. Hostile
   string payloads exercise the full-width string mix. *)
let prop_fingerprint_respects_equal =
  let hostile =
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 20))
  in
  QCheck.Test.make ~count:300
    ~name:"equal programs share a fingerprint, across print/parse"
    (QCheck.make
       ~print:(fun (p, s) -> Prog.to_string p ^ "  [payload " ^ String.escaped s ^ "]")
       QCheck.Gen.(pair (QCheck.gen prog_gen) hostile))
    (fun (p, s) ->
      let p =
        List.fold_left
          (fun p (path, ty) ->
            match ty with Ty.Str _ -> Prog.set p path (Value.Vstr s) | _ -> p)
          p (Prog.mutable_nodes p)
      in
      let copy = Array.map (fun c -> { c with Prog.args = List.map Fun.id c.Prog.args }) p in
      same_fingerprint p copy
      &&
      match Parser.program db (Prog.to_string p) with
      | Ok p' -> Prog.equal p p' && same_fingerprint p p'
      | Error _ -> false)

(* Any single leaf edit moves the fingerprint: values that differ only in
   their constructor, a string's bytes or a list's shape must not alias. *)
let test_fingerprint_separates () =
  let p = Gen.program (Rng.create 11) db () in
  let leaves =
    List.filter_map
      (fun (path, (ty : Ty.t)) ->
        match ty with
        | Ty.Int _ | Ty.Flags _ | Ty.Buffer _ | Ty.Str _ -> Some path
        | _ -> None)
      (Prog.arg_nodes p)
  in
  Alcotest.(check bool) "program has leaves to edit" true (leaves <> []);
  List.iter
    (fun path ->
      let edited =
        match Prog.get p path with
        | Value.Vint n -> Value.Vint (n + 1)
        | Value.Vflags n -> Value.Vflags (n lxor 1)
        | Value.Vbuf { len; seed } -> Value.Vbuf { len; seed = seed + 1 }
        | Value.Vstr s -> Value.Vstr (s ^ "\000")
        | v -> v
      in
      let p' = Prog.set p path edited in
      Alcotest.(check bool)
        (Prog.path_to_string path ^ ": fingerprint follows equality")
        (Prog.equal p p') (same_fingerprint p p'))
    leaves;
  let tag_pairs =
    [ (Value.Vint 3, Value.Vflags 3); (Value.Vlen 0, Value.Vconst 0);
      (Value.Vptr None, Value.Vstruct []); (Value.Vstr "", Value.Vstruct []);
      (Value.Vstruct [ Value.Vstruct [] ], Value.Vstruct [ Value.Vptr None ]);
      (Value.Vstr "abcdefgh", Value.Vstr "abcdefg\000h");
      (Value.Vstr "abcdefgh", Value.Vstr "abcdefgi");
      (Value.Vstr "abcdefg", Value.Vstr "bbcdefg"); (Value.Vstr "\000", Value.Vstr "\255") ]
  in
  let one_call v =
    [| { Prog.spec = (p.(0)).Prog.spec; args = [ v ] } |]
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Value.to_string a ^ " vs " ^ Value.to_string b)
        false
        (same_fingerprint (one_call a) (one_call b)))
    tag_pairs

(* One pass, no allocation but the 3-word result record. *)
let test_fingerprint_allocation () =
  let progs = Gen.corpus (Rng.create 5) db ~size:20 in
  let rounds = 500 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    List.iter (fun p -> ignore (Sys.opaque_identity (Prog.fingerprint p))) progs
  done;
  let words = Gc.minor_words () -. before in
  let calls = float_of_int (rounds * List.length progs) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per call (bound 3.01)" (words /. calls))
    true
    (words /. calls <= 3.01)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sp_syzlang"
    [
      ( "spec",
        [
          Alcotest.test_case "database" `Quick test_spec_db;
          Alcotest.test_case "dense ids" `Quick test_spec_ids_dense;
          Alcotest.test_case "producers" `Quick test_producers;
          Alcotest.test_case "duplicate rejected" `Quick test_duplicate_name_rejected;
        ] );
      ( "value",
        [
          Alcotest.test_case "minimal conforms" `Quick test_minimal_conforms;
          Alcotest.test_case "scalar views" `Quick test_scalar_views;
        ] );
      qsuite "value-props" [ prop_default_random_conform; prop_content_hash_respects_equal ];
      ( "prog",
        [
          Alcotest.test_case "arg nodes" `Quick test_arg_nodes_count;
          Alcotest.test_case "fix_lens" `Quick test_fix_lens;
          Alcotest.test_case "parser errors" `Quick test_parser_errors;
          Alcotest.test_case "fingerprint separates edits" `Quick
            test_fingerprint_separates;
          Alcotest.test_case "fingerprint allocates only its result" `Quick
            test_fingerprint_allocation;
        ] );
      qsuite "prog-props"
        [
          prop_generated_valid;
          prop_roundtrip;
          prop_roundtrip_hostile_strings;
          prop_get_set_roundtrip;
          prop_set_preserves_validity;
          prop_remove_call_valid;
          prop_insert_call_shifts_resources;
          prop_corpus_unique;
          prop_fingerprint_respects_equal;
        ];
    ]
