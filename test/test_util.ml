(* Unit and property tests for sp_util: RNG, statistics, bitsets, tables. *)

module Rng = Sp_util.Rng
module Stats = Sp_util.Stats
module Bitset = Sp_util.Bitset
module Table = Sp_util.Table

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds give different streams" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* Drawing from the child must not perturb the parent relative to a
     parent that was split but never used the child. *)
  let parent' = Rng.create 9 in
  let _child' = Rng.split parent' in
  for _ = 1 to 10 do
    ignore (Rng.bits64 child)
  done;
  check Alcotest.int64 "parent unaffected by child draws" (Rng.bits64 parent')
    (Rng.bits64 parent)

let test_rng_split_named_stable () =
  let a = Rng.create 5 and b = Rng.create 5 in
  let sa = Rng.split_named a "workers" and sb = Rng.split_named b "workers" in
  check Alcotest.int64 "same label, same stream" (Rng.bits64 sa) (Rng.bits64 sb);
  let other = Rng.split_named (Rng.create 5) "other" in
  Alcotest.(check bool) "different labels diverge" true
    (Rng.bits64 other <> Rng.bits64 (Rng.split_named (Rng.create 5) "workers"))

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "int in bounds" true (v >= 0 && v < 10);
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "int_in in bounds" true (v >= -5 && v <= 5);
    let f = Rng.float rng 2.0 in
    Alcotest.(check bool) "float in bounds" true (f >= 0.0 && f < 2.0)
  done

let test_rng_uniformity () =
  let rng = Rng.create 17 in
  let counts = Array.make 8 0 in
  let n = 16_000 in
  for _ = 1 to n do
    let i = Rng.int rng 8 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 15% of uniform" true
        (abs (c - (n / 8)) < n * 15 / 800))
    counts

let test_weighted () =
  let rng = Rng.create 23 in
  let heavy = ref 0 in
  for _ = 1 to 1000 do
    if Rng.weighted rng [ (`A, 9.0); (`B, 1.0) ] = `A then incr heavy
  done;
  Alcotest.(check bool) "weights respected" true (!heavy > 820 && !heavy < 980)

let test_weighted_non_finite () =
  (* Regression: a NaN weight used to poison the cumulative total
     ([Float.max nan 0.0] is NaN, and NaN <= 0.0 is false, so the
     positive-total guard was bypassed and the scan returned an arbitrary
     element). Non-finite weights must count as zero. *)
  let rng = Rng.create 29 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "NaN weight never drawn" true
      (Rng.weighted rng [ (`Bad, Float.nan); (`Good, 1.0) ] = `Good);
    Alcotest.(check bool) "infinite weight never drawn" true
      (Rng.weighted rng [ (`Bad, Float.infinity); (`Good, 1.0) ] = `Good);
    Alcotest.(check bool) "neg_infinity weight never drawn" true
      (Rng.weighted rng [ (`Bad, Float.neg_infinity); (`Good, 1.0) ] = `Good)
  done;
  Alcotest.check_raises "all weights non-finite"
    (Invalid_argument "Rng.weighted: no positive weight") (fun () ->
      ignore (Rng.weighted rng [ (`A, Float.nan); (`B, Float.infinity) ]))

let test_rng_int_rejection_exact () =
  (* Rejection sampling must make every residue exactly as likely: for a
     bound of the form 2^k the draw is a pure mask (never rejects), and
     for other bounds all values stay in range. The statistical check is
     [test_rng_uniformity]; here we pin the degenerate bounds. *)
  let rng = Rng.create 31 in
  for _ = 1 to 1000 do
    check Alcotest.int "bound 1 is always 0" 0 (Rng.int rng 1);
    let v = Rng.int rng 3 in
    Alcotest.(check bool) "bound 3 in range" true (v >= 0 && v < 3);
    let v = Rng.int rng max_int in
    Alcotest.(check bool) "huge bound in range" true (v >= 0)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_state_roundtrip () =
  let rng = Rng.create 37 in
  for _ = 1 to 17 do ignore (Rng.bits64 rng) done;
  let saved = Rng.state rng in
  let future = List.init 50 (fun _ -> Rng.bits64 rng) in
  let replay = Rng.of_state saved in
  check
    (Alcotest.list Alcotest.int64)
    "of_state replays the stream" future
    (List.init 50 (fun _ -> Rng.bits64 replay));
  let target = Rng.create 0 in
  Rng.set_state target saved;
  check
    (Alcotest.list Alcotest.int64)
    "set_state replays the stream" future
    (List.init 50 (fun _ -> Rng.bits64 target))

let test_sample_distinct =
  QCheck.Test.make ~count:200 ~name:"Rng.sample draws distinct elements"
    QCheck.(pair small_nat (int_bound 1000))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let arr = Array.init 30 Fun.id in
      let sampled = Rng.sample rng arr k in
      List.length (List.sort_uniq compare sampled) = List.length sampled
      && List.length sampled = min k 30)

let test_shuffle_permutation =
  QCheck.Test.make ~count:200 ~name:"Rng.shuffle is a permutation"
    QCheck.(pair (list small_int) (int_bound 1000))
    (fun (l, seed) ->
      let rng = Rng.create seed in
      let arr = Array.of_list l in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let feq = Alcotest.float 1e-9

let test_stats_basics () =
  check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "mean empty" 0.0 (Stats.mean []);
  check feq "sum" 6.0 (Stats.sum [ 1.0; 2.0; 3.0 ]);
  check feq "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check feq "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check feq "p0 is min" 1.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  check feq "p100 is max" 3.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 100.0);
  check feq "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stats_minmax () =
  let lo, hi = Stats.min_max [ 4.0; -1.0; 9.0 ] in
  check feq "min" (-1.0) lo;
  check feq "max" 9.0 hi;
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.min_max: empty list")
    (fun () -> ignore (Stats.min_max []))

let test_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile is monotone in p"
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_inclusive 100.0))
    (fun xs ->
      let p25 = Stats.percentile xs 25.0
      and p50 = Stats.percentile xs 50.0
      and p75 = Stats.percentile xs 75.0 in
      p25 <= p50 && p50 <= p75)

(* ------------------------------------------------------------------ *)
(* Bitset                                                               *)
(* ------------------------------------------------------------------ *)

let test_bitset_basics () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check bool) "mem" true (Bitset.mem s 63);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements" [ 0; 99 ] (Bitset.elements s);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index out of range") (fun () -> Bitset.add s 100)

let bitset_of_list l = Bitset.of_list 256 (List.map (fun i -> i mod 256) l)

let test_bitset_union_model =
  QCheck.Test.make ~count:300 ~name:"union_into agrees with a list model"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let sa = bitset_of_list a and sb = bitset_of_list b in
      let expected =
        List.sort_uniq compare (List.map (fun i -> i mod 256) (a @ b))
      in
      let added = Bitset.union_into ~dst:sa sb in
      Bitset.elements sa = expected
      && added
         = List.length expected
           - List.length (List.sort_uniq compare (List.map (fun i -> i mod 256) a)))

let test_bitset_diff_inter_model =
  QCheck.Test.make ~count:300 ~name:"diff/inter cardinals agree with a list model"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let norm l = List.sort_uniq compare (List.map (fun i -> i mod 256) l) in
      let la = norm a and lb = norm b in
      let sa = bitset_of_list a and sb = bitset_of_list b in
      Bitset.diff_cardinal sa sb
      = List.length (List.filter (fun x -> not (List.mem x lb)) la)
      && Bitset.inter_cardinal sa sb
         = List.length (List.filter (fun x -> List.mem x lb) la))

let test_bitset_subset =
  QCheck.Test.make ~count:300 ~name:"subset matches diff_cardinal = 0"
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let sa = bitset_of_list a and sb = bitset_of_list b in
      Bitset.subset sa sb = (Bitset.diff_cardinal sa sb = 0))

let test_bitset_copy_isolated () =
  let s = Bitset.create 16 in
  Bitset.add s 3;
  let c = Bitset.copy s in
  Bitset.add c 5;
  Alcotest.(check bool) "copy isolated" false (Bitset.mem s 5);
  Alcotest.(check bool) "copy kept contents" true (Bitset.mem c 3)

(* Full op-sequence model check against Stdlib's Set.Make(Int): every
   Bitset operation interleaved at random, the set-algebra queries
   (union_into / diff_cardinal / inter_cardinal / subset) checked against
   their mathematical definitions on the model. *)
module ISet = Set.Make (Int)

let test_bitset_model_ops =
  QCheck.Test.make ~count:300 ~name:"Bitset op sequences match an IntSet model"
    QCheck.(list (pair (int_bound 7) (int_bound 127)))
    (fun ops ->
      let n = 128 in
      let s = Bitset.create n in
      let other = Bitset.of_list n [ 3; 17; 64; 65; 127 ] in
      let other_m = ISet.of_list [ 3; 17; 64; 65; 127 ] in
      let model = ref ISet.empty in
      List.for_all
        (fun (code, v) ->
          let step_ok =
            match code with
            | 0 | 1 | 2 ->
              Bitset.add s v;
              model := ISet.add v !model;
              true
            | 3 ->
              Bitset.remove s v;
              model := ISet.remove v !model;
              true
            | 4 -> Bitset.mem s v = ISet.mem v !model
            | 5 ->
              let added = Bitset.union_into ~dst:s other in
              let union = ISet.union !model other_m in
              let grew = ISet.cardinal union - ISet.cardinal !model in
              model := union;
              added = grew
            | 6 ->
              Bitset.diff_cardinal s other
              = ISet.cardinal (ISet.diff !model other_m)
              && Bitset.inter_cardinal s other
                 = ISet.cardinal (ISet.inter !model other_m)
            | _ -> Bitset.subset s other = ISet.subset !model other_m
          in
          step_ok
          && Bitset.cardinal s = ISet.cardinal !model
          && Bitset.elements s = ISet.elements !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Stampset                                                             *)
(* ------------------------------------------------------------------ *)

module Stampset = Sp_util.Stampset

let test_stampset_basics () =
  let s = Stampset.create 100 in
  Alcotest.(check int) "capacity" 100 (Stampset.capacity s);
  Alcotest.(check bool) "empty" true (Stampset.is_empty s);
  Stampset.add s 7;
  Stampset.add s 3;
  Stampset.add s 7;
  (* idempotent *)
  Alcotest.(check int) "cardinal" 2 (Stampset.cardinal s);
  Alcotest.(check bool) "mem" true (Stampset.mem s 3);
  Alcotest.(check bool) "not mem" false (Stampset.mem s 4);
  (* insertion order via member/iter, ascending via elements *)
  Alcotest.(check int) "member 0" 7 (Stampset.member s 0);
  Alcotest.(check int) "member 1" 3 (Stampset.member s 1);
  Alcotest.(check (list int)) "elements ascending" [ 3; 7 ]
    (Stampset.elements s);
  Alcotest.(check int) "fold sums members" 10
    (Stampset.fold ( + ) s 0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stampset: index out of range") (fun () ->
      Stampset.add s 100);
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Stampset.member: bad rank") (fun () ->
      ignore (Stampset.member s 2))

let test_stampset_clear () =
  let s = Stampset.create 64 in
  for i = 0 to 63 do
    Stampset.add s i
  done;
  Stampset.clear s;
  Alcotest.(check bool) "cleared" true (Stampset.is_empty s);
  Alcotest.(check bool) "stale member gone" false (Stampset.mem s 17);
  (* a fresh generation must not resurrect pre-clear members *)
  Stampset.add s 5;
  Alcotest.(check (list int)) "only new members" [ 5 ] (Stampset.elements s);
  (* many generations: the stamp never wraps into a false positive in
     practical use *)
  for g = 0 to 1000 do
    Stampset.clear s;
    Stampset.add s (g mod 64);
    if Stampset.cardinal s <> 1 then Alcotest.fail "stale stamp leaked"
  done

(* Op-sequence model check including the stamp-clear: the O(1) clear must
   be observationally identical to emptying the model set. *)
let test_stampset_model_ops =
  QCheck.Test.make ~count:300
    ~name:"Stampset op sequences (incl. clear) match an IntSet model"
    QCheck.(list (pair (int_bound 9) (int_bound 63)))
    (fun ops ->
      let s = Stampset.create 64 in
      let model = ref ISet.empty in
      let order = ref [] in
      (* insertion order, newest first *)
      List.for_all
        (fun (code, v) ->
          let step_ok =
            match code with
            | 0 | 1 | 2 | 3 ->
              if not (ISet.mem v !model) then order := v :: !order;
              Stampset.add s v;
              model := ISet.add v !model;
              true
            | 4 | 5 -> Stampset.mem s v = ISet.mem v !model
            | 6 ->
              Stampset.clear s;
              model := ISet.empty;
              order := [];
              true
            | 7 ->
              (* to_bitset snapshots survive later mutation *)
              let b = Stampset.to_bitset s in
              let before = Bitset.elements b in
              if not (ISet.mem v !model) then order := v :: !order;
              Stampset.add s v;
              model := ISet.add v !model;
              Bitset.elements b = before
            | _ ->
              Stampset.fold (fun x acc -> acc + x) s 0
              = ISet.fold ( + ) !model 0
          in
          (* [member]/[fold] walk insertion order (oldest first) *)
          let insertion =
            List.rev (Stampset.fold (fun x acc -> x :: acc) s [])
          in
          step_ok
          && Stampset.cardinal s = ISet.cardinal !model
          && Stampset.elements s = ISet.elements !model
          && Stampset.is_empty s = ISet.is_empty !model
          && insertion = List.rev !order
          && List.mapi (fun k _ -> Stampset.member s k) insertion = insertion)
        ops)

let test_stampset_to_bitset =
  QCheck.Test.make ~count:200 ~name:"Stampset.to_bitset is a faithful snapshot"
    QCheck.(list (int_bound 99))
    (fun xs ->
      let s = Stampset.create 100 in
      List.iter (Stampset.add s) xs;
      let b = Stampset.to_bitset s in
      Bitset.elements b = Stampset.elements s
      && Bitset.cardinal b = Stampset.cardinal s)

(* ------------------------------------------------------------------ *)
(* Fqueue                                                               *)
(* ------------------------------------------------------------------ *)

module Fqueue = Sp_util.Fqueue

let test_fqueue_fifo () =
  let q = Fqueue.create () in
  Alcotest.(check bool) "empty" true (Fqueue.is_empty q);
  Alcotest.(check (option int)) "pop empty" None (Fqueue.pop_opt q);
  List.iter (Fqueue.push q) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Fqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Fqueue.peek_opt q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Fqueue.pop_opt q);
  Fqueue.push q 4;
  Alcotest.(check (list int)) "order preserved" [ 2; 3; 4 ] (Fqueue.to_list q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Fqueue.pop_opt q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Fqueue.pop_opt q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Fqueue.pop_opt q);
  Alcotest.(check bool) "drained" true (Fqueue.is_empty q)

let test_fqueue_partition () =
  let q = Fqueue.of_list [ 1; 2; 3; 4; 5; 6 ] in
  let evens = Fqueue.partition (fun x -> x mod 2 = 0) q in
  Alcotest.(check (list int)) "removed in order" [ 2; 4; 6 ] evens;
  Alcotest.(check (list int)) "kept in order" [ 1; 3; 5 ] (Fqueue.to_list q);
  Alcotest.(check int) "length updated" 3 (Fqueue.length q)

let test_fqueue_model =
  QCheck.Test.make ~count:300 ~name:"Fqueue behaves like a list queue"
    QCheck.(list (int_bound 2))
    (fun ops ->
      (* op 0 = pop, op >0 = push op *)
      let q = Fqueue.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          if op = 0 then begin
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                model := rest;
                Some x
            in
            Fqueue.pop_opt q = expect
          end
          else begin
            Fqueue.push q op;
            model := !model @ [ op ];
            true
          end
          && Fqueue.to_list q = !model
          && Fqueue.length q = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Lru                                                                  *)
(* ------------------------------------------------------------------ *)

module Lru = Sp_util.Lru

let test_lru_bounded () =
  let c = Lru.create ~capacity:3 () in
  for i = 1 to 10 do
    Lru.put c ~now:0.0 i (i * 10)
  done;
  Alcotest.(check int) "bounded by capacity" 3 (Lru.length c);
  Alcotest.(check int) "evictions counted" 7 (Lru.evictions c);
  (* the three most recent survive *)
  Alcotest.(check (option int)) "recent kept" (Some 100) (Lru.find c ~now:0.0 10);
  Alcotest.(check (option int)) "old evicted" None (Lru.find c ~now:0.0 1)

let test_lru_recency () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c ~now:0.0 "a" 1;
  Lru.put c ~now:0.0 "b" 2;
  (* touching "a" makes "b" the LRU victim *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c ~now:0.0 "a");
  Lru.put c ~now:0.0 "c" 3;
  Alcotest.(check (option int)) "a survived" (Some 1) (Lru.find c ~now:0.0 "a");
  Alcotest.(check (option int)) "b evicted" None (Lru.find c ~now:0.0 "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c ~now:0.0 "c")

let test_lru_ttl () =
  let c = Lru.create ~ttl:10.0 ~capacity:8 () in
  Lru.put c ~now:0.0 "k" 1;
  Alcotest.(check (option int)) "fresh" (Some 1) (Lru.find c ~now:9.9 "k");
  (* a hit refreshes recency, not the TTL stamp *)
  Alcotest.(check (option int)) "expired" None (Lru.find c ~now:10.1 "k");
  Alcotest.(check int) "expiration counted" 1 (Lru.expirations c);
  Alcotest.(check int) "dropped from table" 0 (Lru.length c);
  (* re-put resets the stamp *)
  Lru.put c ~now:20.0 "k" 2;
  Alcotest.(check (option int)) "fresh again" (Some 2) (Lru.find c ~now:29.0 "k")

let test_lru_to_list () =
  let c = Lru.create ~ttl:100.0 ~capacity:4 () in
  Lru.put c ~now:1.0 "a" 1;
  Lru.put c ~now:2.0 "b" 2;
  Lru.put c ~now:3.0 "c" 3;
  (* touching "a" promotes it to MRU without changing its TTL stamp *)
  Alcotest.(check (option int)) "touch a" (Some 1) (Lru.find c ~now:3.0 "a");
  Alcotest.(check (list (triple string int (float 0.0))))
    "MRU-first with write stamps"
    [ ("a", 1, 1.0); ("c", 3, 3.0); ("b", 2, 2.0) ]
    (Lru.to_list c);
  (* replaying oldest-first at the recorded stamps rebuilds an
     equivalent cache — the snapshot restore path *)
  let c' = Lru.create ~ttl:100.0 ~capacity:4 () in
  List.iter
    (fun (k, v, at) -> Lru.put c' ~now:at k v)
    (List.rev (Lru.to_list c));
  Alcotest.(check (list (triple string int (float 0.0))))
    "replay reconstructs order and stamps" (Lru.to_list c) (Lru.to_list c')

let test_lru_validation () =
  Alcotest.check_raises "capacity checked"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Lru.create ~capacity:0 () : (int, int) Lru.t));
  Alcotest.check_raises "ttl checked"
    (Invalid_argument "Lru.create: ttl must be positive") (fun () ->
      ignore (Lru.create ~ttl:0.0 ~capacity:1 () : (int, int) Lru.t))

let test_lru_model =
  QCheck.Test.make ~count:200 ~name:"Lru.length never exceeds capacity"
    QCheck.(list (pair (int_bound 30) (int_bound 100)))
    (fun kvs ->
      let c = Lru.create ~capacity:7 () in
      List.for_all
        (fun (k, v) ->
          Lru.put c ~now:0.0 k v;
          Lru.length c <= 7 && Lru.find c ~now:0.0 k = Some v)
        kvs)

(* Full op-sequence model check: every queue operation interleaved at
   random, each step compared against a naive list reference. *)
let test_fqueue_model_ops =
  QCheck.Test.make ~count:300 ~name:"Fqueue op sequences match list model"
    QCheck.(list (pair (int_bound 9) (int_bound 50)))
    (fun ops ->
      let q = Fqueue.create () in
      let model = ref [] in
      List.for_all
        (fun (code, v) ->
          let step_ok =
            match code with
            | 0 | 1 | 2 | 3 | 4 ->
              Fqueue.push q v;
              model := !model @ [ v ];
              true
            | 5 ->
              let expect =
                match !model with
                | [] -> None
                | x :: rest ->
                  model := rest;
                  Some x
              in
              Fqueue.pop_opt q = expect
            | 6 ->
              Fqueue.peek_opt q
              = (match !model with [] -> None | x :: _ -> Some x)
            | 7 ->
              let keep x = x mod 3 <> v mod 3 in
              let removed = Fqueue.partition (fun x -> not (keep x)) q in
              let expect_removed = List.filter (fun x -> not (keep x)) !model in
              model := List.filter keep !model;
              removed = expect_removed
            | 8 ->
              Fqueue.fold (fun acc x -> acc + x) 0 q
              = List.fold_left ( + ) 0 !model
            | _ ->
              Fqueue.clear q;
              model := [];
              true
          in
          step_ok
          && Fqueue.to_list q = !model
          && Fqueue.length q = List.length !model)
        ops)

(* Reference LRU: assoc list in MRU -> LRU order carrying write stamps.
   Mirrors the documented semantics — a find refreshes recency but not
   the TTL stamp; eviction takes the recency tail regardless of
   freshness; expiry is strict (now - written > ttl). *)
module Lru_model = struct
  type t = (int * (int * float)) list ref  (* key -> value, written_at *)

  let ttl = 10.0

  let capacity = 4

  let find (m : t) ~now k =
    match List.assoc_opt k !m with
    | None -> None
    | Some (v, written) ->
      if now -. written > ttl then begin
        m := List.remove_assoc k !m;
        None
      end
      else begin
        m := (k, (v, written)) :: List.remove_assoc k !m;
        Some v
      end

  let put (m : t) ~now k v =
    if List.mem_assoc k !m then m := (k, (v, now)) :: List.remove_assoc k !m
    else begin
      let kept =
        if List.length !m >= capacity then
          (* drop the recency tail (last element) *)
          List.filteri (fun i _ -> i < List.length !m - 1) !m
        else !m
      in
      m := (k, (v, now)) :: kept
    end

  let remove (m : t) k = m := List.remove_assoc k !m
end

let test_lru_model_ops =
  QCheck.Test.make ~count:300
    ~name:"Lru op sequences (find/put/remove/TTL/evict) match assoc model"
    QCheck.(
      list
        (quad (int_bound 5) (int_bound 8) (int_bound 100) (int_bound 4)))
    (fun ops ->
      let c = Lru.create ~ttl:Lru_model.ttl ~capacity:Lru_model.capacity () in
      let m : Lru_model.t = ref [] in
      let now = ref 0.0 in
      List.for_all
        (fun (code, k, v, dt) ->
          now := !now +. float_of_int dt;
          let step_ok =
            match code with
            | 0 | 1 ->
              Lru.put c ~now:!now k v;
              Lru_model.put m ~now:!now k v;
              true
            | 2 | 3 -> Lru.find c ~now:!now k = Lru_model.find m ~now:!now k
            | 4 ->
              Lru.remove c k;
              Lru_model.remove m k;
              true
            | _ -> true (* pure time advance *)
          in
          step_ok
          && Lru.length c = List.length !m
          && Lru.length c <= Lru_model.capacity)
        ops)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

module Metrics = Sp_util.Metrics

let test_metrics_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "unknown is zero" 0 (Metrics.counter m "x");
  Metrics.incr m "x";
  Metrics.incr m "x" ~by:4;
  Metrics.incr m "y";
  Alcotest.(check int) "accumulates" 5 (Metrics.counter m "x");
  Alcotest.(check (list (pair string int))) "sorted listing"
    [ ("x", 5); ("y", 1) ] (Metrics.counters m)

let test_metrics_histogram () =
  let m = Metrics.create () in
  Alcotest.(check bool) "no summary before observations" true
    (Metrics.summary m "lat" = None);
  for i = 1 to 100 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.summary m "lat" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 5050.0 s.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
    Alcotest.(check bool) "median near middle" true (s.Metrics.p50 > 40.0 && s.Metrics.p50 < 60.0);
    Alcotest.(check bool) "p99 near top" true (s.Metrics.p99 > 90.0)

let test_metrics_reservoir_bounded () =
  (* far more observations than the reservoir holds: moments stay exact,
     percentiles stay sane, memory stays constant *)
  let m = Metrics.create () in
  let n = 50_000 in
  for i = 1 to n do
    Metrics.observe m "big" (float_of_int i)
  done;
  match Metrics.summary m "big" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
    Alcotest.(check int) "exact count" n s.Metrics.count;
    Alcotest.(check (float 1e-6)) "exact max" (float_of_int n) s.Metrics.max;
    Alcotest.(check bool) "sampled p50 within 10%" true
      (s.Metrics.p50 > 0.4 *. float_of_int n && s.Metrics.p50 < 0.6 *. float_of_int n)

let test_metrics_time_and_render () =
  let m = Metrics.create () in
  let v = Metrics.time_wall m "work" (fun () -> 42) in
  Alcotest.(check int) "thunk result returned" 42 v;
  (match Metrics.summary m "work" with
  | Some s -> Alcotest.(check int) "timed once" 1 s.Metrics.count
  | None -> Alcotest.fail "timer not recorded");
  Metrics.incr m "n";
  let out = Metrics.render m in
  let contains_line prefix =
    String.split_on_char '\n' out
    |> List.exists (fun l ->
           String.length l >= String.length prefix
           && String.sub (String.trim l) 0
                (min (String.length prefix) (String.length (String.trim l)))
              = prefix)
  in
  Alcotest.(check bool) "render mentions counter" true (contains_line "n");
  Alcotest.(check bool) "render mentions timer" true (contains_line "work");
  Metrics.reset m;
  Alcotest.(check int) "reset clears" 0 (Metrics.counter m "n")

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c" ~by:2;
  Metrics.incr b "c" ~by:3;
  Metrics.observe b "h" 1.0;
  Metrics.merge_into ~dst:a b;
  Alcotest.(check int) "counters merged" 5 (Metrics.counter a "c");
  match Metrics.summary a "h" with
  | Some s -> Alcotest.(check int) "observations merged" 1 s.Metrics.count
  | None -> Alcotest.fail "histogram not merged"

(* The campaign's barrier merge relies on this: folding per-shard
   registries into an empty one in shard order must be indistinguishable
   from having recorded every event directly, no matter how the events
   were batched across shards. With fewer observations than the reservoir
   size the merge replays every sample in order, so counters AND every
   summary field (moments and percentiles) must match bitwise. *)
let test_metrics_merge_batching_invariant =
  let shard_gen =
    QCheck.Gen.(
      list_size (int_range 1 5)
        (pair
           (list_size (int_range 0 20) (float_bound_exclusive 100.0))
           (int_range 0 10)))
  in
  QCheck.Test.make ~count:100
    ~name:"merge_into in shard order == direct observation"
    (QCheck.make shard_gen) (fun shards ->
      let direct = Metrics.create () in
      List.iter
        (fun (obs, c) ->
          List.iter (fun v -> Metrics.observe direct "h" v) obs;
          Metrics.incr direct "c" ~by:c)
        shards;
      let merged = Metrics.create () in
      List.iter
        (fun (obs, c) ->
          let shard = Metrics.create () in
          List.iter (fun v -> Metrics.observe shard "h" v) obs;
          Metrics.incr shard "c" ~by:c;
          Metrics.merge_into ~dst:merged shard)
        shards;
      Metrics.counter merged "c" = Metrics.counter direct "c"
      && Metrics.counters merged = Metrics.counters direct
      &&
      match (Metrics.summary merged "h", Metrics.summary direct "h") with
      | None, None -> true
      | Some m, Some d ->
        m.Metrics.count = d.Metrics.count
        && Float.equal m.Metrics.sum d.Metrics.sum
        && Float.equal m.Metrics.mean d.Metrics.mean
        && Float.equal m.Metrics.min d.Metrics.min
        && Float.equal m.Metrics.max d.Metrics.max
        && Float.equal m.Metrics.p50 d.Metrics.p50
        && Float.equal m.Metrics.p90 d.Metrics.p90
        && Float.equal m.Metrics.p99 d.Metrics.p99
      | _ -> false)

(* Past the reservoir size the merge must still add count, sum, min and
   max exactly: the report's merged histograms (vm.exec_wall_s over a
   multi-hour campaign) otherwise show n=1024 for ~10^5 executions. *)
let test_metrics_merge_exact () =
  let big = Metrics.create () and small = Metrics.create () in
  for i = 1 to 5_000 do
    Metrics.observe big "h" (float_of_int i)
  done;
  for i = 5_001 to 5_100 do
    Metrics.observe small "h" (float_of_int i)
  done;
  let merged = Metrics.create () in
  Metrics.merge_into ~dst:merged big;
  Metrics.merge_into ~dst:merged small;
  let count r = match Metrics.summary r "h" with Some s -> s.Metrics.count | None -> 0 in
  match Metrics.summary merged "h" with
  | None -> Alcotest.fail "histogram not merged"
  | Some s ->
    Alcotest.(check int) "merged count = sum of counts" (count big + count small)
      s.Metrics.count;
    Alcotest.(check (float 0.0)) "exact sum" (5100.0 *. 5101.0 /. 2.0) s.Metrics.sum;
    Alcotest.(check (float 0.0)) "exact min" 1.0 s.Metrics.min;
    Alcotest.(check (float 0.0)) "exact max" 5100.0 s.Metrics.max;
    Alcotest.(check bool) "sampled p50 near the middle" true
      (s.Metrics.p50 > 0.4 *. 5100.0 && s.Metrics.p50 < 0.6 *. 5100.0);
    (* A merged registry merges on exactly, as the scheduler folds the
       campaign's report registry into its own. *)
    let again = Metrics.create () in
    Metrics.merge_into ~dst:again merged;
    Alcotest.(check int) "merging a merged registry keeps the count" 5_100
      (count again)

(* ------------------------------------------------------------------ *)
(* Fpset                                                                *)
(* ------------------------------------------------------------------ *)

module Fpset = Sp_util.Fpset

type fp_op = Add of int * int | Mem of int * int | Clear

(* Keys from a small pool collide in the probe sequence and repeat, so
   growth, re-insertion and the (0, 0) key are all exercised; the pool
   includes negative halves, which sort above every non-negative one. *)
let fp_op_gen =
  let half = QCheck.Gen.oneofl [ 0; 1; 2; 17; -1; min_int; max_int; 1 lsl 40 ] in
  let key = QCheck.Gen.(pair half (oneof [ half; int_bound 300 ])) in
  QCheck.Gen.(
    frequency
      [ (12, map (fun (a, b) -> Add (a, b)) key);
        (6, map (fun (a, b) -> Mem (a, b)) key);
        (1, return Clear) ])

let unsigned_order (a, b) (c, d) =
  match Int.compare (a lxor min_int) (c lxor min_int) with
  | 0 -> Int.compare (b lxor min_int) (d lxor min_int)
  | n -> n

let test_fpset_model =
  QCheck.Test.make ~count:300 ~name:"Fpset op sequences match a Hashtbl model"
    QCheck.(make QCheck.Gen.(list_size (int_range 0 400) fp_op_gen))
    (fun ops ->
      let set = Fpset.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Add (hi, lo) ->
            let fresh = not (Hashtbl.mem model (hi, lo)) in
            Hashtbl.replace model (hi, lo) ();
            Fpset.add set hi lo = fresh
          | Mem (hi, lo) -> Fpset.mem set hi lo = Hashtbl.mem model (hi, lo)
          | Clear ->
            Hashtbl.reset model;
            Fpset.clear set;
            true)
          && Fpset.length set = Hashtbl.length model)
        ops
      &&
      let dumped = ref [] in
      Fpset.iter_sorted (fun hi lo -> dumped := (hi, lo) :: !dumped) set;
      List.rev !dumped
      = List.sort unsigned_order (Hashtbl.fold (fun k () acc -> k :: acc) model []))

let test_fpset_hex =
  QCheck.Test.make ~count:500 ~name:"Fpset hex text round-trips and sorts numerically"
    QCheck.(pair (pair int int) (pair int int))
    (fun ((a, b), (c, d)) ->
      let x = Fpset.to_hex a b and y = Fpset.to_hex c d in
      String.length x = 32
      && Fpset.of_hex x = Some (a, b)
      && compare (String.compare x y) 0 = compare (unsigned_order (a, b) (c, d)) 0)

let test_fpset_hex_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (Fpset.of_hex s = None))
    [ ""; String.make 31 '0'; String.make 33 '0';
      "8" ^ String.make 31 '0';  (* first half past 63 bits *)
      String.make 16 '0' ^ "f" ^ String.make 15 '0';
      String.make 31 '0' ^ "A"; String.make 31 '0' ^ "g";
      "0_" ^ String.make 30 '0'; "0x" ^ String.make 30 '0' ];
  Alcotest.(check bool) "largest pair accepted" true
    (Fpset.of_hex ("7" ^ String.make 15 'f' ^ "7" ^ String.make 15 'f') = Some (-1, -1))

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.create ~title:"T" ~header:[ "name"; "value" ] () in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "beta"; "23" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* all lines equally wide *)
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> l <> "" && l <> "T")
    |> List.map String.length
  in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Table.add_row t [ "only one" ])

(* ------------------------------------------------------------------ *)
(* Ascii_plot                                                           *)
(* ------------------------------------------------------------------ *)

module Plot = Sp_util.Ascii_plot

let test_plot_renders () =
  let s1 =
    Plot.series ~label:"a" ~glyph:'a'
      [ (0.0, 0.0); (1.0, 10.0); (2.0, 20.0) ]
  in
  let s2 =
    Plot.series ~label:"b" ~glyph:'b'
      ~band:[ (0.0, 0.0, 5.0); (1.0, 5.0, 15.0) ]
      [ (0.0, 2.0); (1.0, 12.0) ]
  in
  let out = Plot.render ~title:"plot" ~x_label:"x" ~y_label:"y" [ s1; s2 ] in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  Alcotest.(check bool) "glyph a plotted" true (String.contains out 'a');
  Alcotest.(check bool) "glyph b plotted" true (String.contains out 'b');
  Alcotest.(check bool) "band shading present" true (String.contains out '.');
  Alcotest.(check bool) "legend present" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.exists (fun l -> l = "  a = a" || l = "  b = b (band: min..max shown as '.')") lines)

let utf8_length s =
  (* glyph count, not byte count: sparkline cells are multi-byte blocks *)
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let test_sparkline_edge_cases () =
  Alcotest.(check string) "empty input" "" (Plot.sparkline [||]);
  Alcotest.(check string) "all non-finite is empty" ""
    (Plot.sparkline [| Float.nan; Float.infinity; Float.neg_infinity |]);
  (* Constant series: a flat mid-height bar, one cell per value. *)
  let flat = Plot.sparkline ~ascii:true [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check string) "constant is a flat mid bar" "===" flat;
  (* NaN values are dropped, not plotted as cells. *)
  Alcotest.(check string) "nan filtered"
    (Plot.sparkline ~ascii:true [| 1.0; 3.0 |])
    (Plot.sparkline ~ascii:true [| 1.0; Float.nan; 3.0 |]);
  (* Monotone ramp hits the extreme glyphs at both ends. *)
  let ramp = Plot.sparkline ~ascii:true [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 |] in
  Alcotest.(check char) "ramp starts at min glyph" '.' ramp.[0];
  Alcotest.(check char) "ramp ends at max glyph" '@' ramp.[String.length ramp - 1]

let test_sparkline_resample () =
  let long = Array.init 1000 (fun i -> float_of_int i) in
  Alcotest.(check int) "default width caps cells" 64
    (utf8_length (Plot.sparkline long));
  Alcotest.(check int) "custom width respected" 8
    (String.length (Plot.sparkline ~ascii:true ~max_width:8 long));
  Alcotest.(check int) "short series keeps one cell per value" 3
    (utf8_length (Plot.sparkline [| 1.0; 2.0; 3.0 |]));
  (* Bucket-mean resampling preserves monotone shape end to end. *)
  let s = Plot.sparkline ~ascii:true ~max_width:8 long in
  Alcotest.(check char) "resampled min end" '.' s.[0];
  Alcotest.(check char) "resampled max end" '@' s.[String.length s - 1]

let test_plot_degenerate () =
  (* single point, flat series: must not crash or divide by zero *)
  let s = Plot.series ~label:"p" ~glyph:'p' [ (1.0, 5.0) ] in
  Alcotest.(check bool) "renders" true
    (String.length (Plot.render ~title:"t" [ s ]) > 0);
  Alcotest.(check bool) "empty series renders" true
    (String.length (Plot.render ~title:"t" [ Plot.series ~label:"e" ~glyph:'e' [] ]) > 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split_named stability" `Quick test_rng_split_named_stable;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "weighted" `Quick test_weighted;
          Alcotest.test_case "weighted ignores non-finite weights" `Quick
            test_weighted_non_finite;
          Alcotest.test_case "int rejection sampling" `Quick
            test_rng_int_rejection_exact;
          Alcotest.test_case "state round-trip" `Quick test_rng_state_roundtrip;
        ] );
      qsuite "rng-props" [ test_sample_distinct; test_shuffle_permutation ];
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "min_max" `Quick test_stats_minmax;
        ] );
      qsuite "stats-props" [ test_percentile_monotone ];
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "copy isolation" `Quick test_bitset_copy_isolated;
        ] );
      qsuite "bitset-props"
        [
          test_bitset_union_model;
          test_bitset_diff_inter_model;
          test_bitset_subset;
          test_bitset_model_ops;
        ];
      ( "stampset",
        [
          Alcotest.test_case "basics" `Quick test_stampset_basics;
          Alcotest.test_case "stamp clear" `Quick test_stampset_clear;
        ] );
      qsuite "stampset-props" [ test_stampset_model_ops; test_stampset_to_bitset ];
      ( "fqueue",
        [
          Alcotest.test_case "fifo order" `Quick test_fqueue_fifo;
          Alcotest.test_case "partition" `Quick test_fqueue_partition;
        ] );
      qsuite "fqueue-props" [ test_fqueue_model; test_fqueue_model_ops ];
      ( "lru",
        [
          Alcotest.test_case "bounded" `Quick test_lru_bounded;
          Alcotest.test_case "recency order" `Quick test_lru_recency;
          Alcotest.test_case "ttl expiry" `Quick test_lru_ttl;
          Alcotest.test_case "to_list order and replay" `Quick
            test_lru_to_list;
          Alcotest.test_case "validation" `Quick test_lru_validation;
        ] );
      qsuite "lru-props" [ test_lru_model; test_lru_model_ops ];
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram summary" `Quick test_metrics_histogram;
          Alcotest.test_case "reservoir bounded" `Quick test_metrics_reservoir_bounded;
          Alcotest.test_case "time and render" `Quick test_metrics_time_and_render;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "merge past the reservoir is exact" `Quick
            test_metrics_merge_exact;
        ] );
      qsuite "metrics-props" [ test_metrics_merge_batching_invariant ];
      ( "fpset",
        [ Alcotest.test_case "malformed hex rejected" `Quick test_fpset_hex_rejects ] );
      qsuite "fpset-props" [ test_fpset_model; test_fpset_hex ];
      ( "table",
        [
          Alcotest.test_case "renders aligned" `Quick test_table_renders;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        ] );
      ( "plot",
        [
          Alcotest.test_case "renders series, bands, legend" `Quick test_plot_renders;
          Alcotest.test_case "sparkline edge cases" `Quick test_sparkline_edge_cases;
          Alcotest.test_case "sparkline resampling" `Quick test_sparkline_resample;
          Alcotest.test_case "degenerate input" `Quick test_plot_degenerate;
        ] );
    ]
