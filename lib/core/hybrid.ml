module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Kernel = Sp_kernel.Kernel
module Prog = Sp_syzlang.Prog
module Engine = Sp_mutation.Engine
module Strategy = Sp_fuzz.Strategy
module Corpus = Sp_fuzz.Corpus

let guided_mutants rng engine base paths ~per_arg =
  match paths with
  | [] -> []
  | _ ->
    (* One mutant per predicted argument (times [per_arg]), each changing a
       single argument so the path prefix the base already satisfies stays
       intact. *)
    let arr = Array.of_list paths in
    let n = per_arg * Array.length arr in
    List.init n (fun i ->
        let chosen = [ arr.(i mod Array.length arr) ] in
        let prog = Engine.mutate_args_at engine rng base chosen in
        { Strategy.prog; origin = "pmm-arg" })

let pick_targets _rng kernel ~covered (entry : Corpus.entry) ~max_targets =
  let frontier =
    Sp_cfg.Cfg.frontier (Kernel.cfg kernel) ~covered:entry.Corpus.blocks
  in
  let uncovered_entries =
    List.filter_map
      (fun (blk, _via) -> if Bitset.mem covered blk then None else Some blk)
      frontier
  in
  (* Deterministic pseudo-random subset: the same base against the same
     campaign frontier always queries the same targets, so the inference
     cache only recomputes when the frontier actually changes. *)
  let h = Prog.hash entry.Corpus.prog in
  List.sort
    (fun a b -> compare (Hashtbl.hash (a lxor h)) (Hashtbl.hash (b lxor h)))
    uncovered_entries
  |> List.filteri (fun i _ -> i < max_targets)

(* Delivered predictions, keyed by the base program's fingerprint.
   Bounded (LRU, no TTL — recency alone bounds it). The LRU clock is
   irrelevant without a TTL, so lookups pass now = 0. *)
type predictions = (Prog.fingerprint, Prog.path list) Sp_util.Lru.t

let make_predictions () : predictions = Sp_util.Lru.create ~capacity:4096 ()

let predictions_json (p : predictions) =
  Codec.lru_to_json ~key_to_json:Codec.fingerprint_to_json
    ~value_to_json:Codec.paths_to_json p

let restore_predictions (p : predictions) j =
  Codec.lru_restore
    ~key_of_json:(Codec.fingerprint_of_json "prediction key")
    ~value_of_json:Codec.paths_of_json p j

(* Snowplow is Syzkaller with the argument-mutation localizer swapped out
   (§3.4): mutation-type selection, insertion, removal, splicing and their
   relative volumes are untouched. When the selector picks
   ARGUMENT_MUTATION and a PMM prediction for the base test has been
   delivered, the mutation lands on a predicted argument; until the
   (asynchronous) prediction arrives, the stock random localizer acts as
   the fallback. *)
let strategy_with ?(mutations_per_base = 8) ?(max_targets = 40) ?insertion
    ?predictions ?degraded ~endpoint kernel =
  let db = Kernel.spec_db kernel in
  let predictions =
    match predictions with Some p -> p | None -> make_predictions ()
  in
  let find_prediction prog =
    Sp_util.Lru.find predictions ~now:0.0 (Prog.fingerprint prog)
  in
  let random_localizer = Engine.syzkaller_arg_localizer () in
  let arg_localizer rng prog =
    match find_prediction prog with
    | Some (_ :: _ as paths) when Rng.coin rng 0.85 ->
      let predicted = Rng.choose_list rng paths in
      (* Pairing the predicted argument with one random argument keeps the
         mutant space large (small flag/enum spaces exhaust quickly when
         the same argument is hammered alone) at negligible risk to the
         satisfied path prefix. *)
      if Rng.bool rng then [ predicted ]
      else begin
        match random_localizer rng prog with
        | other :: _ when Prog.path_compare other predicted <> 0 ->
          [ predicted; other ]
        | _ -> [ predicted ]
      end
    | Some _ | None -> random_localizer rng prog
  in
  let engine =
    Engine.create
      ~selector:(Engine.syzkaller_selector ~splice:true ())
      ~arg_localizer db
  in
  (* Optional sec.-6 extension: when an insertion model is supplied, new
     calls are drawn from its top predictions instead of uniformly. *)
  let guided_insert rng ~covered base =
    match insertion with
    | None -> None
    | Some model ->
      let choices = Insertion.top_k model ~covered base ~k:4 in
      let sys = Rng.choose_list rng choices in
      let call = Sp_syzlang.Gen.call rng db (Sp_syzlang.Spec.by_id db sys) in
      let pos = Rng.int rng (Array.length base + 1) in
      let prog =
        Sp_syzlang.Gen.wire_resources rng db (Prog.insert_call base pos call)
      in
      if Array.length prog > 12 then None
      else Some { Strategy.prog; origin = "learned-insert" }
  in
  let propose rng ~now ~covered corpus (entry : Corpus.entry) =
    List.iter
      (fun (fp, paths) -> Sp_util.Lru.put predictions ~now:0.0 fp paths)
      (endpoint.Inference.ep_poll ~now);
    (* While the inference lane is degraded (breaker open), skip target
       selection and the request entirely: the endpoint would refuse it
       anyway, and not drawing from the RNG here keeps the degraded
       stream a pure function of the (deterministic) degradation signal.
       Already-delivered predictions keep guiding; new bases fall back to
       the stock random localizer — the graceful half of degradation. *)
    (match degraded with
    | Some d when d () -> ()
    | _ ->
        let targets = pick_targets rng kernel ~covered entry ~max_targets in
        if targets <> [] then
          ignore (endpoint.Inference.ep_request ~now entry.Corpus.prog ~targets));
    let guided = find_prediction entry.Corpus.prog <> None in
    List.init mutations_per_base (fun _ ->
        let donor =
          if Corpus.size corpus > 1 && Rng.coin rng 0.2 then
            Some (Corpus.choose rng corpus).Corpus.prog
          else None
        in
        let prog, applied = Engine.mutate engine rng ?donor entry.Corpus.prog in
        match applied with
        | Engine.No_change -> None
        | Engine.Mutated_args _ ->
          Some { Strategy.prog; origin = (if guided then "pmm-arg" else "arg") }
        | Engine.Inserted_call _ -> (
          match guided_insert rng ~covered entry.Corpus.prog with
          | Some p when Rng.coin rng 0.7 -> Some p
          | _ -> Some { Strategy.prog; origin = "insert" })
        | Engine.Removed_call _ -> Some { Strategy.prog; origin = "remove" }
        | Engine.Spliced _ -> Some { Strategy.prog; origin = "splice" })
    |> List.filter_map Fun.id
  in
  { Strategy.name = "Snowplow"; throughput_factor = 383.0 /. 390.0; propose }

let strategy ?mutations_per_base ?max_targets ?insertion ~inference kernel =
  strategy_with ?mutations_per_base ?max_targets ?insertion
    ~endpoint:(Inference.endpoint inference) kernel
