module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Fpset = Sp_util.Fpset
module Kernel = Sp_kernel.Kernel
module Prog = Sp_syzlang.Prog
module Engine = Sp_mutation.Engine

type example = {
  base : Prog.t;
  exec : Kernel.result;
  mutated_args : Prog.path list;
  new_blocks : int list;
  targets : int list;
  graph : Query_graph.t;
  prepared : Pmm.prepared;
  labels : float array;
}

type config = {
  mutations_per_base : int;
  max_args_per_mutation : int;
  popularity_cap : int;
  max_examples_per_base : int;
  noise : float;  (* executor nondeterminism (ablation of §3.1's controls) *)
  exact_targets : bool;  (* ablation: §3.1 design option (a) instead of (c) *)
  drop_edges : Query_graph.edge_kind list;  (* representation ablations *)
  seed : int;
}

let default_config =
  {
    mutations_per_base = 500;
    max_args_per_mutation = 1;
    popularity_cap = 60;
    max_examples_per_base = 6;
    noise = 0.0;
    exact_targets = false;
    drop_edges = [];
    seed = 5;
  }

type split = { train : example array; valid : example array; eval : example array }

let path_key (p : Prog.path) = (p.Prog.call, p.Prog.arg)

let execute config rng kernel prog =
  if config.noise > 0.0 then Kernel.execute ~noise:(rng, config.noise) kernel prog
  else Kernel.execute kernel prog

(* Successful raw samples for one base: (localized paths, new blocks). *)
let raw_samples config rng kernel engine base (base_exec : Kernel.result) =
  let seen = Fpset.create () in
  let unseen prog =
    let fp = Prog.fingerprint prog in
    Fpset.add seen fp.Prog.fp_hi fp.Prog.fp_lo
  in
  ignore (unseen base);
  let localizer = Engine.syzkaller_arg_localizer ~max_args:config.max_args_per_mutation () in
  let samples = ref [] in
  for _j = 1 to config.mutations_per_base do
    match localizer rng base with
    | [] -> ()
    | paths ->
      let mutant = Engine.mutate_args_at engine rng base paths in
      if unseen mutant then begin
        let r = execute config rng kernel mutant in
        if r.Kernel.crash = None then begin
          let fresh = ref [] in
          Bitset.iter
            (fun b ->
              if not (Bitset.mem base_exec.Kernel.covered b) then fresh := b :: !fresh)
            r.Kernel.covered;
          if !fresh <> [] then samples := (paths, List.rev !fresh) :: !samples
        end
      end
  done;
  List.rev !samples

(* Merge samples with identical new coverage: their localizations all led
   to the same behaviour change, so they form one example with the union of
   argument sets (§3.1). *)
let merge_samples samples =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (paths, fresh) ->
      let key = List.sort compare fresh in
      match Hashtbl.find_opt tbl key with
      | Some existing ->
        let merged =
          List.sort_uniq
            (fun a b -> compare (path_key a) (path_key b))
            (paths @ existing)
        in
        Hashtbl.replace tbl key merged
      | None ->
        Hashtbl.add tbl key paths;
        order := key :: !order)
    samples;
  List.rev_map (fun key -> (Hashtbl.find tbl key, key)) !order |> List.rev

(* Target synthesis, design option (c) of §3.1: a sample of the frontier
   guaranteed to overlap the really-reachable new blocks. *)
let synthesize_targets config rng ~frontier ~fresh =
  let frontier_set = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace frontier_set b ()) frontier;
  let real = List.filter (fun b -> Hashtbl.mem frontier_set b) fresh in
  match real with
  | [] -> None
  | _ when config.exact_targets ->
    (* Design option (a): exactly the new coverage, no frontier noise. *)
    Some (List.sort_uniq compare real, real)
  | _ ->
    let fraction = Rng.choose rng [| `One; `F 0.25; `F 0.5; `F 0.75; `F 1.0 |] in
    let targets =
      match fraction with
      | `One -> [ Rng.choose_list rng real ]
      | `F f ->
        let pool = Array.of_list frontier in
        let k = max 1 (int_of_float (f *. float_of_int (Array.length pool))) in
        let sampled = Rng.sample rng pool k in
        let anchor = Rng.choose_list rng real in
        if List.mem anchor sampled then sampled else anchor :: sampled
    in
    Some (List.sort_uniq compare targets, real)

let labels_of prepared mutated_args =
  let gold = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace gold (path_key p) ()) mutated_args;
  Array.map
    (fun p -> if Hashtbl.mem gold (path_key p) then 1.0 else 0.0)
    (Pmm.prepared_paths prepared)

let build_example config kernel base base_exec mutated_args fresh targets =
  let graph =
    Query_graph.build ~drop:config.drop_edges kernel base ~result:base_exec ~targets
  in
  let prepared = Pmm.prepare graph in
  {
    base;
    exec = base_exec;
    mutated_args;
    new_blocks = fresh;
    targets;
    graph;
    prepared;
    labels = labels_of prepared mutated_args;
  }

let collect_for_base ?(config = default_config) kernel base =
  let rng = Rng.create (config.seed lxor Prog.hash base) in
  let engine = Engine.create (Kernel.spec_db kernel) in
  let base_exec = execute config rng kernel base in
  if base_exec.Kernel.crash <> None then []
  else begin
    let frontier = List.map fst (Query_graph.frontier_blocks kernel base_exec) in
    let merged = merge_samples (raw_samples config rng kernel engine base base_exec) in
    (* The MUTATE set of an example is the union of localizations over
       every successful mutation whose new coverage intersects the chosen
       targets: all arguments observed to lead to some of the desired
       coverage, not just the one mutation the example was derived from. *)
    let gold_for targets =
      let tset = Hashtbl.create 16 in
      List.iter (fun b -> Hashtbl.replace tset b ()) targets;
      List.concat_map
        (fun (paths, fresh) ->
          if List.exists (Hashtbl.mem tset) fresh then paths else [])
        merged
      |> List.sort_uniq (fun a b -> compare (path_key a) (path_key b))
    in
    let examples =
      List.filter_map
        (fun (_paths, fresh) ->
          match synthesize_targets config rng ~frontier ~fresh with
          | Some (targets, _real) ->
            Some
              (build_example config kernel base base_exec (gold_for targets)
                 fresh targets)
          | None -> None)
        merged
    in
    List.filteri (fun i _ -> i < config.max_examples_per_base) examples
  end

let apply_popularity_cap config examples =
  let counts = Hashtbl.create 256 in
  let count b = Option.value ~default:0 (Hashtbl.find_opt counts b) in
  List.filter
    (fun ex ->
      if ex.targets <> [] && List.for_all (fun b -> count b >= config.popularity_cap) ex.targets
      then false
      else begin
        List.iter (fun b -> Hashtbl.replace counts b (count b + 1)) ex.targets;
        true
      end)
    examples

let collect ?(config = default_config) kernel ~bases =
  let rng = Rng.create config.seed in
  let bases = Array.of_list bases in
  Rng.shuffle rng bases;
  let n = Array.length bases in
  let n_train = n * 8 / 10 and n_valid = n / 10 in
  let part lo hi =
    Array.to_list (Array.sub bases lo (hi - lo))
    |> List.concat_map (fun base -> collect_for_base ~config kernel base)
    |> apply_popularity_cap config
    |> Array.of_list
  in
  {
    train = part 0 n_train;
    valid = part n_train (n_train + n_valid);
    eval = part (n_train + n_valid) n;
  }

let successful_mutation_rate ?(config = default_config) kernel ~bases =
  let engine = Engine.create (Kernel.spec_db kernel) in
  let rates =
    List.filter_map
      (fun base ->
        let rng = Rng.create (config.seed lxor Prog.hash base) in
        let base_exec = execute config rng kernel base in
        if base_exec.Kernel.crash <> None then None
        else begin
          let samples = raw_samples config rng kernel engine base base_exec in
          Some
            (1000.0
            *. float_of_int (List.length samples)
            /. float_of_int config.mutations_per_base)
        end)
      bases
  in
  Sp_util.Stats.mean rates

let stats split =
  let all =
    Array.to_list split.train @ Array.to_list split.valid @ Array.to_list split.eval
  in
  match all with
  | [] -> [ ("examples", 0.0) ]
  | _ ->
    let n = float_of_int (List.length all) in
    let avg f = List.fold_left (fun acc ex -> acc +. f ex) 0.0 all /. n in
    let graph_stat key =
      avg (fun ex ->
          float_of_int (List.assoc key (Query_graph.stats ex.graph)))
    in
    [
      ("examples", n);
      ("train examples", float_of_int (Array.length split.train));
      ("valid examples", float_of_int (Array.length split.valid));
      ("eval examples", float_of_int (Array.length split.eval));
      ("avg vertices", graph_stat "nodes");
      ("avg syscall nodes", graph_stat "syscall nodes");
      ("avg argument nodes", graph_stat "argument nodes");
      ("avg covered block nodes", graph_stat "covered block nodes");
      ("avg alternative entry nodes",
       graph_stat "alternative entry nodes" +. graph_stat "target nodes");
      ("avg edges", graph_stat "edges");
      ("avg call ordering edges", graph_stat "call ordering edges");
      ("avg argument ordering edges", graph_stat "argument ordering edges");
      ("avg argument in/out edges",
       graph_stat "argument in/out edges" +. graph_stat "containment edges");
      ("avg covered control flow edges", graph_stat "covered control flow edges");
      ("avg uncovered control flow edges", graph_stat "uncovered control flow edges");
      ("avg context switch edges", graph_stat "context switch edges");
      ("avg MUTATE args per example",
       avg (fun ex -> float_of_int (List.length ex.mutated_args)));
      ("avg targets per example", avg (fun ex -> float_of_int (List.length ex.targets)));
    ]
