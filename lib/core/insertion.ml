module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Kernel = Sp_kernel.Kernel
module Ir = Sp_kernel.Ir
module Token = Sp_kernel.Token
module Spec = Sp_syzlang.Spec
module Ty = Sp_syzlang.Ty
module Prog = Sp_syzlang.Prog
module Gen = Sp_syzlang.Gen
module Ad = Sp_ml.Ad
module Nn = Sp_ml.Nn
module Tensor = Sp_ml.Tensor
module Optim = Sp_ml.Optim

type config = { hidden : int; rounds : int; epochs : int; lr : float; seed : int }

let default_config = { hidden = 20; rounds = 2; epochs = 6; lr = 3e-3; seed = 41 }

type t = {
  cfg : config;
  kernel : Kernel.t;
  num_sys : int;
  sys_emb : Nn.Embedding.t;
  kind_emb : Nn.Embedding.t;
  sig_emb : Nn.Embedding.t;
  rel : Nn.Linear.t array;  (* program relations, forward + reverse *)
  self_map : Nn.Linear.t;
  ctx_proj : Nn.Linear.t;  (* per-syscall saturation vector -> hidden *)
  head : Nn.Linear.t;  (* hidden -> num_sys *)
  (* blocks of each handler, for the saturation context *)
  handler_blocks : int list array;
}

let num_relations = 6 (* contains, arg-order, call-order, each direction *)

let kind_index =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i k -> Hashtbl.add tbl k i) Ty.all_kind_tokens;
  fun k -> match Hashtbl.find_opt tbl k with Some i -> i | None -> 0

let create ?(config = default_config) kernel =
  let rng = Rng.create config.seed in
  let d = config.hidden in
  let num_sys = Spec.count (Kernel.spec_db kernel) in
  let handler_blocks = Array.make num_sys [] in
  for b = 0 to Kernel.num_blocks kernel - 1 do
    let sys = (Kernel.block kernel b).Ir.sys_id in
    if sys >= 0 then handler_blocks.(sys) <- b :: handler_blocks.(sys)
  done;
  {
    cfg = config;
    kernel;
    num_sys;
    sys_emb = Nn.Embedding.create rng ~vocab:num_sys ~dim:d;
    kind_emb = Nn.Embedding.create rng ~vocab:(List.length Ty.all_kind_tokens) ~dim:d;
    sig_emb = Nn.Embedding.create rng ~vocab:Token.num_opsig_buckets ~dim:d;
    rel = Array.init num_relations (fun _ -> Nn.Linear.create ~bias:false rng d d);
    self_map = Nn.Linear.create rng d d;
    ctx_proj = Nn.Linear.create rng num_sys d;
    head = Nn.Linear.create rng d num_sys;
    handler_blocks;
  }

let params t =
  Nn.Embedding.params t.sys_emb @ Nn.Embedding.params t.kind_emb
  @ Nn.Embedding.params t.sig_emb
  @ List.concat_map Nn.Linear.params (Array.to_list t.rel)
  @ Nn.Linear.params t.self_map @ Nn.Linear.params t.ctx_proj
  @ Nn.Linear.params t.head

(* Per-syscall handler-coverage saturation under the campaign's coverage:
   an almost-exhausted handler makes inserting its syscall unattractive. *)
let saturation t ~covered =
  Array.map
    (fun blocks ->
      match blocks with
      | [] -> 0.0
      | _ ->
        let hit = List.length (List.filter (Bitset.mem covered) blocks) in
        float_of_int hit /. float_of_int (List.length blocks))
    t.handler_blocks

(* Program-only graph, lowered to index arrays (a light-weight cousin of
   Pmm.prepare over Query_graph's program side). *)
type prepared = {
  n : int;
  call_pos : int array;
  call_sys : int array;
  arg_pos : int array;
  arg_kinds : int array;
  arg_sigs : int array;
  rels : (int array * int array * float array) array;
}

let prepare prog =
  let g = ref [] and n = ref 0 in
  let node () =
    incr n;
    !n - 1
  in
  let calls =
    Array.map (fun (c : Prog.call) -> (node (), c.Prog.spec.Spec.sys_id)) prog
  in
  let args = ref [] in
  let arg_node = Hashtbl.create 32 in
  List.iter
    (fun ((path : Prog.path), ty) ->
      let idx = node () in
      Hashtbl.add arg_node (path.Prog.call, path.Prog.arg) idx;
      args := (idx, kind_index (Ty.kind_token ty), 0) :: !args)
    (Prog.arg_nodes prog);
  (* relations: 0 contains, 1 arg-order, 2 call-order (+3 reversed) *)
  let add r src dst = g := (r, src, dst) :: !g in
  Array.iteri
    (fun i (idx, _) -> if i > 0 then add 2 (fst calls.(i - 1)) idx)
    calls;
  List.iter
    (fun ((path : Prog.path), _) ->
      let idx = Hashtbl.find arg_node (path.Prog.call, path.Prog.arg) in
      match List.rev path.Prog.arg with
      | [] -> ()
      | [ top ] ->
        add 0 (fst calls.(path.Prog.call)) idx;
        if top > 0 then (
          match Hashtbl.find_opt arg_node (path.Prog.call, [ top - 1 ]) with
          | Some s -> add 1 s idx
          | None -> ())
      | last :: parent_rev -> (
        (match Hashtbl.find_opt arg_node (path.Prog.call, List.rev parent_rev) with
        | Some pidx -> add 0 pidx idx
        | None -> ());
        if last > 0 then
          match
            Hashtbl.find_opt arg_node (path.Prog.call, List.rev ((last - 1) :: parent_rev))
          with
          | Some s -> add 1 s idx
          | None -> ()))
    (Prog.arg_nodes prog);
  let buckets = Array.make num_relations [] in
  List.iter
    (fun (r, s, d) ->
      buckets.(r) <- (s, d) :: buckets.(r);
      buckets.(r + 3) <- (d, s) :: buckets.(r + 3))
    !g;
  let rels =
    Array.map
      (fun pairs ->
        let pairs = Array.of_list pairs in
        let indeg = Hashtbl.create 16 in
        Array.iter
          (fun (_, d) ->
            Hashtbl.replace indeg d (1 + Option.value ~default:0 (Hashtbl.find_opt indeg d)))
          pairs;
        ( Array.map fst pairs,
          Array.map snd pairs,
          Array.map (fun (_, d) -> 1.0 /. float_of_int (Hashtbl.find indeg d)) pairs ))
      buckets
  in
  {
    n = !n;
    call_pos = Array.map fst calls;
    call_sys = Array.map snd calls;
    arg_pos = Array.of_list (List.rev_map (fun (i, _, _) -> i) !args);
    arg_kinds = Array.of_list (List.rev_map (fun (_, k, _) -> k) !args);
    arg_sigs = Array.of_list (List.rev_map (fun (_, _, s) -> s) !args);
    rels;
  }

let scatter ~n ~pos x =
  let k = Array.length pos in
  Ad.spmm ~src:(Array.init k Fun.id) ~dst:pos ~coef:(Array.make k 1.0) ~rows:n x

let forward t ~covered prog =
  let p = prepare prog in
  let h0 =
    let base = scatter ~n:p.n ~pos:p.call_pos (Nn.Embedding.lookup t.sys_emb p.call_sys) in
    if Array.length p.arg_pos = 0 then base
    else
      Ad.add base
        (scatter ~n:p.n ~pos:p.arg_pos
           (Ad.add
              (Nn.Embedding.lookup t.kind_emb p.arg_kinds)
              (Nn.Embedding.lookup t.sig_emb p.arg_sigs)))
  in
  let h = ref h0 in
  for _ = 1 to t.cfg.rounds do
    let acc = ref (Nn.Linear.apply t.self_map !h) in
    Array.iteri
      (fun r (src, dst, coef) ->
        if Array.length src > 0 then
          acc :=
            Ad.add !acc
              (Ad.spmm ~src ~dst ~coef ~rows:p.n (Nn.Linear.apply t.rel.(r) !h)))
      p.rels;
    h := Ad.relu !acc
  done;
  (* pooled program embedding over call nodes *)
  let k = Array.length p.call_pos in
  let pool = Ad.const (Tensor.of_row (Array.make k (1.0 /. float_of_int k))) in
  let prog_emb = Ad.matmul pool (Ad.gather_rows !h p.call_pos) in
  let ctx =
    Nn.Linear.apply t.ctx_proj
      (Ad.const (Tensor.of_row (saturation t ~covered)))
  in
  Nn.Linear.apply t.head (Ad.relu (Ad.add prog_emb ctx))

type example = { base : Prog.t; inserted_sys : int }

let collect_examples ?(tries_per_base = 40) ~seed ~covered kernel ~bases =
  let rng = Rng.create seed in
  let db = Kernel.spec_db kernel in
  let specs = Array.of_list (Spec.all db) in
  List.concat_map
    (fun base ->
      let r0 = Kernel.execute kernel base in
      if r0.Kernel.crash <> None then []
      else begin
        let found = ref [] in
        for _ = 1 to tries_per_base do
          let spec = Rng.choose rng specs in
          let pos = Rng.int rng (Array.length base + 1) in
          let call = Gen.call rng db spec in
          let mutant =
            Gen.wire_resources rng db (Prog.insert_call base pos call)
          in
          let r = Kernel.execute kernel mutant in
          (* Success is marginal to the campaign's accumulated coverage:
             on a fresh kernel every insertion trivially covers a new
             handler, so the informative label is "still unlocks something
             the whole campaign has not seen". *)
          if r.Kernel.crash = None
             && Bitset.diff_cardinal r.Kernel.covered r0.Kernel.covered > 0
             && Bitset.diff_cardinal r.Kernel.covered covered > 0
          then found := { base; inserted_sys = spec.Spec.sys_id } :: !found
        done;
        !found
      end)
    bases

let train t ~covered examples =
  let rng = Rng.create (t.cfg.seed lxor 0x7a1) in
  let optim = Optim.adam ~lr:t.cfg.lr (params t) in
  let arr = Array.of_list examples in
  let losses = ref [] in
  for _epoch = 1 to t.cfg.epochs do
    Rng.shuffle rng arr;
    let total = ref 0.0 in
    Array.iter
      (fun ex ->
        let logits = forward t ~covered ex.base in
        let loss = Ad.cross_entropy_rows logits ~targets:[| ex.inserted_sys |] in
        Optim.zero_grad optim;
        Ad.backward loss;
        Optim.step optim;
        total := !total +. Tensor.get (Ad.value loss) 0 0)
      arr;
    losses := (!total /. float_of_int (max 1 (Array.length arr))) :: !losses
  done;
  List.rev !losses

let scores t ~covered prog =
  let logits = Ad.value (forward t ~covered prog) in
  let raw = Array.init t.num_sys (fun i -> Tensor.get logits 0 i) in
  let mx = Array.fold_left Float.max neg_infinity raw in
  let exps = Array.map (fun v -> exp (v -. mx)) raw in
  let z = Array.fold_left ( +. ) 0.0 exps in
  Array.map (fun e -> e /. z) exps

let top_k t ~covered prog ~k =
  let s = scores t ~covered prog in
  let idx = Array.init t.num_sys Fun.id in
  Array.sort (fun a b -> compare s.(b) s.(a)) idx;
  Array.to_list (Array.sub idx 0 (min k t.num_sys))

let accuracy t ~covered examples ~k =
  match examples with
  | [] -> 0.0
  | _ ->
    let hits =
      List.length
        (List.filter
           (fun ex -> List.mem ex.inserted_sys (top_k t ~covered ex.base ~k))
           examples)
    in
    float_of_int hits /. float_of_int (List.length examples)
