module Bitset = Sp_util.Bitset
module Kernel = Sp_kernel.Kernel
module Token = Sp_kernel.Token
module Prog = Sp_syzlang.Prog
module Spec = Sp_syzlang.Spec
module Ty = Sp_syzlang.Ty
module Value = Sp_syzlang.Value

type node =
  | Syscall of { call : int; sys_id : int }
  | Arg of {
      path : Prog.path;
      kind : string;
      detail_sig : int;
      mutable_node : bool;
    }
  | Covered_block of int
  | Alt_block of int
  | Target_block of int

type edge_kind =
  | Call_order
  | Contains
  | Arg_order
  | Res_flow
  | Ctx_entry
  | Ctx_exit
  | Cf_covered
  | Cf_frontier
  | Handler

let num_edge_kinds = 9

let edge_kind_index = function
  | Call_order -> 0
  | Contains -> 1
  | Arg_order -> 2
  | Res_flow -> 3
  | Ctx_entry -> 4
  | Ctx_exit -> 5
  | Cf_covered -> 6
  | Cf_frontier -> 7
  | Handler -> 8

type t = {
  nodes : node array;
  edges : (int * int * edge_kind) array;
  arg_index : (int * Prog.path) list;
  target_blocks : int list;
}

(* Detail name of the argument node at [path] within [spec] (the named
   flag-set / enum / resource kind, or the field name): the information the
   paper embeds for argument vertices. *)
let detail_of (spec : Spec.t) path =
  match path with
  | [] -> invalid_arg "Query_graph.detail_of: empty path"
  | top :: rest ->
    let rec go (f : Ty.field) = function
      | [] -> Token.detail_name f.fty ~fallback:f.fname
      | i :: rest -> (
        match f.fty with
        | Ty.Ptr inner -> go { Ty.fname = f.fname; fty = inner } (i :: rest)
        | Ty.Struct fields when i < List.length fields ->
          go (List.nth fields i) rest
        | _ -> f.fname)
    in
    (match List.nth_opt spec.Spec.args top with
    | Some f -> go f rest
    | None -> "?")

let frontier_blocks kernel (result : Kernel.result) =
  Sp_cfg.Cfg.frontier (Kernel.cfg kernel) ~covered:result.Kernel.covered

let is_mutable_kind (ty : Ty.t) =
  match ty with
  | Ty.Const _ | Ty.Len _ | Ty.Struct _ -> false
  | Ty.Int _ | Ty.Flags _ | Ty.Enum _ | Ty.Buffer _ | Ty.Str _ | Ty.Ptr _
  | Ty.Resource _ ->
    true

let build ?(drop = []) kernel prog ~result ~targets =
  let nodes = ref [] and n_nodes = ref 0 in
  let edges = ref [] in
  let new_node node =
    nodes := node :: !nodes;
    incr n_nodes;
    !n_nodes - 1
  in
  let add_edge src dst kind =
    if not (List.mem kind drop) then edges := (src, dst, kind) :: !edges
  in
  (* Program side: syscall nodes, argument nodes, program-structure edges. *)
  let call_nodes = Array.make (Array.length prog) (-1) in
  Array.iteri
    (fun ci (c : Prog.call) ->
      call_nodes.(ci) <- new_node (Syscall { call = ci; sys_id = c.spec.Spec.sys_id }))
    prog;
  Array.iteri
    (fun ci _ -> if ci > 0 then add_edge call_nodes.(ci - 1) call_nodes.(ci) Call_order)
    prog;
  let arg_index = ref [] in
  let arg_node_of = Hashtbl.create 64 in
  (* First pass: create one node per argument path. *)
  let all_nodes = Prog.arg_nodes prog in
  List.iter
    (fun ((path : Prog.path), ty) ->
      let spec = prog.(path.Prog.call).Prog.spec in
      let idx =
        new_node
          (Arg
             {
               path;
               kind = Ty.kind_token ty;
               detail_sig = Token.opsig_bucket (detail_of spec path.Prog.arg);
               mutable_node = is_mutable_kind ty;
             })
      in
      Hashtbl.add arg_node_of (path.Prog.call, path.Prog.arg) idx;
      arg_index := (idx, path) :: !arg_index)
    all_nodes;
  (* Second pass: containment, ordering and resource-flow edges. *)
  List.iter
    (fun ((path : Prog.path), _ty) ->
      let idx = Hashtbl.find arg_node_of (path.Prog.call, path.Prog.arg) in
      (match List.rev path.Prog.arg with
      | [] -> ()
      | [ _top ] -> add_edge call_nodes.(path.Prog.call) idx Contains
      | last :: parent_rev ->
        let parent = List.rev parent_rev in
        (match Hashtbl.find_opt arg_node_of (path.Prog.call, parent) with
        | Some pidx -> add_edge pidx idx Contains
        | None -> ());
        (* Sibling ordering edge from the previous sibling. *)
        if last > 0 then
          let sib = List.rev ((last - 1) :: parent_rev) in
          (match Hashtbl.find_opt arg_node_of (path.Prog.call, sib) with
          | Some sidx -> add_edge sidx idx Arg_order
          | None -> ()));
      (* Top-level sibling ordering. *)
      (match path.Prog.arg with
      | [ top ] when top > 0 -> (
        match Hashtbl.find_opt arg_node_of (path.Prog.call, [ top - 1 ]) with
        | Some sidx -> add_edge sidx idx Arg_order
        | None -> ())
      | _ -> ());
      (* Resource data flow: producing call -> consuming argument node. *)
      match Prog.get prog path with
      | Value.Vres i when i >= 0 && i < Array.length prog ->
        add_edge call_nodes.(i) idx Res_flow
      | _ -> ()
      | exception Invalid_argument _ -> ())
    all_nodes;
  (* Kernel side: covered blocks, frontier blocks, control-flow edges. *)
  let block_node = Hashtbl.create 256 in
  Bitset.iter
    (fun b -> Hashtbl.replace block_node b (new_node (Covered_block b)))
    result.Kernel.covered;
  let target_set = Hashtbl.create 8 in
  List.iter (fun b -> Hashtbl.replace target_set b ()) targets;
  let frontier = frontier_blocks kernel result in
  let marked_targets = ref [] in
  List.iter
    (fun (entry, via) ->
      let is_target = Hashtbl.mem target_set entry in
      let idx =
        new_node (if is_target then Target_block entry else Alt_block entry)
      in
      if is_target then marked_targets := entry :: !marked_targets;
      Hashtbl.replace block_node entry idx;
      (match Hashtbl.find_opt block_node via with
      | Some vidx -> add_edge vidx idx Cf_frontier
      | None -> ());
      (* Handler-membership shortcut: every call of the owning syscall is
         one hop from the frontier entry. *)
      let owner = (Kernel.block kernel entry).Sp_kernel.Ir.sys_id in
      Array.iteri
        (fun ci (c : Prog.call) ->
          if c.spec.Spec.sys_id = owner then add_edge call_nodes.(ci) idx Handler)
        prog)
    frontier;
  (* Executed control-flow edges, from the traces. *)
  let seen_cf = Hashtbl.create 256 in
  List.iter
    (fun (tr : Kernel.call_trace) ->
      let rec go = function
        | [] | [ _ ] -> ()
        | b1 :: (b2 :: _ as rest) ->
          if not (Hashtbl.mem seen_cf (b1, b2)) then begin
            Hashtbl.add seen_cf (b1, b2) ();
            match (Hashtbl.find_opt block_node b1, Hashtbl.find_opt block_node b2) with
            | Some i1, Some i2 -> add_edge i1 i2 Cf_covered
            | _ -> ()
          end;
          go rest
      in
      go tr.Kernel.visited)
    result.Kernel.traces;
  (* Kernel-user context switches: call -> handler entry, handler exit ->
     call, when those blocks were reached. *)
  Array.iteri
    (fun ci (c : Prog.call) ->
      let sys = c.spec.Spec.sys_id in
      (match Hashtbl.find_opt block_node (Kernel.handler_entry kernel sys) with
      | Some bidx -> add_edge call_nodes.(ci) bidx Ctx_entry
      | None -> ());
      match Hashtbl.find_opt block_node (Kernel.handler_exit kernel sys) with
      | Some bidx -> add_edge bidx call_nodes.(ci) Ctx_exit
      | None -> ())
    prog;
  {
    nodes = Array.of_list (List.rev !nodes);
    edges = Array.of_list (List.rev !edges);
    arg_index = List.rev !arg_index;
    target_blocks = List.rev !marked_targets;
  }

let stats t =
  let count f = Array.fold_left (fun acc x -> if f x then acc + 1 else acc) 0 in
  let node_is k n =
    match (k, n) with
    | `Sys, Syscall _ | `Arg, Arg _ | `Cov, Covered_block _ | `Alt, Alt_block _
    | `Tgt, Target_block _ ->
      true
    | _ -> false
  in
  let edge_is k (_, _, kind) = kind = k in
  [
    ("nodes", Array.length t.nodes);
    ("syscall nodes", count (node_is `Sys) t.nodes);
    ("argument nodes", count (node_is `Arg) t.nodes);
    ("covered block nodes", count (node_is `Cov) t.nodes);
    ("alternative entry nodes", count (node_is `Alt) t.nodes);
    ("target nodes", count (node_is `Tgt) t.nodes);
    ("edges", Array.length t.edges);
    ("call ordering edges", count (edge_is Call_order) t.edges);
    ("containment edges", count (edge_is Contains) t.edges);
    ("argument ordering edges", count (edge_is Arg_order) t.edges);
    ("argument in/out edges", count (edge_is Res_flow) t.edges);
    ("context switch edges", count (edge_is Ctx_entry) t.edges
                             + count (edge_is Ctx_exit) t.edges);
    ("covered control flow edges", count (edge_is Cf_covered) t.edges);
    ("uncovered control flow edges", count (edge_is Cf_frontier) t.edges);
  ]
