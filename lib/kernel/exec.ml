(* Compiled executor: the kernel's handler CFGs lowered, once at generation
   time, into a flat instruction array that an allocation-free interpreter
   loop runs many millions of times per campaign.

   Three ideas, mirroring what a real KCOV-style harness does:

   - Every basic block becomes one instruction at index [block id]. Branch
     predicates carry a pre-resolved *slot* into the per-call argument
     image instead of an argument path, and every branch target carries its
     precomputed static edge id, so the hot loop never walks a value AST
     and never searches a successor list.

   - Per call, the arguments are flattened once into two int arrays (the
     scalar image and the resource image) indexed by the spec's compiled
     slot layout. Only paths some predicate (or produced-object field)
     actually reads get slots, so the fill cost is proportional to the
     handful of referenced paths, not the size of the argument tree.

   - All per-execution state lives in a reusable [scratch]: coverage as
     generation-stamped sparse sets, traces as one growable int buffer with
     per-call offsets. In steady state an execution allocates nothing;
     bitsets, trace lists and the [result] record are materialized only on
     demand (corpus admission, crash triage, or an explicit
     [result_of_scratch]). *)

module Bitset = Sp_util.Bitset
module Stampset = Sp_util.Stampset
module Rng = Sp_util.Rng
module Spec = Sp_syzlang.Spec
module Value = Sp_syzlang.Value
module Prog = Sp_syzlang.Prog

type kobject = { okind : string; mode : int; oflags : int }

type crash = { bug : Bug.t; crash_call : int }

type call_trace = { call_idx : int; visited : int list }

type result = {
  traces : call_trace list;
  crash : crash option;
  covered : Bitset.t;
  covered_edges : Bitset.t;
  objects : kobject option array;
}

(* ------------------------------------------------------------------ *)
(* Instruction set                                                     *)
(* ------------------------------------------------------------------ *)

(* One instruction per basic block, at index [block id]. Conditionals are
   specialized per predicate constructor so the interpreter loop does no
   nested matching; every target/edge pair is static. *)
type instr =
  | Ret
  | Crash of int  (* bug id *)
  | Jmp of { target : int; edge : int }
  | Cond_arg of {
      slot : int;
      cmp : Ir.cmp;
      const : int;
      t_target : int;
      t_edge : int;
      f_target : int;
      f_edge : int;
    }
  | Cond_res_valid of {
      slot : int;
      t_target : int;
      t_edge : int;
      f_target : int;
      f_edge : int;
    }
  | Cond_res_state of {
      slot : int;
      is_mode : bool;
      cmp : Ir.cmp;
      const : int;
      t_target : int;
      t_edge : int;
      f_target : int;
      f_edge : int;
    }

(* ------------------------------------------------------------------ *)
(* Argument image layout                                               *)
(* ------------------------------------------------------------------ *)

(* A pruned mirror of the spec's argument tree: only paths that some
   predicate or object-field derivation reads survive, each carrying its
   slot (or -1 for interior nodes nobody reads directly). [child_idx] holds
   the child positions in ascending order so the fill can walk a struct's
   value list once, in sync. *)
type lnode = { slot : int; child_idx : int array; children : lnode array }

type spec_code = {
  root : lnode;  (* slot -1; children index the top-level argument list *)
  num_slots : int;
  mode_slot : int;  (* -1 when absent *)
  oflags_slot : int;
  produces : string;  (* object kind; "" when the spec returns nothing *)
}

type code = {
  instrs : instr array;
  entries : int array;  (* per sys_id *)
  specs : spec_code array;  (* per sys_id *)
  num_blocks : int;
  num_edges : int;
  max_steps : int;
  max_slots : int;
  bugs : Bug.t array;
  background : int array;  (* background chain, precomputed once *)
  (* successor -> edge id per block; only the noise path consults this at
     runtime (noise blocks are not reached through compiled branches) *)
  succ_edges : (int * int) array array;
}

(* [res] image value for "this path does not hold a resource". Negative,
   so every [i >= 0 && i < ci] guard rejects it exactly like the reference
   interpreter rejects a non-[Vres] or dangling path. *)
let res_none = min_int

(* ------------------------------------------------------------------ *)
(* Compiler                                                            *)
(* ------------------------------------------------------------------ *)

type tnode = { mutable tslot : int; mutable tchildren : (int * tnode) list }

let path_of_pred = function
  | Ir.Arg { path; _ } | Ir.Res_state { path; _ } | Ir.Res_valid { path; _ }
    ->
    path

let compile (built : Build.built) =
  let blocks = built.Build.blocks in
  let cfg = built.Build.cfg in
  let db = built.Build.db in
  let n_sys = Array.length built.Build.entries in
  (* Pass 1: one layout trie per spec, a slot per distinct referenced
     path. Slot order (block order, then object-field paths) is arbitrary
     but deterministic. *)
  let roots = Array.init n_sys (fun _ -> { tslot = -1; tchildren = [] }) in
  let counters = Array.make n_sys 0 in
  let insert sys path =
    let rec go node = function
      | [] ->
        if node.tslot < 0 then begin
          node.tslot <- counters.(sys);
          counters.(sys) <- counters.(sys) + 1
        end;
        node.tslot
      | i :: rest ->
        let child =
          match List.assoc_opt i node.tchildren with
          | Some c -> c
          | None ->
            let c = { tslot = -1; tchildren = [] } in
            node.tchildren <- (i, c) :: node.tchildren;
            c
        in
        go child rest
    in
    go roots.(sys) path
  in
  Array.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Cond { pred; _ } ->
        assert (b.Ir.sys_id >= 0);
        ignore (insert b.Ir.sys_id (path_of_pred pred))
      | Ir.Jump _ | Ir.Ret | Ir.Crash _ -> ())
    blocks;
  let mode_slots = Array.make n_sys (-1) in
  let oflags_slots = Array.make n_sys (-1) in
  let produces = Array.make n_sys "" in
  for sys = 0 to n_sys - 1 do
    match (Spec.by_id db sys).Spec.ret with
    | None -> ()
    | Some kind ->
      produces.(sys) <- kind;
      let mode_path, oflags_path = built.Build.mode_paths.(sys) in
      (match mode_path with
      | Some p -> mode_slots.(sys) <- insert sys p
      | None -> ());
      (match oflags_path with
      | Some p -> oflags_slots.(sys) <- insert sys p
      | None -> ())
  done;
  (* Pass 2: lower blocks, resolving paths against the (complete) tries. *)
  let slot_of sys path =
    let rec go node = function
      | [] ->
        assert (node.tslot >= 0);
        node.tslot
      | i :: rest -> go (List.assoc i node.tchildren) rest
    in
    go roots.(sys) path
  in
  let eid src dst =
    match Sp_cfg.Cfg.edge_id cfg (src, dst) with
    | Some e -> e
    | None -> assert false
  in
  let instrs =
    Array.map
      (fun (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Ret -> Ret
        | Ir.Crash bug -> Crash bug
        | Ir.Jump target -> Jmp { target; edge = eid b.Ir.id target }
        | Ir.Cond { pred; if_true; if_false } -> (
          let t_target = if_true and f_target = if_false in
          let t_edge = eid b.Ir.id if_true and f_edge = eid b.Ir.id if_false in
          let slot = slot_of b.Ir.sys_id (path_of_pred pred) in
          match pred with
          | Ir.Arg { cmp; const; _ } ->
            Cond_arg { slot; cmp; const; t_target; t_edge; f_target; f_edge }
          | Ir.Res_valid _ ->
            Cond_res_valid { slot; t_target; t_edge; f_target; f_edge }
          | Ir.Res_state { field; cmp; const; _ } ->
            Cond_res_state
              {
                slot;
                is_mode = (field = `Mode);
                cmp;
                const;
                t_target;
                t_edge;
                f_target;
                f_edge;
              }))
      blocks
  in
  let rec freeze tn =
    let kids =
      List.sort (fun (a, _) (b, _) -> compare (a : int) b) tn.tchildren
    in
    {
      slot = tn.tslot;
      child_idx = Array.of_list (List.map fst kids);
      children = Array.of_list (List.map (fun (_, c) -> freeze c) kids);
    }
  in
  let specs =
    Array.init n_sys (fun sys ->
        {
          root = freeze roots.(sys);
          num_slots = counters.(sys);
          mode_slot = mode_slots.(sys);
          oflags_slot = oflags_slots.(sys);
          produces = produces.(sys);
        })
  in
  let succ_edges =
    Array.init (Array.length blocks) (fun b ->
        Sp_cfg.Cfg.succs cfg b
        |> List.map (fun dst -> (dst, eid b dst))
        |> Array.of_list)
  in
  {
    instrs;
    entries = built.Build.entries;
    specs;
    num_blocks = Array.length blocks;
    num_edges = Sp_cfg.Cfg.num_edges cfg;
    max_steps = Array.length blocks + 4;
    max_slots = Array.fold_left max 0 counters;
    bugs = built.Build.bugs;
    background = Array.of_list built.Build.background;
    succ_edges;
  }

(* ------------------------------------------------------------------ *)
(* Scratch                                                             *)
(* ------------------------------------------------------------------ *)

type scratch = {
  code : code;
  slots : int array;  (* scalar image of the current call *)
  res : int array;  (* resource image; [res_none] = not a resource *)
  covered : Stampset.t;
  covered_edges : Stampset.t;
  mutable trace : int array;  (* all calls' visited blocks, concatenated *)
  mutable trace_len : int;
  mutable call_off : int array;  (* per call, offset into [trace]; +1 fence *)
  mutable obj_present : bool array;  (* produced-object post-state, per call *)
  mutable obj_mode : int array;
  mutable obj_oflags : int array;
  mutable obj_kind : string array;
  mutable ncalls : int;  (* calls actually executed (crash cuts short) *)
  mutable nprog : int;  (* length of the last executed program *)
  mutable crash_bug : int;  (* -1 = no crash *)
  mutable crash_call : int;
  noise_buf : int array;  (* phantom-block draws, max 3 per call *)
}

let create_scratch code =
  {
    code;
    slots = Array.make (max 1 code.max_slots) 0;
    res = Array.make (max 1 code.max_slots) res_none;
    covered = Stampset.create code.num_blocks;
    covered_edges = Stampset.create code.num_edges;
    trace = Array.make 256 0;
    trace_len = 0;
    call_off = Array.make 17 0;
    obj_present = Array.make 16 false;
    obj_mode = Array.make 16 0;
    obj_oflags = Array.make 16 0;
    obj_kind = Array.make 16 "";
    ncalls = 0;
    nprog = 0;
    crash_bug = -1;
    crash_call = -1;
    noise_buf = Array.make 3 0;
  }

let trace_push st b =
  let cap = Array.length st.trace in
  if st.trace_len = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    Array.blit st.trace 0 bigger 0 cap;
    st.trace <- bigger
  end;
  Array.unsafe_set st.trace st.trace_len b;
  st.trace_len <- st.trace_len + 1

let ensure_calls st n =
  if Array.length st.call_off < n + 1 then begin
    let cap = max (n + 1) (2 * Array.length st.call_off) in
    st.call_off <- Array.make cap 0;
    st.obj_present <- Array.make cap false;
    st.obj_mode <- Array.make cap 0;
    st.obj_oflags <- Array.make cap 0;
    st.obj_kind <- Array.make cap ""
  end

(* ------------------------------------------------------------------ *)
(* Argument-image fill                                                 *)
(* ------------------------------------------------------------------ *)

(* Replicates [Prog.get] step semantics exactly: a path step [i] descends
   into [Vptr (Some inner)] only when [i = 0], into the [i]-th field of a
   [Vstruct], and dangles otherwise (NULL pointer, leaf value, missing
   field). A dangling path reads as scalar 0 / no-resource, the reference
   interpreter's error-path outcome. *)
let rec fill_dangling st (node : lnode) =
  if node.slot >= 0 then begin
    Array.unsafe_set st.slots node.slot 0;
    Array.unsafe_set st.res node.slot res_none
  end;
  for k = 0 to Array.length node.children - 1 do
    fill_dangling st (Array.unsafe_get node.children k)
  done

let rec fill_node st (node : lnode) (v : Value.t) =
  if node.slot >= 0 then begin
    Array.unsafe_set st.slots node.slot (Value.scalar v);
    Array.unsafe_set st.res node.slot
      (match v with Value.Vres i -> i | _ -> res_none)
  end;
  if Array.length node.children > 0 then
    match v with
    | Value.Vptr (Some inner) ->
      for k = 0 to Array.length node.children - 1 do
        if Array.unsafe_get node.child_idx k = 0 then
          fill_node st (Array.unsafe_get node.children k) inner
        else fill_dangling st (Array.unsafe_get node.children k)
      done
    | Value.Vstruct vs -> fill_fields st node vs
    | _ ->
      for k = 0 to Array.length node.children - 1 do
        fill_dangling st (Array.unsafe_get node.children k)
      done

(* Walk the value list and the (ascending) compiled children in sync; no
   per-field [List.nth]. Also serves the top level, where [Prog.get]
   indexes the argument list exactly like a struct. Written as top-level
   recursion (not a local loop closing over [st]) to keep the fill
   closure-free. *)
and fill_fields st (node : lnode) vs = fill_fields_from st node 0 0 vs

and fill_fields_from st (node : lnode) k pos vs =
  let nkids = Array.length node.children in
  if k < nkids then
    match vs with
    | [] ->
      for j = k to nkids - 1 do
        fill_dangling st node.children.(j)
      done
    | v :: tl ->
      if Array.unsafe_get node.child_idx k = pos then begin
        fill_node st (Array.unsafe_get node.children k) v;
        fill_fields_from st node (k + 1) (pos + 1) tl
      end
      else fill_fields_from st node k (pos + 1) tl

(* ------------------------------------------------------------------ *)
(* Interpreter loop                                                    *)
(* ------------------------------------------------------------------ *)

(* [walk]/[step] carry only ints and stay tail-recursive: no closures, no
   allocation. [steps] counts visited blocks including the entry; the
   guard drops the successor *without* recording the edge, exactly like
   the reference interpreter's bounded walk (handler regions are acyclic
   by construction; the guard keeps the loop total regardless). *)
let rec walk code st ci pc steps =
  match Array.unsafe_get code.instrs pc with
  | Ret -> ()
  | Crash bug ->
    st.crash_bug <- bug;
    st.crash_call <- ci
  | Jmp { target; edge } -> step code st ci target edge steps
  | Cond_arg { slot; cmp; const; t_target; t_edge; f_target; f_edge } ->
    if Ir.eval_cmp cmp (Array.unsafe_get st.slots slot) const then
      step code st ci t_target t_edge steps
    else step code st ci f_target f_edge steps
  | Cond_res_valid { slot; t_target; t_edge; f_target; f_edge } ->
    let i = Array.unsafe_get st.res slot in
    if i >= 0 && i < ci && Array.unsafe_get st.obj_present i then
      step code st ci t_target t_edge steps
    else step code st ci f_target f_edge steps
  | Cond_res_state { slot; is_mode; cmp; const; t_target; t_edge; f_target; f_edge }
    ->
    let i = Array.unsafe_get st.res slot in
    let taken =
      i >= 0 && i < ci
      && Array.unsafe_get st.obj_present i
      && Ir.eval_cmp cmp
           (if is_mode then Array.unsafe_get st.obj_mode i
            else Array.unsafe_get st.obj_oflags i)
           const
    in
    if taken then step code st ci t_target t_edge steps
    else step code st ci f_target f_edge steps

and step code st ci target edge steps =
  let steps = steps + 1 in
  if steps <= code.max_steps then begin
    trace_push st target;
    Stampset.add st.covered target;
    Stampset.add st.covered_edges edge;
    walk code st ci target steps
  end

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)
(* ------------------------------------------------------------------ *)

let edge_of code b1 b2 =
  let arr = Array.unsafe_get code.succ_edges b1 in
  let n = Array.length arr in
  let rec find i =
    if i >= n then -1
    else
      let dst, e = Array.unsafe_get arr i in
      if dst = b2 then e else find (i + 1)
  in
  find 0

(* Same RNG draw sequence and same appended order as the reference
   [noise_blocks]: an optional background-chain segment prefixed by the
   phantom draws in reverse draw order. Coverage and any real static edges
   the extra blocks happen to form (background chain links, or the
   junction from the call's last real block) are recorded the way
   [record_run] would. *)
let add_noise code st rng level ci =
  let seg_start = st.call_off.(ci) in
  let real_end = st.trace_len in
  let bg_start = ref 0 and bg_len = ref 0 in
  if Rng.coin rng level then begin
    let nbg = Array.length code.background in
    let start = Rng.int rng nbg in
    bg_start := start;
    bg_len := min (Rng.int_in rng 2 8) (nbg - start)
  end;
  let nph = ref 0 in
  if Rng.coin rng (level /. 2.0) then begin
    let n = Rng.int_in rng 1 3 in
    for k = 0 to n - 1 do
      st.noise_buf.(k) <- Rng.int rng code.num_blocks
    done;
    nph := n
  end;
  for k = !nph - 1 downto 0 do
    trace_push st st.noise_buf.(k)
  done;
  for i = !bg_start to !bg_start + !bg_len - 1 do
    trace_push st code.background.(i)
  done;
  if st.trace_len > real_end then begin
    for k = real_end to st.trace_len - 1 do
      Stampset.add st.covered st.trace.(k)
    done;
    let first = if real_end - 1 >= seg_start then real_end - 1 else real_end in
    for k = first to st.trace_len - 2 do
      let e = edge_of code st.trace.(k) st.trace.(k + 1) in
      if e >= 0 then Stampset.add st.covered_edges e
    done
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute_raw ?noise code st (prog : Prog.t) =
  if st.code != code then
    invalid_arg "Exec.execute_raw: scratch was created for a different kernel";
  let n = Array.length prog in
  ensure_calls st n;
  st.nprog <- n;
  Stampset.clear st.covered;
  Stampset.clear st.covered_edges;
  st.trace_len <- 0;
  st.crash_bug <- -1;
  st.crash_call <- -1;
  for i = 0 to n - 1 do
    Array.unsafe_set st.obj_present i false
  done;
  (* [st.ncalls] doubles as the loop counter: no heap-allocated ref. *)
  st.ncalls <- 0;
  while st.ncalls < n && st.crash_bug < 0 do
    let ci = st.ncalls in
    let c = Array.unsafe_get prog ci in
    let sys = c.Prog.spec.Spec.sys_id in
    let sc = Array.unsafe_get code.specs sys in
    st.call_off.(ci) <- st.trace_len;
    fill_fields st sc.root c.Prog.args;
    let entry = Array.unsafe_get code.entries sys in
    trace_push st entry;
    Stampset.add st.covered entry;
    walk code st ci entry 1;
    (match noise with
    | Some (rng, level) when level > 0.0 -> add_noise code st rng level ci
    | Some _ | None -> ());
    if st.crash_bug < 0 && sc.produces <> "" then begin
      st.obj_present.(ci) <- true;
      st.obj_kind.(ci) <- sc.produces;
      st.obj_mode.(ci) <-
        (if sc.mode_slot >= 0 then st.slots.(sc.mode_slot) else 0);
      st.obj_oflags.(ci) <-
        (if sc.oflags_slot >= 0 then st.slots.(sc.oflags_slot) else 0)
    end;
    st.ncalls <- ci + 1
  done;
  st.call_off.(st.ncalls) <- st.trace_len

(* ------------------------------------------------------------------ *)
(* Scratch views and materialization                                   *)
(* ------------------------------------------------------------------ *)

let crashed st = st.crash_bug >= 0

let crash_of_scratch st =
  if st.crash_bug >= 0 then
    Some { bug = st.code.bugs.(st.crash_bug); crash_call = st.crash_call }
  else None

let covered_blocks st = st.covered

let covered_edges st = st.covered_edges

let blocks_bitset st = Stampset.to_bitset st.covered

let edges_bitset st = Stampset.to_bitset st.covered_edges

let num_calls st = st.ncalls

let result_of_scratch st =
  let code = st.code in
  let traces = ref [] in
  for ci = st.ncalls - 1 downto 0 do
    let visited = ref [] in
    for k = st.call_off.(ci + 1) - 1 downto st.call_off.(ci) do
      visited := st.trace.(k) :: !visited
    done;
    traces := { call_idx = ci; visited = !visited } :: !traces
  done;
  let covered = Bitset.create code.num_blocks in
  Stampset.iter (Bitset.add covered) st.covered;
  let covered_edges = Bitset.create code.num_edges in
  Stampset.iter (Bitset.add covered_edges) st.covered_edges;
  let objects =
    Array.init st.nprog (fun i ->
        if i < st.ncalls && st.obj_present.(i) then
          Some
            {
              okind = st.obj_kind.(i);
              mode = st.obj_mode.(i);
              oflags = st.obj_oflags.(i);
            }
        else None)
  in
  { traces = !traces; crash = crash_of_scratch st; covered; covered_edges;
    objects }
