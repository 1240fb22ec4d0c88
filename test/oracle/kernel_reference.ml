(* The original tree-walking interpreter, kept as the executor's reference
   oracle: it re-resolves every predicate through [Prog.get] AST walks,
   builds traces as lists and coverage as freshly allocated bitsets — slow
   but transparently close to the semantics in the paper. [Exec] must be
   observationally identical; a differential property test (and bench e11's
   smoke check) compares the two on random programs. Keep any semantic
   change mirrored in both, or the test will tell you. *)

module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Build = Sp_kernel.Build
module Exec = Sp_kernel.Exec
module Ir = Sp_kernel.Ir
module Spec = Sp_syzlang.Spec
module Value = Sp_syzlang.Value
module Prog = Sp_syzlang.Prog

type t = {
  built : Build.built;
  succ_edges : (int * int) array array;
}

let of_built (built : Build.built) =
  let cfg = built.Build.cfg in
  let succ_edges =
    Array.init (Array.length built.Build.blocks) (fun b ->
        Sp_cfg.Cfg.succs cfg b
        |> List.map (fun dst ->
               match Sp_cfg.Cfg.edge_id cfg (b, dst) with
               | Some e -> (dst, e)
               | None -> assert false)
        |> Array.of_list)
  in
  { built; succ_edges }

let num_blocks t = Array.length t.built.Build.blocks

let block t i = t.built.Build.blocks.(i)

let handler_entry t sys = t.built.Build.entries.(sys)

let bug t i = t.built.Build.bugs.(i)

let background_blocks t = t.built.Build.background

(* Scalar view of the argument at [path] of call [ci]; a dangling path
   (e.g. reading through a NULL pointer) evaluates to 0, the error-path
   outcome. *)
let scalar_at prog ci path =
  match Prog.get prog { Prog.call = ci; arg = path } with
  | v -> Value.scalar v
  | exception Invalid_argument _ -> 0

let resource_at prog ci path =
  match Prog.get prog { Prog.call = ci; arg = path } with
  | Value.Vres i -> Some i
  | _ -> None
  | exception Invalid_argument _ -> None

let eval_pred prog (objects : Exec.kobject option array) ci
    (pred : Ir.predicate) =
  match pred with
  | Ir.Arg { path; cmp; const; _ } ->
    Ir.eval_cmp cmp (scalar_at prog ci path) const
  | Ir.Res_valid { path; _ } -> (
    match resource_at prog ci path with
    | Some i -> i >= 0 && i < ci && objects.(i) <> None
    | None -> false)
  | Ir.Res_state { path; field; cmp; const; _ } -> (
    match resource_at prog ci path with
    | Some i when i >= 0 && i < ci -> (
      match objects.(i) with
      | Some obj ->
        let v =
          match field with
          | `Mode -> obj.Exec.mode
          | `Oflags -> obj.Exec.oflags
        in
        Ir.eval_cmp cmp v const
      | None -> false)
    | Some _ | None -> false)

(* Walk one handler; returns visited blocks in order and whether a crash
   block was reached. Handler regions are acyclic by construction, but a
   step guard keeps the interpreter total regardless. *)
let run_call t prog objects ci =
  let spec = prog.(ci).Prog.spec in
  let entry = handler_entry t spec.Spec.sys_id in
  let visited = ref [] in
  let crashed = ref None in
  let steps = ref 0 in
  let max_steps = num_blocks t + 4 in
  let rec walk bid =
    incr steps;
    if !steps > max_steps then ()
    else begin
      visited := bid :: !visited;
      match (block t bid).Ir.term with
      | Ir.Jump nxt -> walk nxt
      | Ir.Cond { pred; if_true; if_false } ->
        walk (if eval_pred prog objects ci pred then if_true else if_false)
      | Ir.Ret -> ()
      | Ir.Crash bug_id -> crashed := Some bug_id
    end
  in
  walk entry;
  (List.rev !visited, !crashed)

let make_object t prog ci (spec : Spec.t) kind =
  let mode_path, oflags_path = t.built.Build.mode_paths.(spec.Spec.sys_id) in
  let field = function None -> 0 | Some p -> scalar_at prog ci p in
  {
    Exec.okind = kind;
    mode = field mode_path;
    oflags = field oflags_path;
  }

let noise_blocks t rng level =
  let extra = ref [] in
  if Rng.coin rng level then begin
    (* A timer-interrupt-style run through the background chain. *)
    let bg = Array.of_list (background_blocks t) in
    let start = Rng.int rng (Array.length bg) in
    let len = min (Rng.int_in rng 2 8) (Array.length bg - start) in
    for i = start + len - 1 downto start do
      extra := bg.(i) :: !extra
    done
  end;
  if Rng.coin rng (level /. 2.0) then begin
    (* Phantom blocks from unrelated handlers (network-RPC pollution). *)
    let n = Rng.int_in rng 1 3 in
    for _ = 1 to n do
      extra := Rng.int rng (num_blocks t) :: !extra
    done
  end;
  !extra

let execute ?noise t (prog : Prog.t) : Exec.result =
  let n = Array.length prog in
  let objects = Array.make n None in
  let covered = Bitset.create (num_blocks t) in
  let covered_edges =
    Bitset.create (Sp_cfg.Cfg.num_edges t.built.Build.cfg)
  in
  let record_run blocks =
    let edge_of b1 b2 =
      let arr = t.succ_edges.(b1) in
      let rec find i =
        if i >= Array.length arr then None
        else
          let dst, e = arr.(i) in
          if dst = b2 then Some e else find (i + 1)
      in
      find 0
    in
    let rec go = function
      | [] -> ()
      | [ b ] -> Bitset.add covered b
      | b1 :: (b2 :: _ as rest) ->
        Bitset.add covered b1;
        (match edge_of b1 b2 with
        | Some e -> Bitset.add covered_edges e
        | None -> ());
        go rest
    in
    go blocks
  in
  let traces = ref [] in
  let crash = ref None in
  let ci = ref 0 in
  while !ci < n && !crash = None do
    let visited, crashed = run_call t prog objects !ci in
    let visited =
      match noise with
      | Some (rng, level) when level > 0.0 -> visited @ noise_blocks t rng level
      | Some _ | None -> visited
    in
    record_run visited;
    traces := { Exec.call_idx = !ci; visited } :: !traces;
    (match crashed with
    | Some bug_id ->
      crash := Some { Exec.bug = bug t bug_id; crash_call = !ci }
    | None ->
      let spec = prog.(!ci).Prog.spec in
      (match spec.Spec.ret with
      | Some kind -> objects.(!ci) <- Some (make_object t prog !ci spec kind)
      | None -> ()));
    incr ci
  done;
  {
    Exec.traces = List.rev !traces;
    crash = !crash;
    covered;
    covered_edges;
    objects;
  }
