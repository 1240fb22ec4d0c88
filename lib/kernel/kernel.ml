module Rng = Sp_util.Rng
module Bitset = Sp_util.Bitset
module Stampset = Sp_util.Stampset
module Prog = Sp_syzlang.Prog

type t = {
  config : Build.config;
  built : Build.built;
  code : Exec.code;
  (* Per-domain default scratch: [t] is shared across a campaign's shard
     domains, so the fallback scratch for plain [execute]
     calls must be domain-local, never a field mutated from two domains. *)
  default_scratch : Exec.scratch Domain.DLS.key;
}

let generate config =
  let built = Build.build config in
  let code = Exec.compile built in
  {
    config;
    built;
    code;
    default_scratch = Domain.DLS.new_key (fun () -> Exec.create_scratch code);
  }

let default () = generate Build.default_config

let linux_like ~seed ~version =
  let evolve_rounds =
    match version with
    | "6.8" -> 0
    | "6.9" -> 1
    | "6.10" -> 2
    | v -> invalid_arg ("Kernel.linux_like: unknown version " ^ v)
  in
  generate { Build.default_config with seed; version; evolve_rounds }

let version t = t.config.Build.version

let spec_db t = t.built.Build.db

let built t = t.built

let cfg t = t.built.Build.cfg

let num_blocks t = Array.length t.built.Build.blocks

let block t i = t.built.Build.blocks.(i)

let handler_entry t sys = t.built.Build.entries.(sys)

let handler_exit t sys = t.built.Build.exits.(sys)

let bugs t = t.built.Build.bugs

let bug t i = t.built.Build.bugs.(i)

let bug_gate t i = t.built.Build.bug_gates.(i)

type kobject = Exec.kobject = { okind : string; mode : int; oflags : int }

type crash = Exec.crash = { bug : Bug.t; crash_call : int }

type call_trace = Exec.call_trace = { call_idx : int; visited : int list }

type result = Exec.result = {
  traces : call_trace list;
  crash : crash option;
  covered : Bitset.t;
  covered_edges : Bitset.t;
  objects : kobject option array;
}

type scratch = Exec.scratch

let create_scratch t = Exec.create_scratch t.code

let execute_into ?noise t scratch prog = Exec.execute_raw ?noise t.code scratch prog

let scratch_crashed = Exec.crashed

let scratch_crash = Exec.crash_of_scratch

let scratch_blocks = Exec.covered_blocks

let scratch_edges = Exec.covered_edges

let scratch_blocks_bitset = Exec.blocks_bitset

let scratch_edges_bitset = Exec.edges_bitset

let scratch_calls = Exec.num_calls

let scratch_result = Exec.result_of_scratch

let execute ?noise ?scratch t prog =
  let st =
    match scratch with
    | Some st -> st
    | None -> Domain.DLS.get t.default_scratch
  in
  Exec.execute_raw ?noise t.code st prog;
  Exec.result_of_scratch st
