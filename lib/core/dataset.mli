(** Mutation dataset generation (§3.1).

    For every base test of a seed corpus, run many random argument
    mutations through the deterministic executor, keep the {e successful}
    ones (mutant coverage contains blocks the base missed), merge mutations
    that unlocked the same new coverage, and invert each into a training
    example: base test + base coverage + a noisy target set (design option
    (c): a sample of the one-branch-away frontier guaranteed to overlap the
    truly reachable new blocks, at 1 / 25% / 50% / 75% / 100% of the
    frontier) + the argument set to mark MUTATE. Examples whose target
    blocks are over-popular are discarded, and splits are by base test so
    no base leaks across train/valid/eval. *)

type example = {
  base : Sp_syzlang.Prog.t;
  exec : Sp_kernel.Kernel.result;  (** deterministic execution of the base *)
  mutated_args : Sp_syzlang.Prog.path list;  (** merged successful localization *)
  new_blocks : int list;  (** the mutant's coverage minus the base's *)
  targets : int list;  (** the noisy desired-coverage set fed to the model *)
  graph : Query_graph.t;
  prepared : Pmm.prepared;
  labels : float array;  (** aligned with [Pmm.prepared_paths prepared] *)
}

type config = {
  mutations_per_base : int;  (** the paper uses 1000 *)
  max_args_per_mutation : int;
  popularity_cap : int;  (** max examples in which a block appears as target *)
  max_examples_per_base : int;
  noise : float;  (** executor noise level; 0 = Snowplow's collection (§3.1) *)
  exact_targets : bool;
      (** ablation: use §3.1's design option (a) — the exact new coverage —
          instead of the noisy frontier mixture of option (c) *)
  drop_edges : Query_graph.edge_kind list;
      (** ablation: remove edge families from the query graphs *)
  seed : int;
}

val default_config : config

type split = {
  train : example array;
  valid : example array;
  eval : example array;
}

val collect_for_base :
  ?config:config -> Sp_kernel.Kernel.t -> Sp_syzlang.Prog.t -> example list
(** Examples derived from one base test (empty when the base crashes or no
    mutation succeeds). The popularity cap is applied across bases by
    {!collect}. *)

val collect :
  ?config:config -> Sp_kernel.Kernel.t -> bases:Sp_syzlang.Prog.t list -> split
(** Full pipeline over a seed corpus, with the 80/10/10 per-base split. *)

val successful_mutation_rate :
  ?config:config -> Sp_kernel.Kernel.t -> bases:Sp_syzlang.Prog.t list -> float
(** Successful mutations per 1000 random argument mutations — the §5.1
    measurement (the paper reports ~45, and ~44 new tests per 1000 for
    Syzkaller). *)

val stats : split -> (string * float) list
(** The §5.1 dataset statistics: average node/edge counts per kind,
    arguments per test, examples per base. *)
