(** The comparison behind [snowplow bench-diff]: a fresh benchmark run
    against the committed [BENCH_*.json] trajectories.

    The committed files carry full-workload numbers, a CI quick-mode
    rerun small ones, so the comparison is structural plus banded: key
    sets must match, every value must be finite (and positive where the
    key names a time, rate, count or ratio), the committed baselines
    must clear absolute floors, and the fresh run's scale-free ratios
    reduced quick-mode bars. *)

type bound = {
  experiment : string;  (** e.g. ["E11"] *)
  key : string;
  min : float;
}

type fields = (string * float) list
(** A trajectory's numeric top-level fields, in file order. *)

val positive_key : string -> bool
(** The key contains [_s], [per_s], [qps], [execs], [ratio] or [speedup]
    (any case). *)

val experiments : baseline_dir:string -> fresh_dir:string -> string list
(** Every [BENCH_<E>.json] under [baseline_dir] with a fresh counterpart,
    as sorted experiment names. *)

val compare :
  floors:bound list -> bars:bound list -> string -> baseline:fields -> fresh:fields -> string list
(** One experiment's problems, [[]] when it passes: differing key sets,
    non-finite or non-positive values, a baseline under a floor or a
    fresh value under a bar (or missing the bounded key). *)

type outcome = {
  compared : (string * int) list;
      (** experiments whose files both read, with the baseline's metric
          count *)
  values : int;  (** metric values checked, both sides *)
  problems : string list;
}

val run :
  floors:bound list ->
  bars:bound list ->
  baseline_dir:string ->
  fresh_dir:string ->
  string list ->
  outcome
(** {!compare} each named experiment's file pair; an unreadable or
    non-object file is a problem too. *)
