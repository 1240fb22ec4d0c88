(* Order statistics for benchmark results, on top of Sp_util.Stats.
   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method), the rule the spread of a metric is judged by in
   benchmark/README.md, so a number printed here and one recomputed from
   raw samples agree. *)

module Stats = Sp_util.Stats

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let median = Stats.median

let percentile = Stats.percentile

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stat.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let summarize xs =
  let q1, q3 = quartiles xs in
  let min, max = Stats.min_max xs in
  { median = median xs; q1; q3; min; max; n = List.length xs }

let max_tail_percentile n =
  if n <= 0 then 0.0 else 100.0 *. (1.0 -. (10.0 /. float_of_int n))

(* A tail percentile is only reported where at least ten samples lie
   beyond it; with fewer samples the wanted percentile is lowered to the
   highest one that qualifies, but never below the median. *)
let tail xs ~want =
  let p = Float.max 50.0 (Float.min want (max_tail_percentile (List.length xs))) in
  (p, percentile xs p)
