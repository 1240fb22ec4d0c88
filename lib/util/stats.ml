let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ ->
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then arr.(lo)
    else
      let frac = rank -. float_of_int lo in
      (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)

let median xs = percentile xs 50.0

let geomean = function
  | [] -> 0.0
  | xs -> exp (mean (List.map log xs))
