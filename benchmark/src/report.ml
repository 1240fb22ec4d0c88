(* Report documents: what one run measured, with provenance and the
   spread of every metric, and the verdicts of comparing pairs of runs of
   two programs. *)

module J = Sp_obs.Json
module D = J.Decode

(* A reported value and the distribution of the samples it comes from:
   per-campaign values, set-ups, or pooled barrier intervals. *)
type metric = { value : float; dist : Stat.summary }

type workload = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** failed correctness checks, one line each *)
  notes : string list;  (** caveats about the numbers, e.g. a lowered percentile *)
  metrics : (string * metric) list;
}

type t = { provenance : (string * J.t) list; workloads : workload list }

let num f = J.Num f

let int i = J.Num (float_of_int i)

let metric_json name m =
  let s = m.dist in
  let tags =
    match Catalog.find name with
    | None -> []
    | Some d ->
      [ ("unit", J.Str d.Catalog.unit_);
        ("better", J.Str (Catalog.better_to_string d.Catalog.better));
        ("kind", J.Str (Catalog.kind_to_string d.Catalog.kind))
      ]
  in
  J.Obj
    ([ ("value", num m.value); ("median", num s.Stat.median); ("q1", num s.Stat.q1);
       ("q3", num s.Stat.q3); ("min", num s.Stat.min); ("max", num s.Stat.max);
       ("n", int s.Stat.n) ]
    @ tags)

let workload_json w =
  J.Obj
    [ ("workload", J.Str w.workload);
      ("correct", J.Bool w.correct);
      ("attempted", int w.attempted);
      ("failed", int w.failed);
      ("problems", J.Arr (List.map (fun s -> J.Str s) w.problems));
      ("notes", J.Arr (List.map (fun s -> J.Str s) w.notes));
      ("metrics", J.Obj (List.map (fun (n, m) -> (n, metric_json n m)) w.metrics))
    ]

let to_json t =
  J.Obj
    [ ("provenance", J.Obj t.provenance);
      ("workloads", J.Arr (List.map workload_json t.workloads))
    ]

let strings field j = List.filter_map J.str_opt (D.arr_field field j)

let workload_of_json j =
  let metric m =
    {
      value = D.num_field "value" m;
      dist =
        {
          Stat.median = D.num_field "median" m;
          q1 = D.num_field "q1" m;
          q3 = D.num_field "q3" m;
          min = D.num_field "min" m;
          max = D.num_field "max" m;
          n = D.int_field "n" m;
        };
    }
  in
  {
    workload = D.str_field "workload" j;
    correct = D.bool_field "correct" j;
    attempted = D.int_field "attempted" j;
    failed = D.int_field "failed" j;
    problems = strings "problems" j;
    notes = strings "notes" j;
    metrics =
      (match D.obj_field "metrics" j with
      | J.Obj fields -> List.map (fun (n, m) -> (n, metric m)) fields
      | _ -> []);
  }

let of_json j =
  D.run (fun () ->
      {
        provenance =
          (match D.obj_field "provenance" j with J.Obj f -> f | _ -> []);
        workloads = List.map workload_of_json (D.arr_field "workloads" j);
      })

(* The machine-readable summary: one object, printed as the last line of
   standard output. With several workloads, each metric name is prefixed
   with its workload's name and a slash, and the counts are summed. *)
let contract_line ws =
  let value prefix (name, m) =
    let unit_ =
      match Catalog.find name with Some d -> d.Catalog.unit_ | None -> ""
    in
    (prefix ^ name, J.Obj [ ("value", num m.value); ("unit", J.Str unit_) ])
  in
  let metrics =
    match ws with
    | [ w ] -> List.map (value "") w.metrics
    | _ -> List.concat_map (fun w -> List.map (value (w.workload ^ "/")) w.metrics) ws
  in
  let total f = List.fold_left (fun acc w -> acc + f w) 0 ws in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (List.for_all (fun w -> w.correct) ws));
         ("attempted", int (total (fun w -> w.attempted)));
         ("failed", int (total (fun w -> w.failed)));
         ("metrics", J.Obj metrics)
       ])

type verdict = Better | Unchanged | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* A gain is claimed only on at least this many pairs of runs. *)
let min_pairs = 10

(* Quartile distance over the median of one side's run values; unknown
   (infinite) with fewer than two runs. *)
let run_spread xs =
  match xs with
  | [] | [ _ ] -> Float.infinity
  | _ ->
    let q1, q3 = Stat.quartiles xs in
    let m = Float.abs (Stat.median xs) in
    if q3 = q1 then 0.0 else if m = 0.0 then Float.infinity else (q3 -. q1) /. m

let beats better a b = match better with Catalog.Higher -> a > b | Catalog.Lower -> a < b

(* Pairs (base, new) in which the new run reads better. *)
let wins better pairs = List.length (List.filter (fun (b, n) -> beats better n b) pairs)

(* Relative change of the median from [base] to [next], positive in the
   metric's good direction. *)
let change ~better ~base ~next =
  let d = match better with Catalog.Higher -> next -. base | Catalog.Lower -> base -. next in
  if d = 0.0 then 0.0 else if base = 0.0 then Float.copy_sign Float.infinity d
  else d /. Float.abs base

(* The verdict on one metric from [pairs] of run values (base, new), one
   pair per alternation of the two programs:
   - better: [may_gain], at least [min_pairs] pairs, the new side wins
     nine tenths of them (ties count for neither), and its median is on
     the good side of the base median by more than the base runs' quartile
     distance;
   - unresolved: either side's runs spread wider than [bound], unless
     every new run beats every base run (then unchanged);
   - worse: the median moved the bad way by more than [bound];
   - unchanged: otherwise. *)
let verdict ?(may_gain = true) ~better ~bound pairs =
  let base = List.map fst pairs and next = List.map snd pairs in
  let beats = beats better in
  let mb = Stat.median base and mn = Stat.median next in
  let k = List.length pairs in
  let base_iqr = let q1, q3 = Stat.quartiles base in q3 -. q1 in
  if may_gain && k >= min_pairs && 10 * wins better pairs >= 9 * k && beats mn mb
     && Float.abs (mn -. mb) > base_iqr
  then Better
  else if Float.max (run_spread base) (run_spread next) > bound then
    if List.for_all (fun n -> List.for_all (beats n) base) next then Unchanged else Unresolved
  else if change ~better ~base:mb ~next:mn < -.bound then Worse
  else Unchanged

type bound = { b_name : string; b_better : Catalog.better; b_bound : float }

(* The end-to-end entries of BENCHMARK.json. *)
let bounds_of_benchmark j =
  D.run (fun () ->
      List.map
        (fun e ->
          {
            b_name = D.str_field "name" e;
            b_better =
              (match D.str_field "better" e with
              | "higher" -> Catalog.Higher
              | "lower" -> Catalog.Lower
              | s -> D.error "better: %S is neither higher nor lower" s);
            b_bound = D.num_field "bound" e;
          })
        (D.arr_field "end_to_end" j))

type row = {
  r_workload : string;
  r_metric : string;
  r_base : float;  (** median of the base runs' values *)
  r_next : float;  (** median of the new runs' values *)
  r_change : float;  (** relative, positive in the good direction *)
  r_spread : float;  (** the wider side's quartile distance over median *)
  r_wins : int;
  r_pairs : int;
  r_verdict : verdict;
}

let started doc =
  match List.assoc_opt "started" doc.provenance with Some (J.Num t) -> Some t | _ -> None

(* Whether the base program ran first in about half the pairs (the counts
   differ by at most one), so that a drift of the host's speed favours
   neither side; false when a document has no start time. *)
let alternated pairs =
  let firsts =
    List.map
      (fun (b, n) ->
        match (started b, started n) with Some tb, Some tn -> Some (tb < tn) | _ -> None)
      pairs
  in
  List.for_all Option.is_some firsts
  &&
  let base_first = List.length (List.filter (( = ) (Some true)) firsts) in
  abs ((2 * base_first) - List.length pairs) <= 1

(* One row per workload and end-to-end metric that every document of
   [pairs] (base, new) reports; each document contributes its run value.
   No gain is claimed unless the pairs alternate which program ran first
   and the new runs fail no more campaigns than the base runs. *)
let compare ~bounds pairs =
  let alternated = alternated pairs in
  let find doc name = List.find_opt (fun w -> w.workload = name) doc.workloads in
  let names =
    match pairs with [] -> [] | (_, n) :: _ -> List.map (fun w -> w.workload) n.workloads
  in
  List.concat_map
    (fun name ->
      let sides =
        List.filter_map
          (fun (b, n) ->
            match (find b name, find n name) with Some bw, Some nw -> Some (bw, nw) | _ -> None)
          pairs
      in
      if List.length sides <> List.length pairs then []
      else
        let failed side = List.fold_left (fun acc p -> acc + (side p).failed) 0 sides in
        List.filter_map
          (fun b ->
            let values =
              List.filter_map
                (fun (bw, nw) ->
                  match (List.assoc_opt b.b_name bw.metrics, List.assoc_opt b.b_name nw.metrics) with
                  | Some bm, Some nm -> Some (bm.value, nm.value)
                  | _ -> None)
                sides
            in
            if List.length values <> List.length sides then None
            else
              let base = List.map fst values and next = List.map snd values in
              let mb = Stat.median base and mn = Stat.median next in
              let better = b.b_better in
              Some
                {
                  r_workload = name;
                  r_metric = b.b_name;
                  r_base = mb;
                  r_next = mn;
                  r_change = change ~better ~base:mb ~next:mn;
                  r_spread = Float.max (run_spread base) (run_spread next);
                  r_wins = wins better values;
                  r_pairs = List.length values;
                  r_verdict =
                    verdict
                      ~may_gain:(alternated && failed snd <= failed fst)
                      ~better ~bound:b.b_bound values;
                })
          bounds)
    names
