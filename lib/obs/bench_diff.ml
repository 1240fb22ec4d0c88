type bound = { experiment : string; key : string; min : float }

type fields = (string * float) list

(* Ratio metrics (speedups included — a 1-core host can make them < 1)
   only need to be positive too, so one rule covers everything
   measured. *)
let positive_key key =
  let lk = String.lowercase_ascii key in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length lk && (String.sub lk i n = sub || go (i + 1))
    in
    go 0
  in
  List.exists has [ "_s"; "per_s"; "qps"; "execs"; "ratio"; "speedup" ]

let read_fields path =
  match Json.of_string (Io.read_file path) with
  | exception Sys_error e -> Error e
  | Error e -> Error (Printf.sprintf "JSON parse error: %s" e)
  | Ok (Json.Obj fields) ->
    Ok
      (List.filter_map
         (fun (k, v) -> match v with Json.Num n -> Some (k, n) | _ -> None)
         fields)
  | Ok _ -> Error "expected a JSON object"

let file dir e = Filename.concat dir ("BENCH_" ^ e ^ ".json")

let experiments ~baseline_dir ~fresh_dir =
  Sys.readdir baseline_dir |> Array.to_list
  |> List.filter_map (fun name ->
         match Scanf.sscanf_opt name "BENCH_%s@.json%!" Fun.id with
         | Some e when Sys.file_exists (file fresh_dir e) -> Some e
         | Some _ | None -> None)
  |> List.sort compare

let compare ~floors ~bars e ~baseline ~fresh =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let keys l = List.sort Stdlib.compare (List.map fst l) in
  if keys baseline <> keys fresh then
    problem "%s: metric key sets differ (baseline: %s; fresh: %s)" e
      (String.concat "," (keys baseline))
      (String.concat "," (keys fresh));
  List.iter
    (fun (side, fields) ->
      List.iter
        (fun (k, v) ->
          if not (Float.is_finite v) then
            problem "%s: %s %s is not finite (%g)" e side k v
          else if positive_key k && v <= 0.0 then
            problem "%s: %s %s must be positive, got %g" e side k v)
        fields)
    [ ("baseline", baseline); ("fresh", fresh) ];
  let bounded bounds fields ~missing ~below =
    List.iter
      (fun b ->
        if b.experiment = e then
          match List.assoc_opt b.key fields with
          | None -> problem "%s: %s is missing %s" e missing b.key
          | Some v -> if v < b.min then problem "%s: %s" e (below b v))
      bounds
  in
  bounded floors baseline ~missing:"baseline" ~below:(fun b v ->
      Printf.sprintf
        "committed baseline %s = %g is below the %g floor (perf rot in the committed \
         trajectory)"
        b.key v b.min);
  bounded bars fresh ~missing:"fresh run" ~below:(fun b v ->
      Printf.sprintf "fresh %s = %g is below the %g quick-mode bar" b.key v b.min);
  List.rev !problems

type outcome = { compared : (string * int) list; values : int; problems : string list }

let run ~floors ~bars ~baseline_dir ~fresh_dir experiments =
  List.fold_left
    (fun acc e ->
      let unreadable side dir err =
        let p = Printf.sprintf "%s: %s %s: %s" e side (file dir e) err in
        { acc with problems = acc.problems @ [ p ] }
      in
      match (read_fields (file baseline_dir e), read_fields (file fresh_dir e)) with
      | Error err, _ -> unreadable "baseline" baseline_dir err
      | _, Error err -> unreadable "fresh" fresh_dir err
      | Ok baseline, Ok fresh ->
        {
          compared = acc.compared @ [ (e, List.length baseline) ];
          values = acc.values + List.length baseline + List.length fresh;
          problems = acc.problems @ compare ~floors ~bars e ~baseline ~fresh;
        })
    { compared = []; values = 0; problems = [] }
    experiments
