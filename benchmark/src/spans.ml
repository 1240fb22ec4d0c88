(* Completed spans of an exported Chrome trace (Sp_obs.Trace.export):
   every matched B/E pair per (pid, tid) lane, with its interval. *)

module J = Sp_obs.Json

type span = { name : string; pid : int; start_us : float; end_us : float }

let of_trace trace =
  let events =
    match Option.bind (J.member "traceEvents" trace) J.arr_opt with
    | Some evs -> evs
    | None -> invalid_arg "Spans.of_trace: no traceEvents array"
  in
  let stacks = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun ev ->
      let str k = Option.bind (J.member k ev) J.str_opt in
      let num k = Option.bind (J.member k ev) J.num_opt in
      match (str "ph", str "name", num "pid", num "tid", num "ts") with
      | Some ph, Some name, Some pid, Some tid, Some ts -> (
        let lane = (int_of_float pid, int_of_float tid) in
        let stack = Option.value (Hashtbl.find_opt stacks lane) ~default:[] in
        match (ph, stack) with
        | "B", _ -> Hashtbl.replace stacks lane ((name, ts) :: stack)
        | "E", (open_name, start_us) :: rest when open_name = name ->
          Hashtbl.replace stacks lane rest;
          out := { name; pid = fst lane; start_us; end_us = ts } :: !out
        | _ -> ())
      | _ -> ())
    events;
  List.rev !out

let named spans name = List.filter (fun s -> s.name = name) spans

let total_s spans name =
  List.fold_left (fun acc s -> acc +. (s.end_us -. s.start_us)) 0.0 (named spans name)
  /. 1e6

let durations_ms spans name =
  List.map (fun s -> (s.end_us -. s.start_us) /. 1e3) (named spans name)

(* Wall time covered by at least one span of [name], on any lane: the
   spans of concurrent tenants overlap, and their sum would count the
   shared time twice. *)
let union_s spans name =
  let sorted =
    List.sort (fun a b -> Float.compare a.start_us b.start_us) (named spans name)
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) s ->
        match cur with
        | Some (lo, hi) when s.start_us <= hi -> (acc, Some (lo, Float.max hi s.end_us))
        | Some (lo, hi) -> (acc +. (hi -. lo), Some (s.start_us, s.end_us))
        | None -> (acc, Some (s.start_us, s.end_us)))
      (0.0, None) sorted
  in
  (match last with Some (lo, hi) -> covered +. (hi -. lo) | None -> covered) /. 1e6
