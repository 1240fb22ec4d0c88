type span_stat = {
  span : string;
  spans : int;
  total_us : float;
  max_us : float;
}

type counter_stat = { counter : string; samples : int; last : float }

type summary = {
  events : int;
  pids : int list;
  span_stats : span_stat list;
  counter_stats : counter_stat list;
  instants : (string * int) list;
  dropped : (int * int) list;
}

let total_dropped s = List.fold_left (fun acc (_, d) -> acc + d) 0 s.dropped

type lane = {
  mutable last_ts : float;
  mutable stack : (string * float) list;  (* open spans: (name, begin ts) *)
}

let validate json =
  match Json.member "traceEvents" json with
  | None -> Error "trace: no \"traceEvents\" array at top level"
  | Some events_json -> (
    match Json.arr_opt events_json with
    | None -> Error "trace: \"traceEvents\" is not an array"
    | Some events -> (
      let lanes : (int * int, lane) Hashtbl.t = Hashtbl.create 8 in
      let span_acc : (string, int * float * float) Hashtbl.t =
        Hashtbl.create 16
      in
      let counter_acc : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
      let instant_acc : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let dropped_acc : (int, int) Hashtbl.t = Hashtbl.create 4 in
      let count = ref 0 in
      let check_event i ev =
        let get field conv what =
          match Option.bind (Json.member field ev) conv with
          | Some v -> Ok v
          | None ->
            Error (Printf.sprintf "trace: event %d: missing %s %S" i what field)
        in
        Result.bind (get "name" Json.str_opt "string") @@ fun name ->
        Result.bind (get "ph" Json.str_opt "string") @@ fun ph ->
        Result.bind (get "pid" Json.num_opt "number") @@ fun pid ->
        Result.bind (get "tid" Json.num_opt "number") @@ fun tid ->
        if String.equal ph "M" then begin
          (* Metadata: no timestamp contract. [trace_dropped] carries the
             emitting tracer's ring-eviction count (satellite of the
             truncation-warning machinery in [stats]). *)
          if String.equal name "trace_dropped" then begin
            let d =
              match
                Option.bind (Json.member "args" ev) (Json.member "dropped")
              with
              | Some (Json.Num v) -> int_of_float v
              | Some _ | None -> 0
            in
            let p = int_of_float pid in
            Hashtbl.replace dropped_acc p
              (d + Option.value ~default:0 (Hashtbl.find_opt dropped_acc p))
          end;
          Ok ()
        end
        else begin
          Result.bind (get "ts" Json.num_opt "number") @@ fun ts ->
          incr count;
          let key = (int_of_float pid, int_of_float tid) in
          let lane =
            match Hashtbl.find_opt lanes key with
            | Some l -> l
            | None ->
              let l = { last_ts = neg_infinity; stack = [] } in
              Hashtbl.add lanes key l;
              l
          in
          if ts < lane.last_ts then
            Error
              (Printf.sprintf
                 "trace: event %d (%s): timestamp %g < %g, lane (%d,%d) not \
                  monotone"
                 i name ts lane.last_ts (fst key) (snd key))
          else begin
            lane.last_ts <- ts;
            match ph with
            | "B" ->
              lane.stack <- (name, ts) :: lane.stack;
              Ok ()
            | "E" -> (
              match lane.stack with
              | (bname, bts) :: rest when String.equal bname name ->
                lane.stack <- rest;
                let d = ts -. bts in
                let n, total, mx =
                  Option.value ~default:(0, 0.0, 0.0)
                    (Hashtbl.find_opt span_acc name)
                in
                Hashtbl.replace span_acc name
                  (n + 1, total +. d, Float.max mx d);
                Ok ()
              | (bname, _) :: _ ->
                Error
                  (Printf.sprintf
                     "trace: event %d: E %S closes open span %S on lane (%d,%d)"
                     i name bname (fst key) (snd key))
              | [] ->
                Error
                  (Printf.sprintf
                     "trace: event %d: E %S with no open span on lane (%d,%d)"
                     i name (fst key) (snd key)))
            | "I" ->
              Hashtbl.replace instant_acc name
                (1 + Option.value ~default:0 (Hashtbl.find_opt instant_acc name));
              Ok ()
            | "C" ->
              let v =
                match
                  Option.bind (Json.member "args" ev) (Json.member "value")
                with
                | Some (Json.Num v) -> v
                | Some _ | None -> 0.0
              in
              let n, _ =
                Option.value ~default:(0, 0.0) (Hashtbl.find_opt counter_acc name)
              in
              Hashtbl.replace counter_acc name (n + 1, v);
              Ok ()
            | ph ->
              Error (Printf.sprintf "trace: event %d: unknown phase %S" i ph)
          end
        end
      in
      let rec go i = function
        | [] -> Ok ()
        | ev :: rest -> (
          match check_event i ev with
          | Ok () -> go (i + 1) rest
          | Error _ as e -> e)
      in
      match go 0 events with
      | Error e -> Error e
      | Ok () ->
        let unclosed = ref None in
        Hashtbl.iter
          (fun (pid, tid) lane ->
            match lane.stack with
            | (name, _) :: _ when !unclosed = None ->
              unclosed := Some (pid, tid, name)
            | _ -> ())
          lanes;
        (match !unclosed with
        | Some (pid, tid, name) ->
          Error
            (Printf.sprintf "trace: unclosed span %S on lane (%d,%d)" name pid
               tid)
        | None ->
          let span_stats =
            Hashtbl.fold
              (fun span (spans, total_us, max_us) acc ->
                { span; spans; total_us; max_us } :: acc)
              span_acc []
            |> List.sort (fun a b ->
                   match compare b.total_us a.total_us with
                   | 0 -> compare a.span b.span
                   | c -> c)
          in
          let counter_stats =
            Hashtbl.fold
              (fun counter (samples, last) acc ->
                { counter; samples; last } :: acc)
              counter_acc []
            |> List.sort (fun a b -> compare a.counter b.counter)
          in
          let instants =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) instant_acc []
            |> List.sort compare
          in
          let pids =
            Hashtbl.fold (fun (pid, _) _ acc -> pid :: acc) lanes []
            |> List.sort_uniq compare
          in
          let dropped =
            Hashtbl.fold (fun pid d acc -> (pid, d) :: acc) dropped_acc []
            |> List.sort compare
          in
          Ok { events = !count; pids; span_stats; counter_stats; instants;
               dropped })))

let has_span summary name =
  List.exists (fun s -> String.equal s.span name) summary.span_stats

let has_counter summary name =
  List.exists (fun c -> String.equal c.counter name) summary.counter_stats

let problems ~strict ~expect_spans s =
  (if strict && s.dropped <> [] then
     [ Printf.sprintf "%d event(s) dropped from bounded rings" (total_dropped s) ]
   else [])
  @ List.filter_map
      (fun name ->
        if has_span s name then None
        else Some (Printf.sprintf "expected span %S missing" name))
      expect_spans
