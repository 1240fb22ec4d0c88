type sample = { health : Json.t; tenants : Json.t; metrics : string }

let parse_target s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "--connect %S: expected HOST:PORT" s)
  | Some i -> (
    let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p > 0 && p < 65536 -> Ok (host, p)
    | Some _ | None -> Error (Printf.sprintf "--connect %S: bad port" s))

let get ~host ~port path =
  match Http.get ~host ~port path with
  | Ok (200, _, body) -> Ok body
  | Ok (code, _, _) -> Error (Printf.sprintf "GET %s: HTTP %d" path code)
  | Error e -> Error (Printf.sprintf "GET %s: %s" path e)

(* [attempt] every 250 ms until it is [Ok] or [retry_for] seconds pass;
   its last result. *)
let retry ~retry_for attempt =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec go () =
    match attempt () with
    | Error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.25;
      go ()
    | r -> r
  in
  go ()

let wait ~host ~port ~retry_for =
  retry ~retry_for (fun () -> Result.map ignore (get ~host ~port "/health"))

let fetch ~host ~port =
  let ( let* ) = Result.bind in
  let* health = get ~host ~port "/health" in
  let* tenants = get ~host ~port "/tenants" in
  let* metrics = get ~host ~port "/metrics" in
  let doc path text =
    Result.map_error (Printf.sprintf "%s: JSON parse error: %s" path) (Json.of_string text)
  in
  let* health = doc "/health" health in
  let* tenants = doc "/tenants" tenants in
  Ok { health; tenants; metrics }

let check sample =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Exposition.validate sample.metrics with
  | Error e -> problem "/metrics: invalid exposition: %s" e
  | Ok x ->
    if x.Exposition.x_samples = 0 then problem "/metrics: no samples";
    List.iter
      (fun name ->
        if not (List.mem name x.Exposition.x_names) then
          problem "/metrics: expected family %s missing" name)
      [ "snowplow_scheduler_slices"; "snowplow_tenant_state"; "snowplow_tenant_executions" ]);
  (match sample.health with
  | Json.Obj _ ->
    if Option.bind (Json.member "status" sample.health) Json.str_opt = None then
      problem "/health: missing status"
  | _ -> problem "/health: expected an object");
  (match sample.tenants with
  | Json.Arr (_ :: _) -> ()
  | Json.Arr [] -> problem "/tenants: empty roster"
  | _ -> problem "/tenants: expected an array");
  List.rev !problems

let fetch_checked ~host ~port ~retry_for =
  let checked () =
    match fetch ~host ~port with
    | Error e -> Ok (Error e)
    | Ok sample -> (
      match check sample with [] -> Ok (Ok (sample, [])) | ps -> Error (sample, ps))
  in
  match retry ~retry_for checked with Ok r -> r | Error last -> Ok last

let to_json s =
  Json.Obj [ ("health", s.health); ("tenants", s.tenants); ("metrics", Json.Str s.metrics) ]

type tenant_row = {
  name : string;
  state : string;
  weight : float;
  slices : int;
  executions : int;
  budget_remaining : int option;
  retries : int;
}

let tenant_rows = function
  | Json.Arr items ->
    List.filter_map
      (fun tj ->
        let str name = Option.bind (Json.member name tj) Json.str_opt in
        let num name = Option.bind (Json.member name tj) Json.num_opt in
        let count name = int_of_float (Option.value ~default:0.0 (num name)) in
        match (str "name", str "state") with
        | Some name, Some state ->
          Some
            {
              name;
              state;
              weight = Option.value ~default:1.0 (num "weight");
              slices = count "slices";
              executions = count "executions";
              budget_remaining = Option.map int_of_float (num "budget_remaining");
              retries = count "retries";
            }
        | _ -> None)
      items
  | _ -> []
