module Json = Sp_obs.Json
module D = Json.Decode

type state = Closed | Open | Half_open

type config = {
  error_threshold : int;
  latency_threshold : float;
  cooldown : float;
}

let default_config =
  { error_threshold = 3; latency_threshold = 10.0; cooldown = 1200.0 }

type t = {
  cfg : config;
  mutable st : state;
  mutable errors : int;  (* consecutive *)
  mutable opened_at : float;
  mutable trips : int;
  mutable probes : int;
}

let create ?(config = default_config) () =
  if config.error_threshold < 1 then
    invalid_arg "Breaker.create: error_threshold must be >= 1";
  if not (config.latency_threshold > 0.0) then
    invalid_arg "Breaker.create: latency_threshold must be > 0";
  if not (config.cooldown > 0.0) then
    invalid_arg "Breaker.create: cooldown must be > 0";
  { cfg = config; st = Closed; errors = 0; opened_at = 0.0; trips = 0; probes = 0 }

let config t = t.cfg

let peek t ~now =
  match t.st with
  | Open when now >= t.opened_at +. t.cfg.cooldown -> Half_open
  | st -> st

let state t ~now =
  t.st <- peek t ~now;
  t.st

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let trip t ~now =
  t.st <- Open;
  t.opened_at <- now;
  t.trips <- t.trips + 1;
  t.errors <- 0

let record_error t ~now =
  match state t ~now with
  | Half_open -> trip t ~now (* failed probe: restart the cooldown *)
  | Open -> () (* shed traffic should not be reaching the service *)
  | Closed ->
      t.errors <- t.errors + 1;
      if t.errors >= t.cfg.error_threshold then trip t ~now

let record_success t ~now ~latency =
  if latency > t.cfg.latency_threshold then record_error t ~now
  else
    match state t ~now with
    | Half_open ->
        t.st <- Closed;
        t.errors <- 0
    | Closed -> t.errors <- 0
    | Open -> ()

let note_probe t = t.probes <- t.probes + 1

let consecutive_errors t = t.errors

let trips t = t.trips

let probes t = t.probes

let is_default t =
  t.st = Closed && t.errors = 0 && t.trips = 0 && t.probes = 0
  && t.opened_at = 0.0

let state_code = function Closed -> 0 | Open -> 1 | Half_open -> 2

let state_of_code = function
  | 0 -> Closed
  | 1 -> Open
  | 2 -> Half_open
  | n -> D.error "breaker state: unknown code %d" n

let state_json t =
  Json.Obj
    [
      ("state", Json.Num (float_of_int (state_code t.st)));
      ("errors", Json.Num (float_of_int t.errors));
      ("opened_at", Json.Num t.opened_at);
      ("trips", Json.Num (float_of_int t.trips));
      ("probes", Json.Num (float_of_int t.probes));
    ]

let restore_state t j =
  let st = state_of_code (D.int_field "state" j) in
  let errors = D.int_field "errors" j in
  let opened_at = D.num_field "opened_at" j in
  let trips = D.int_field "trips" j in
  let probes = D.int_field "probes" j in
  t.st <- st;
  t.errors <- errors;
  t.opened_at <- opened_at;
  t.trips <- trips;
  t.probes <- probes
