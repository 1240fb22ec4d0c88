(* JSON codecs for the snowplow-layer snapshot state (inference service,
   funnel, prediction caches). Programs that must run again travel as
   their canonical text — the same convention as the campaign snapshots
   — and program identities as fixed-width hex fingerprints. *)

module Json = Sp_obs.Json
module Prog = Sp_syzlang.Prog

let prog_to_json p = Json.Str (Prog.to_string p)

let prog_of_json ~parse name j =
  match j with
  | Json.Str s -> (
    match parse s with
    | Ok p -> p
    | Error msg -> Json.Decode.error "%s: %s" name msg)
  | _ -> Json.Decode.error "%s: expected a program string" name

let path_to_json (p : Prog.path) =
  Json.Obj
    [ ("call", Json.Num (float_of_int p.Prog.call));
      ( "arg",
        Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) p.Prog.arg) )
    ]

let path_of_json j =
  let open Json.Decode in
  {
    Prog.call = int_field "call" j;
    arg =
      List.map
        (function
          | Json.Num f when Float.is_integer f -> int_of_float f
          | _ -> error "path arg: expected integers")
        (arr_field "arg" j);
  }

let paths_to_json ps = Json.Arr (List.map path_to_json ps)

let paths_of_json j =
  match j with
  | Json.Arr items -> List.map path_of_json items
  | _ -> Json.Decode.error "paths: expected array"

let fingerprint_to_json fp = Json.Str (Prog.fingerprint_to_hex fp)

let fingerprint_of_json name j =
  match j with
  | Json.Str s -> (
    match Prog.fingerprint_of_hex s with
    | Some fp -> fp
    | None -> Json.Decode.error "%s: bad fingerprint %S" name s)
  | _ -> Json.Decode.error "%s: expected a fingerprint string" name

let int_list_to_json xs =
  Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) xs)

let int_list_of_json name j =
  match j with
  | Json.Arr items ->
    List.map
      (function
        | Json.Num f when Float.is_integer f -> int_of_float f
        | _ -> Json.Decode.error "%s: expected integers" name)
      items
  | _ -> Json.Decode.error "%s: expected array" name

(* An LRU cache as a JSON array, most recently used first, each element
   [{"key", "written_at", "value"}]. Restoring re-puts oldest-first with
   [~now:written_at], which reconstructs both the recency order and the
   TTL stamps exactly. *)
let lru_to_json ~key_to_json ~value_to_json lru =
  Json.Arr
    (List.map
       (fun (k, v, written_at) ->
         Json.Obj
           [ ("key", key_to_json k);
             ("written_at", Json.Num written_at);
             ("value", value_to_json v)
           ])
       (Sp_util.Lru.to_list lru))

let lru_restore ~key_of_json ~value_of_json lru j =
  let open Json.Decode in
  match j with
  | Json.Arr items ->
    Sp_util.Lru.clear lru;
    List.iter
      (fun it ->
        let k = key_of_json (field "key" it) in
        let written_at = num_field "written_at" it in
        let v = value_of_json (field "value" it) in
        Sp_util.Lru.put lru ~now:written_at k v)
      (List.rev items)
  | _ -> error "lru: expected array"
