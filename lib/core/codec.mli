(** JSON codecs shared by the snowplow-layer snapshot state
    ({!Inference.state_json}, {!Funnel.state_json},
    {!Hybrid.predictions_json}). Programs that must run again travel as
    canonical text; cache, memo and inbox keys as the program's
    fingerprint in its 32-digit hex form. All [_of_json] readers raise
    [Sp_obs.Json.Decode.Error] on malformed input. *)

val prog_to_json : Sp_syzlang.Prog.t -> Sp_obs.Json.t

val prog_of_json :
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  string ->
  Sp_obs.Json.t ->
  Sp_syzlang.Prog.t
(** [prog_of_json ~parse name j]; [name] labels decode errors. *)

val path_to_json : Sp_syzlang.Prog.path -> Sp_obs.Json.t

val path_of_json : Sp_obs.Json.t -> Sp_syzlang.Prog.path

val paths_to_json : Sp_syzlang.Prog.path list -> Sp_obs.Json.t

val paths_of_json : Sp_obs.Json.t -> Sp_syzlang.Prog.path list

val fingerprint_to_json : Sp_syzlang.Prog.fingerprint -> Sp_obs.Json.t
(** {!Sp_syzlang.Prog.fingerprint_to_hex} as a JSON string. *)

val fingerprint_of_json : string -> Sp_obs.Json.t -> Sp_syzlang.Prog.fingerprint
(** [fingerprint_of_json name j]; [name] labels decode errors. *)

val int_list_to_json : int list -> Sp_obs.Json.t

val int_list_of_json : string -> Sp_obs.Json.t -> int list

val lru_to_json :
  key_to_json:('k -> Sp_obs.Json.t) ->
  value_to_json:('v -> Sp_obs.Json.t) ->
  ('k, 'v) Sp_util.Lru.t ->
  Sp_obs.Json.t
(** Entries most recently used first, each with its TTL write stamp. *)

val lru_restore :
  key_of_json:(Sp_obs.Json.t -> 'k) ->
  value_of_json:(Sp_obs.Json.t -> 'v) ->
  ('k, 'v) Sp_util.Lru.t ->
  Sp_obs.Json.t ->
  unit
(** Clear [lru], then re-put the serialized entries oldest-first with
    their original write stamps — recency order, TTL stamps and future
    eviction behavior all match the cache that was serialized (the
    cache must have been created with the same capacity/TTL). *)
