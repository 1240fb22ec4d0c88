(** Client side of the telemetry plane: what [snowplow top] reads from a
    [serve --listen] exporter, and the check the CI scrape smoke runs. *)

type sample = {
  health : Json.t;  (** [/health] *)
  tenants : Json.t;  (** [/tenants] *)
  metrics : string;  (** [/metrics] exposition text *)
}

val parse_target : string -> (string * int, string) result
(** [HOST:PORT]; an empty host is [127.0.0.1], the port in [1 .. 65535]. *)

val wait : host:string -> port:int -> retry_for:float -> (unit, string) result
(** Poll [/health] until it answers 200 or [retry_for] seconds pass —
    [serve] trains the PMM before it binds. *)

val fetch : host:string -> port:int -> (sample, string) result
(** One scrape; a non-200 answer or unparseable JSON is an [Error]. *)

val check : sample -> string list
(** A scrape's problems, [[]] when it passes: [/metrics] must be valid
    exposition with samples of [snowplow_scheduler_slices],
    [snowplow_tenant_state] and [snowplow_tenant_executions]; [/health]
    an object with a [status]; [/tenants] a non-empty array. *)

val fetch_checked :
  host:string -> port:int -> retry_for:float -> (sample * string list, string) result
(** Scrape until {!check} passes or [retry_for] seconds pass (the window
    before the first barrier publication); the last sample and its
    problems. *)

val to_json : sample -> Json.t
(** [{"health": ..., "tenants": ..., "metrics": "<exposition text>"}]. *)

type tenant_row = {
  name : string;
  state : string;
  weight : float;
  slices : int;
  executions : int;
  budget_remaining : int option;
  retries : int;
}

val tenant_rows : Json.t -> tenant_row list
(** The [/tenants] entries with a [name] and a [state]; missing numbers
    read as weight 1, no budget and zero counts. *)
