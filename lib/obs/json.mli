(** Minimal JSON emitter and parser for telemetry artifacts.

    The telemetry subsystem writes Chrome [trace_event] files and JSONL
    time-series, and the [snowplow stats] inspector reads them back; this
    module is the (dependency-free) serialization layer for both. Two
    properties are load-bearing and pinned by tests:

    - strings round-trip byte-exactly: control characters are emitted as
      [\uXXXX] escapes, quotes and backslashes are escaped, and all other
      bytes (including non-ASCII) pass through verbatim;
    - finite floats round-trip exactly: {!num_to_string} emits the
      shortest of [%.15g]/[%.17g] that re-parses to the same float, and
      integral values within the exactly-representable range are emitted
      without an exponent or fraction.

    Non-finite floats have no JSON representation and are emitted as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num_to_string : float -> string
(** Exact-round-trip float formatting (["null"] for non-finite values). *)

val to_string : t -> string
(** Compact (no whitespace) serialization; object fields keep list order. *)

val to_buffer : Buffer.t -> t -> unit

val max_depth : int
(** How deep arrays and objects may nest in a parsed document: 512. *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON value (surrounding whitespace allowed).
    [\uXXXX] escapes are decoded to UTF-8 (surrogate pairs supported).
    A document nesting arrays and objects deeper than {!max_depth} is an
    [Error], found before the parser descends past the bound. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] otherwise. *)

val num_opt : t -> float option

val str_opt : t -> string option

val arr_opt : t -> t list option

val equal : t -> t -> bool
(** Structural equality; [Num] compared with [Float.equal] (so [nan]
    equals [nan], and [0.] differs from [-0.]). *)

(** {1 Decoding}

    Exception-based field extractors for reading structured documents
    (campaign snapshots). Decoders compose as plain function calls and a
    top-level {!Decode.run} converts the first failure into a [result],
    carrying which field was malformed. *)
module Decode : sig
  exception Error of string

  val error : ('a, unit, string, 'b) format4 -> 'a
  (** Raise {!Error} with a formatted message. *)

  val field : string -> t -> t
  (** Required field of an object; raises {!Error} if absent. *)

  val num_field : string -> t -> float

  val int_field : string -> t -> int
  (** Number field that must be integral and within the float-exact range. *)

  val str_field : string -> t -> string

  val bool_field : string -> t -> bool

  val arr_field : string -> t -> t list

  val obj_field : string -> t -> t
  (** Required field that must itself be an object (returned as-is). *)

  val int64_to_json : int64 -> t
  (** Encode an int64 as a 16-digit hex [Str] — int64 values (RNG states)
      exceed the float-exact integer range, so they cannot travel as
      [Num]. *)

  val int64_field : string -> t -> int64
  (** Decode a field written by {!int64_to_json}. *)

  val run : (unit -> 'a) -> ('a, string) result
  (** Run a decoder, converting {!Error} into [Error msg]. *)
end
