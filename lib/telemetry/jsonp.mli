(** A minimal, dependency-free JSON {e parser} — the inverse of the
    hand-rolled emitter in {!Telemetry.Json}, which also prints a parsed
    value back ({!Telemetry.Json.to_string}).

    The triage corpus was the first JSON reader; the observability layer
    (trace stitching, [switchv top]) now reads JSON too, which is why the
    parser lives here at the bottom of the dependency DAG rather than in
    [lib/triage]. It is the only JSON reader: {!Telemetry.Json.check} is
    [parse] with the value dropped. The grammar is RFC 8259's, strictly:
    numbers without leading zeros or bare dots, [\u] escapes of exactly
    four hex digits, and surrogates only as a high-low pair; [\uXXXX]
    escapes outside the ASCII range are decoded as UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing garbage (other than whitespace) is an
    error. Malformed input is an [Error] carrying a byte offset, not an
    exception. *)

(** {1 Accessors}

    Total accessors used by the corpus loader; each returns [None] on a
    shape mismatch so record parsing can fail with one message instead of
    raising mid-structure. *)

val member : string -> t -> t option
(** Field of an object ([None] for absent fields or non-objects). *)

val to_str : t -> string option
val to_int : t -> int option

val to_num : t -> float option
(** Any numeric value, as a float — use for durations and other
    measurements where fractional values are expected. *)

val to_bool : t -> bool option
val to_arr : t -> t list option
