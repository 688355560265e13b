(** The metric catalog: every instrumented counter/histogram name (or
    stable dotted prefix for dynamic families) with a one-line help
    string, surfaced as [# HELP] in the Prometheus exposition. *)

val catalog : (string * string) list

val doc_for : string -> string option
(** The help string of a metric: its own catalog entry, else that of its
    longest dotted prefix in the catalog. *)

val undocumented : Switchv_telemetry.Telemetry.snapshot -> string list
(** Metric names present in the snapshot that resolve to no catalog entry.
    The obs test fails when this is non-empty. *)
