(** Prometheus text exposition (format 0.0.4): rendering a telemetry
    registry for the [/metrics] endpoint, and a small linter the CI gate
    and test suite run over the rendered text. *)

val metric_name : string -> string
(** Map a dotted telemetry name to a Prometheus metric name:
    ["smt.checks"] -> ["switchv_smt_checks"]. *)

type gauge = {
  g_name : string;   (** already in Prometheus form *)
  g_help : string;
  g_value : float;
}

val render : ?gauges:gauge list -> Switchv_telemetry.Telemetry.t -> string
(** Gauges (e.g. live coverage) first, then counters, then histograms
    with explicit [le] bucket edges. [# HELP] text comes from
    {!Docs.doc_for};
    undocumented metrics render as ["(undocumented)"] (and fail the
    hygiene test). *)

val lint : string -> string list
(** Validity errors (empty = clean): name syntax, TYPE/HELP present and
    preceding samples, families contiguous and not redefined, label
    syntax, parseable sample values, [le] on histogram buckets, trailing
    newline. *)
