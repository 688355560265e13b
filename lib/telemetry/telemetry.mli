(** Always-on observability for the validation pipeline.

    SwitchV ran at Google as a continuous service whose coverage, latency,
    and solver cost were monitored across nightly campaigns (§6–7). This
    library is the measurement substrate for our reproduction: monotonic
    {e counters}, fixed-bucket latency {e histograms} with quantile
    estimation, and nestable timed {e spans} emitted as structured JSONL
    trace events.

    Everything hangs off a registry. A global default registry exists so
    instrumented libraries need no API changes ("global but injectable"):
    they call [Telemetry.get ()] at the instrumentation point, and tests or
    embedders swap the registry with [with_registry] (one built with
    [create ~clock] for a deterministic clock).

    Cost model — what is safe on a hot path:
    - counters and histogram observations are a hashtable lookup plus an
      integer/float update; disabled registries short-circuit on one bool;
    - spans read the clock twice and observe one histogram; JSON is only
      formatted when a trace sink is installed ([tracing] is the cheap
      enabled check);
    - the innermost SAT loops carry no telemetry calls at all: solver
      effort is recorded as per-[check] counter deltas in {!Solver}. *)

type clock = unit -> float
(** Seconds, as an absolute wall-clock timestamp. Injectable for tests. *)

(** Monotonic-ish time for campaign/CLI duration measurement.

    [Unix.gettimeofday] can step backwards (NTP); every duration in a
    report or bench artifact should come from this helper instead, which
    never returns a timestamp smaller than one it already returned, and
    clamps durations at zero. *)
module Clock : sig
  val now : unit -> float
  (** Wall clock with a process-wide floor: never decreases. *)

  val duration : since:float -> float
  (** [duration ~since] = [max 0 (now () - since)]. *)
end

type t
(** A registry of counters, histograms, and the active span stack. *)

val create : ?clock:clock -> unit -> t
(** Fresh, empty, enabled registry. Default clock is [Unix.gettimeofday]. *)

val default : t
(** The process-wide registry used by all instrumented libraries unless
    overridden with [with_registry]. *)

val get : unit -> t
(** The currently-installed registry (the default unless inside
    [with_registry]). Instrumentation sites call this at event time, never
    at module-init time, so injection always wins. *)

val with_registry : t -> (unit -> 'a) -> 'a
(** Run the thunk with [t] installed as the current registry; restores the
    previous registry afterwards (also on exceptions). *)

val set_enabled : t -> bool -> unit

val enabled : t -> bool
(** When false, every operation on the registry is a no-op behind a single
    bool check. *)

val reset : t -> unit
(** Drop all counters, histograms, and any in-flight span state. Trace
    sink, clock, and enabledness are kept. Tests call this between cases. *)

(** {1 Span identity across forks}

    Every span (and instant event) carries a numeric id ([sid]) and its
    parent's id ([psid]) in trace output, so a trace file is a forest that
    tooling can stitch into one causal tree. Ids are allocated from
    per-process {e blocks}: the parent allocates a block per forked worker
    with [alloc_sid_block] and the worker seeds its fresh registry with
    [seed_spans], making every id in the campaign unique without any
    parent-side rewriting. [sid_block] recovers the block number — 0 for
    the parent, the worker's ordinal otherwise — which the Chrome trace
    converter uses as a thread id. *)

val sid_block : int -> int
(** The block (worker ordinal) a span id was allocated from. *)

val alloc_sid_block : t -> int
(** Reserve the next id block; returns its first id. Call in the parent
    before forking and pass the result to the worker. *)

val seed_spans : t -> sid_base:int -> root_psid:int option -> unit
(** Point a (worker) registry at its own id block, and set the parent id
    that its depth-0 spans report — the parent's span open at fork time —
    so worker trees hang off the campaign tree without rewriting. *)

val current_sid : t -> int option
(** Id of the innermost open span ([root_psid] when the stack is empty;
    [None] outside any span in a non-seeded registry). *)

val set_tick : t -> (unit -> unit) option -> unit
(** Install a hook called after every span finishes (even without a trace
    sink). Used by forked workers to piggy-back periodic trace/telemetry
    flushes on instrumentation already present on hot paths; re-entrant
    calls are suppressed, so the hook itself may open spans. *)

(** {1 Counters} *)

val incr : ?n:int -> t -> string -> unit
(** Add [n] (default 1) to the named monotonic counter, creating it at 0
    on first use. *)

val counter : t -> string -> int
(** Current value; 0 for a counter never incremented. *)

(** {1 Histograms}

    Fixed log-spaced latency buckets (1µs .. 10s plus overflow). Values are
    in seconds. Quantiles are estimated by linear interpolation inside the
    bucket containing the requested rank — exact at bucket boundaries. *)

val observe : t -> string -> float -> unit

val quantile : t -> string -> float -> float option
(** [quantile t name p] for [p] in [0,1]; [None] if the histogram is empty
    or absent. *)

(** {1 Spans and trace events}

    Spans nest: the registry tracks the active stack, so every event
    carries its depth and parent. With a sink installed, each span emits a
    begin and an end JSONL event; with no sink, the span still feeds the
    histogram named after it (that is how "Generation"/"Testing" latency
    tables are produced without tracing). *)

type sink = string -> unit
(** Receives one JSON object per call, without the trailing newline. *)

val set_sink : t -> sink option -> unit

val tracing : t -> bool
(** Whether a sink is installed — the guard instrumentation uses before
    doing any per-event string formatting. *)

val emit_raw : t -> string -> unit
(** Hand one already-rendered trace line to the sink (no-op without one).
    The parent side of the worker pool uses this to splice worker trace
    events — which carry their own span ids — into the campaign's file. *)

val with_span : ?attrs:(string * string) list -> t -> string -> (unit -> 'a) -> 'a
(** Time the thunk as a span named [name]. Observes the duration into the
    histogram of the same name; emits begin/end trace events when tracing.
    Exception-safe: the span is closed (and emitted) on raise. *)

val event : ?attrs:(string * string) list -> t -> string -> unit
(** An instant (zero-duration) trace event at the current depth. No-op
    unless tracing. *)

val with_trace_channel : t -> out_channel -> (unit -> 'a) -> 'a
(** Install a line-writing sink over the channel for the duration of the
    thunk, restoring the previous sink (and flushing) afterwards. *)

(** {1 Snapshots} *)

type histogram_summary = {
  hs_count : int;
  hs_sum : float;            (** total observed seconds *)
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_max : float;
}

type snapshot = {
  snap_counters : (string * int) list;                 (** sorted by name *)
  snap_histograms : (string * histogram_summary) list; (** sorted by name *)
}

val snapshot : t -> snapshot

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Human-readable two-section table (counters, then latency quantiles). *)

val snapshot_to_json : snapshot -> string
(** One-line JSON object: [{"counters":{...},"histograms":{...}}]. *)

(** {1 Export / absorb}

    Raw (not summarized) registry contents, for merging measurements made
    in a forked worker back into the parent's registry: the worker runs
    under a fresh registry, so its export is a pure delta; the parent
    [absorb]s counters additively and histograms bucket-wise. *)

type histogram_dump = {
  hd_buckets : int array;   (** same layout as the registry's buckets *)
  hd_count : int;
  hd_sum : float;
  hd_max : float;
}

type export = {
  ex_counters : (string * int) list;                 (** sorted by name *)
  ex_histograms : (string * histogram_dump) list;    (** sorted by name; empty histograms omitted *)
}

val export : t -> export

val absorb : t -> export -> unit
(** Add the exported deltas into [t] (no-op when [t] is disabled). *)

val diff_export : t -> base:export -> export
(** The registry's current contents minus a previously-taken export.
    Counters and buckets are monotonic, so the result is a valid export;
    absorbing a stream of consecutive diffs reproduces the full export
    exactly — the contract behind worker telemetry heartbeats. *)

val default_bounds : float array
(** The histogram bucket upper bounds (seconds), exposed for exposition
    formats that need explicit bucket edges (Prometheus [le] labels). *)

(** {1 JSON helpers}

    A hand-rolled, dependency-free JSON emitter (and a validity checker for
    smoke tests, backed by {!Jsonp}) shared by the trace sink,
    [snapshot_to_json], and [Report.to_json]. Emitter values are
    already-rendered JSON fragments. *)

module Json : sig
  val str : string -> string
  (** Quoted and escaped JSON string literal. *)

  val num : float -> string
  (** Finite floats; NaN/infinities are rendered as [null]. *)

  val int : int -> string
  val bool : bool -> string
  val obj : (string * string) list -> string
  val arr : string list -> string

  val to_string : Jsonp.t -> string
  (** Compact JSON for a parsed value (integral floats print as
      integers). [Jsonp.parse] ∘ [to_string] is the identity on parsed
      values. *)

  val check : string -> (unit, string) result
  (** Is the input one well-formed JSON value? [Jsonp.parse] with the
      value dropped. *)
end
