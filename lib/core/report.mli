(** Incident reports: what SwitchV hands to the human tester (§2).

    SwitchV does not diagnose root causes; it reports that the switch's
    observed behaviour is outside the set admitted by the P4 model, with
    enough context for a human to investigate. Since the triage subsystem
    landed, "enough context" is structured: incidents carry an optional
    {!context} record (what the campaign was exercising) and an optional
    {!Switchv_triage.Repro.t} (exactly how to re-trigger the divergence),
    and a report can carry a fingerprint-dedup summary mirroring the
    paper's miscompares-vs-bugs distinction (Table 1). *)

module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Fingerprint = Switchv_triage.Fingerprint

type detector = Fuzzer | Symbolic | Fabric

val detector_to_string : detector -> string

type context = {
  ctx_table : string option;     (** table being exercised *)
  ctx_goal : string option;      (** coverage-goal id (data plane) *)
  ctx_mutation : string option;  (** fuzzer mutation in the batch *)
  ctx_batch : int option;        (** 1-based batch index (control plane) *)
  ctx_hop : string option;
      (** fabric hop the incident was localized to (["sw<k>"]); feeds the
          fingerprint's hop dimension *)
}

val context :
  ?table:string -> ?goal:string -> ?mutation:string -> ?batch:int ->
  ?hop:string -> unit -> context

type incident = {
  detector : detector;
  kind : string;       (** short category, e.g. "status violation" *)
  detail : string;
  context : context option;
      (** Structured incident context, so fingerprinting (and humans) need
          not parse [detail]. *)
  repro : Repro.t option;
      (** Reproducer captured at the incident site; [None] only for
          incident shapes with no replay path (packet-out divergences). *)
}

val incident :
  ?context:context -> ?repro:Repro.t -> detector -> kind:string -> detail:string ->
  incident

val pp_incident : Format.formatter -> incident -> unit

val fingerprint : incident -> Fingerprint.t
(** Stable signature over detector, kind, and structured context (with
    normalized fallbacks); see {!Switchv_triage.Fingerprint}. *)

type cluster = {
  cl_fingerprint : Fingerprint.t;
  cl_count : int;          (** miscompares collapsed into this cluster *)
  cl_example : incident;   (** first-seen representative *)
}

val cluster : incident list -> incident list * cluster list
(** Fingerprint dedup: the first-seen representative of each fingerprint,
    in order, plus one cluster per fingerprint. Bumps
    [triage.duplicates_collapsed] by the incidents absorbed. Fingerprints
    start with the detector, so no cluster mixes campaigns. *)

type control_stats = {
  cs_batches : int;
  cs_updates : int;
  cs_valid_updates : int;
  cs_invalid_updates : int;
  cs_novel_edges : int;
      (** greybox: edges first covered by this campaign's probes (summed
          over shards, so an edge two shards discovered counts twice) *)
  cs_corpus_seeds : int;  (** greybox: coverage-novel inputs kept *)
  cs_duration : float;
}

type data_stats = {
  ds_entries_installed : int;
  ds_goals : int;
  ds_covered : int;
  ds_uncoverable : int;
  ds_tainted_goals : int;
      (** goals classified [Tainted] (path condition crosses a
          hash/selector-tainted branch) and excluded from SMT solving *)
  ds_packets_tested : int;
  ds_generation_time : float;   (** encode + SMT, the paper's "Generation" *)
  ds_testing_time : float;      (** run + compare, the paper's "Testing" *)
  ds_cache_hits : int;          (** packet-cache hits during this campaign *)
  ds_cache_misses : int;
}

type fabric_stats = {
  fs_shape : string;            (** topology shape name *)
  fs_switches : int;
  fs_links : int;
  fs_flows : int;               (** end-to-end flows executed *)
  fs_delivered : int;           (** switch-side deliveries at edge ports *)
  fs_dropped : int;             (** switch-side drops/punts/dead hops/loops *)
  fs_hops : int;                (** switch-side hops traversed *)
  fs_localized : int;           (** incidents attributed to a hop *)
  fs_duration : float;
  fs_switch_coverage : (int * int * int) list;
      (** per-switch model-edge coverage as (switch, covered, total),
          from the [topo.sw.<i>.cov.*] counters *)
}

type t = {
  program_name : string;
  control_incidents : incident list;
  data_incidents : incident list;
  fabric_incidents : incident list;
  control_stats : control_stats option;
  data_stats : data_stats option;
  fabric_stats : fabric_stats option;
  clusters : cluster list option;
      (** Fingerprint-dedup summary, present when the harness ran with
          triage dedup: one cluster per distinct fingerprint, counting the
          raw miscompares it absorbed. When present, the incident lists
          hold one representative per cluster. *)
  telemetry : Telemetry.snapshot option;
      (** Counters and latency quantiles accumulated over the run, captured
          by {!Harness.validate} when it finishes. *)
  coverage : Switchv_obs.Coverage.t option;
      (** Model-edge coverage map (which pipeline branches and table
          actions the injected packets actually executed), built by
          {!Harness.validate} from the interpreter's coverage counters.
          Deterministic across [--jobs] settings. *)
}

val empty : string -> t

val incidents : t -> incident list
val clean : t -> bool
(** No incidents at all. *)

val corpus_records : faults:string list -> t -> Switchv_triage.Corpus.record list
(** One regression-corpus record per incident that carries a reproducer,
    in report order, tagged with the seeded catalogue fault ids — exactly
    what [--save-corpus] archives. *)

val detected_by : t -> detector option
(** The detector that found the first incident: control-plane incidents
    attribute to [Fuzzer], data-plane ones to [Symbolic], fabric ones to
    [Fabric]; when several fired, the earlier campaign wins — mirroring
    "discovered by" in the paper's Table 1. *)

val pp : Format.formatter -> t -> unit

(** {1 IPC (de)serialization}

    Sharded campaigns (control, data and fabric) serialize per-shard
    incidents in forked workers and deserialize them in the parent
    ({!Campaign.run}). The converters are exact inverses over every value
    the campaigns produce — the merged parallel report is byte-identical to
    the sequential one because nothing is lost in the round-trip. *)

val detector_of_string : string -> detector option

val incident_ipc_to_json : incident -> string
(** Full-fidelity incident (including the reproducer), unlike the
    report-archive rendering in {!to_json} which adds campaign tags and
    fingerprints. *)

val incident_of_ipc_json :
  Switchv_telemetry.Jsonp.t -> (incident, string) result

val fabric_stats_to_json : fabric_stats -> string

val to_json : t -> string
(** Machine-readable one-line JSON rendering (hand-rolled, no
    dependencies) for archiving nightly reports. Schema:
    [{"program":…,"clean":…,"control_stats":{…}|null,
      "data_stats":{…}|null,"incidents":[{"detector":…,"kind":…,
      "detail":…,"context":{…}|null,"fingerprint":…,"repro":{…}|null},…],
      "clusters":[{"fingerprint":…,"count":…},…]|null,
      "telemetry":{…}|null}]. *)
