(** The SwitchV harness: the end-to-end nightly validation run (§2).

    A full run performs control-plane validation (p4-fuzzer + oracle)
    followed by data-plane validation (p4-symbolic + reference interpreter
    differential testing), each against a freshly provisioned switch — as
    a nightly job would re-provision the device under test. *)

module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Entry = Switchv_p4runtime.Entry
module Cache = Switchv_symbolic.Cache

type triage = {
  dedup : bool;
      (** Collapse incidents with identical fingerprints into clusters;
          the report keeps one representative per cluster plus a
          {!Report.cluster} summary. *)
  minimize : bool;
      (** Delta-debug each kept reproducer down to a 1-minimal input.
          Expensive — every ddmin probe provisions a fresh stack via
          [mk_stack] and replays — so off by default; the triage bench and
          [switchv replay] turn it on deliberately. *)
}

val default_triage : triage
(** [dedup = true; minimize = false]. *)

val ddmin_probes : int
(** The probe budget of each ddmin pass when a campaign minimizes its
    reproducers: {!validate}'s triage and the fabric campaign's. *)

type config = {
  control : Control_campaign.config;
  data_entries : Entry.t list;
  cache : Cache.t option;
  exploratory : bool;   (** include the canned exploratory coverage goals *)
  fuzzed_data_pass : bool;
      (** §7's proposed extension: after the control-plane campaign, replay
          the (valid) entries the fuzzer left installed into a fresh switch
          and run a second data-plane pass over them — fuzzed entries
          exercise control paths the production replay does not. *)
  max_incidents : int;
  triage : triage option;
      (** Post-campaign triage pass ({!default_triage} by default);
          [None] reports raw miscompares untriaged. *)
  jobs : int;
      (** Worker processes for sharded campaign execution (default 1 =
          fully sequential, no forking). The shard decompositions are
          fixed by [control.shards] / [data_shards], so the report's
          incidents, clusters, and corpus records are identical at any
          [jobs] value. *)
  data_shards : int;
      (** Coverage-goal slices for the data campaign (see
          {!Data_campaign.config}[.shards]). *)
  incremental : bool;
      (** Incremental SMT pipeline for packet generation (on by default;
          see {!Data_campaign.config}[.incremental]). Results are
          identical either way; [false] is a test oracle. *)
  taint : bool;
      (** Taint-aware goal classification and set-valued data-plane
          verdicts (on by default; see {!Data_campaign.config}[.taint]).
          Applies to the main and the fuzzed-entry data passes; [false]
          is a test oracle. *)
  greybox : bool;
      (** Coverage-guided feedback (on by default): the control fuzzer
          runs its probe/corpus/power-schedule loop (overrides
          [control.greybox]), and the data campaigns skip branch goals
          the control phase already covered concretely
          ([covered_edges] computed here from the registry delta,
          jobs-invariant). The data campaigns keep no feedback state of
          their own. [false] reproduces the blind pre-feedback pipeline
          byte-identically. *)
  compile : bool;
      (** Staged-evaluator model execution in the data campaigns (on by
          default; see {!Data_campaign.config}[.compile]). The caller's
          stacks carry their own flag ({!Switchv_switch.Stack.create}).
          [false] is the interpreted test oracle, byte-identical. *)
}

val default_config : Entry.t list -> config

val minimize_repro :
  (unit -> Stack.t) ->
  max_probes:int ->
  Switchv_triage.Repro.t ->
  Switchv_triage.Repro.t
(** Delta-debug one reproducer to a 1-minimal input (control: triggering
    batch first, then the prefix; data: the entry set). Each probe replays
    against a fresh [mk_stack ()]. Exposed for the triage bench and
    targeted shrinking outside a full {!validate} run. *)

val validate : (unit -> Stack.t) -> config -> Report.t
(** [validate mk_stack config]: runs both campaigns; [mk_stack] must build
    a fresh switch (same faults, clean state) for each campaign. *)

val detect : (unit -> Stack.t) -> config -> Report.detector option
(** Convenience: which SwitchV component (if any) finds an incident. *)
