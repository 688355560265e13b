(** The data-plane validation campaign (§5): install a replayed entry set
    on the switch, generate test packets with p4-symbolic, run each packet
    through the switch and through the reference P4 interpreter, and check
    that the switch's behaviour lies in the set of behaviours the model
    admits. WCMP/hash non-determinism is handled by the set-valued
    {!Switchv_oracle.Dataplane} oracle (taint-masked comparison with
    candidate egress sets, escalating to round-robin hash enumeration
    when the fast checks cannot decide).

    Also exercises the controller packet-I/O contract: packet-out to every
    port, and submit-to-ingress processing. *)

module Stack = Switchv_switch.Stack
module Entry = Switchv_p4runtime.Entry
module Packetgen = Switchv_symbolic.Packetgen
module Cache = Switchv_symbolic.Cache

type config = {
  entries : Entry.t list;
      (** the replayed forwarding state, in dependency order *)
  ports : int list;                  (** ingress ports packets may use *)
  extra_goals : Switchv_symbolic.Symexec.encoding -> Packetgen.goal list;
      (** tester-provided coverage assertions, built once the encoding exists *)
  include_branch_goals : bool;
  prune_dead_goals : bool;
      (** drop goals static analysis proves uncoverable (dead tables,
          statically-decided branches) before the SMT stage; on by
          default. Sound: pruned goals would be classified uncoverable by
          the solver anyway, so divergence results are unchanged — the
          saving shows up in the [analysis.goals_pruned] counter. *)
  cache : Cache.t option;
  max_incidents : int;
  test_packet_io : bool;
  shards : int;
      (** Number of coverage-goal slices the generation + testing stages
          split into ([1] = the historical single-pass campaign). The
          slicing is a function of the goal list alone, so results at a
          given shard count are identical at any [jobs] count; shards
          share the on-disk packet cache. *)
  incremental : bool;
      (** Use the incremental SMT pipeline for packet generation (on by
          default). Canonical model extraction makes the generated packets
          identical either way — see {!Packetgen.generate} — so this knob
          only trades solver work, never results; [false] (per-goal
          scratch solving) is a test oracle. *)
  taint : bool;
      (** Use the static taint summary (on by default): branch goals whose
          path condition crosses a hash/selector-tainted branch are
          classified [Tainted] and skipped ([analysis.tainted_goals],
          [ds_tainted_goals]), and the packet verdict goes through the
          set-valued {!Switchv_oracle.Dataplane} oracle instead of always
          enumerating hash rounds. Escalation makes the verdicts
          fault-equivalent; on hash-free programs, incidents and corpus
          output are byte-identical either way ([false] is a test
          oracle). *)
  greybox : bool;
      (** Capture the coverage-counter delta of every injected test packet
          into a slice-local {!Switchv_fuzzer.Greybox} novelty map and
          admit coverage-novel packets to its corpus (on by default).
          Observation only — it never alters which packets are generated
          or injected — and slice-local, so results stay byte-identical at
          any [jobs]. *)
  compile : bool;
      (** Run every model execution through the staged evaluator
          ({!Switchv_bmv2.Compile}: one-time closure compilation + indexed
          table lookups) instead of the tree-walking interpreter (on by
          default). Behaviour-identical by contract — incidents, clusters
          and corpus are byte-identical either way; [false] is the
          reference oracle the determinism matrix in
          [test/test_parallel.ml] compares against. *)
  covered_edges : string list;
      (** Coverage edges ([cov.…] keys) the caller's earlier campaign
          already drove concretely; branch goals over them skip the SMT
          stage ({!Packetgen.prune_concretely_covered},
          [analysis.concretely_covered_skipped]). Threaded explicitly by
          the harness (the control campaign's counter delta) rather than
          read from the ambient registry, so a campaign's goal list is a
          pure function of its config. Empty by default — no filtering. *)
}

val default_config : Entry.t list -> config

val run :
  ?jobs:int ->
  Stack.t ->
  config ->
  Report.incident list * Report.data_stats
(** Push the P4Info and install the entries, then generate + test each
    goal slice through {!Campaign.run} — sequentially in-process when
    [jobs <= 1] (the default) or [shards = 1], else over forked workers
    that inherit the installed stack and symbolic encoding
    copy-on-write. Slice results merge in slice order with the incident
    list truncated to [max_incidents]; the packet-I/O contract runs in the
    parent after the merge. A lost worker drops its slices (logged,
    [parallel.workers_failed]) without aborting the campaign. *)

val install :
  Stack.t ->
  Entry.t list ->
  (entry:Entry.t -> prior:Entry.t list -> string -> unit) ->
  int
(** [install stack entries reject] writes the (dependency-ordered)
    entries batched by table, so no batch contains internal [@refers_to]
    dependencies (§4.4). Each rejected entry is reported to [reject] with
    the entries the switch had accepted before it (a reproducer prefix)
    and a status message. Returns the number of entries installed. *)

val exploratory_goals : Switchv_symbolic.Symexec.encoding -> Packetgen.goal list
(** Canned tester assertions beyond entry coverage: unusual ether types
    (LLDP, LACP, ARP, VLAN), TTL boundary values, punt/drop outcomes —
    the kind of hand-written coverage constraints §5 describes testers
    adding on top of the built-in metrics. *)
