module Telemetry = Switchv_telemetry.Telemetry

(* One entry per metric name, or per stable dotted prefix for dynamic
   families (fault ids, coverage edges, per-kind incident counters,
   solver-internal stat deltas). [doc_for] resolves a concrete name
   through its longest documented prefix, so [fault.PINS-042] is
   covered by the ["fault"] entry. The obs test suite fails when a counter
   observed during a campaign resolves to no entry here — add the metric
   to this table when you instrument a new one. *)
let catalog =
  [ ("analysis.run", "Duration of one static analysis pass.");
    ("analysis.runs", "Static analysis passes executed.");
    ("analysis.dead_tables_skipped", "Tables skipped by fuzzing because analysis proved them unreachable.");
    ("analysis.diagnostics_error", "Error-severity diagnostics from static analysis.");
    ("analysis.diagnostics_warning", "Warning-severity diagnostics from static analysis.");
    ("analysis.diagnostics_info", "Info-severity diagnostics from static analysis.");
    ("analysis.goals_pruned", "Symbolic goals discharged statically (dead-branch pruning) instead of solved.");
    ("analysis.concretely_covered_skipped", "Branch goals skipped before SMT because greybox probes already covered their edge concretely.");
    ("analysis.tainted_goals", "Branch goals classified tainted (path crosses a hash/selector-tainted branch) and excluded from SMT solving.");
    ("cache.hits", "Packet-cache lookups answered without solving.");
    ("cache.misses", "Packet-cache lookups that required a solver call.");
    ("cache.corrupt_dropped", "Cache entries dropped because their on-disk form failed to parse.");
    ("campaign.control", "Duration of the control-plane (fuzzing) campaign.");
    ("campaign.incidents", "Incidents recorded by the campaigns (miscompares before triage dedup).");
    ("campaign.generation", "Duration of symbolic test-packet generation.");
    ("campaign.testing", "Duration of the packet injection/comparison phase.");
    ("cov.branch", "Edge coverage: executions of a pipeline conditional arm (branch id matches symbolic goal labels).");
    ("cov.action", "Edge coverage: executions of a table action edge (hit or default/miss).");
    ("fault", "Times the named injected fault perturbed switch behaviour.");
    ("fuzzer.batches", "Update batches produced by the control-plane fuzzer.");
    ("fuzzer.next_batch", "Duration of generating one random control-plane batch.");
    ("fuzzer.sweep", "Duration of generating the directed sweep's batches.");
    ("fuzzer.updates", "Total updates produced by the control-plane fuzzer.");
    ("fuzzer.mutated_updates", "Fuzzer updates that went through a mutation pass.");
    ("fuzzer.greybox.probes", "Probe packets injected after control batches to harvest coverage deltas.");
    ("fuzzer.greybox.novel_edges", "Coverage edges first reached by a shard's greybox observations (summed over shards).");
    ("fuzzer.greybox.corpus_admitted", "Coverage-novel inputs (batches and packets) admitted to greybox corpora.");
    ("fuzzer.greybox.energy_assigned", "Energy units credited to tables whose state reached novel edges.");
    ("fuzzer.greybox.weighted_picks", "Valid-insert table choices made by the energy-weighted power schedule.");
    ("fuzzer.greybox.seeded_bases", "Mutation bases drawn from the greybox corpus instead of generated fresh.");
    ("goals.total", "Symbolic coverage goals planned for this campaign.");
    ("harness.validate", "End-to-end duration of one validation run.");
    ("oracle.batches_judged", "Update batches compared against the P4Runtime reference oracle.");
    ("oracle.judge_batch", "Duration of judging one write batch and its read-back.");
    ("oracle.updates_judged", "Individual updates compared against the reference oracle.");
    ("oracle.incidents", "Oracle incidents detected, by kind.");
    ("oracle.dataplane_fast", "Data-plane verdicts settled by the fast deterministic equality check.");
    ("oracle.dataplane_set_admits", "Data-plane verdicts admitted by taint-masked set-valued comparison (no hash-round enumeration).");
    ("oracle.dataplane_escalations", "Data-plane verdicts that escalated to exhaustive hash-round enumeration.");
    ("oracle.enum_rounds_saved", "Hash-round model executions avoided by fast or set-valued data-plane verdicts.");
    ("parallel.workers_failed", "Forked campaign workers that crashed, errored, or went silent.");
    ("parallel.pool", "Duration of one worker-pool run (fork to last frame).");
    ("parallel.shard", "Duration of one campaign shard inside a worker.");
    ("smt", "Solver-internal statistic deltas accumulated per check.");
    ("smt.check", "Duration of one SMT check.");
    ("smt.checks", "SMT checks issued.");
    ("smt.sat", "SMT checks that returned sat.");
    ("smt.unsat", "SMT checks that returned unsat.");
    ("smt.clauses_reused", "Learned clauses carried across incremental checks.");
    ("smt.incremental_hits", "Checks whose assumptions added no SAT variable (already bit-blasted).");
    ("smt.levels_kept", "Assumption levels a check resumed from the previous check's trail instead of re-deciding.");
    ("switch.inject", "Duration of injecting one packet into the switch stack.");
    ("switch.packets_injected", "Test packets injected into the switch stack.");
    ("switch.packet_out", "Duration of one controller packet-out.");
    ("switch.read", "Duration of one P4Runtime read of every installed entry.");
    ("switch.server.validate", "Duration of P4Runtime server-side validation of one request.");
    ("switch.syncd.sync", "Duration of one syncd state synchronisation.");
    ("switch.write", "Duration of one P4Runtime write request.");
    ("symbolic.attempts_skipped", "Fallback goal attempts skipped unsolved because their assumptions contain a known unsat core.");
    ("topo.campaign", "Duration of one fabric campaign (setup to merged report).");
    ("topo.flows", "End-to-end fabric flows executed (edge injections and packet-outs).");
    ("topo.hops", "Switch-side hops traversed by fabric flows.");
    ("topo.delivered", "Fabric flows the switch side delivered at an edge port.");
    ("topo.dropped", "Fabric flows the switch side dropped, punted, lost at a dead hop, or looped.");
    ("topo.loops_detected", "Fabric traces cut by the hop budget (forwarding loop).");
    ("topo.crashed_hops", "Fabric traces that reached a crashed switch (dead hop).");
    ("topo.localized", "Fabric incidents attributed to one switch by hop-differential triage.");
    ("topo.nondet_admits", "End-to-end mismatches admitted because a hop consulted a hash (set-valued verdict).");
    ("topo.sw", "Per-switch fabric namespace: coverage counters re-emitted as topo.sw.<i>.cov.*.");
    ("symbolic.encode", "Duration of symbolic encoding of the program.");
    ("symbolic.generate", "Duration of the whole packet-generation pass.");
    ("symbolic.goal", "Duration of solving one coverage goal.");
    ("symbolic.goals_covered", "Coverage goals for which a witness packet was generated.");
    ("symbolic.goals_uncoverable", "Coverage goals proven unsatisfiable.");
    ("triage.ddmin_probes", "Delta-debugging replay probes executed during minimization.");
    ("triage.duplicates_collapsed", "Incidents collapsed into an existing cluster by fingerprint.");
    ("triage.minimize", "Duration of minimizing one reproducer.");
    ("triage.updates_removed", "Updates removed from reproducers by minimization.") ]

let by_name = Hashtbl.of_seq (List.to_seq catalog)

let doc_for name =
  let rec up s =
    match Hashtbl.find_opt by_name s with
    | Some h -> Some h
    | None -> (
        match String.rindex_opt s '.' with
        | None -> None
        | Some i -> up (String.sub s 0 i))
  in
  up name

let undocumented (snap : Telemetry.snapshot) =
  let names =
    List.map fst snap.Telemetry.snap_counters
    @ List.map fst snap.Telemetry.snap_histograms
  in
  List.sort_uniq String.compare
    (List.filter (fun n -> doc_for n = None) names)
