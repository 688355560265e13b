(** The analysis driver: build the {!Cfg}, run every pass, and collect
    both human-facing {!Diagnostics} and machine-facing {!facts}.

    The facts are what the rest of the pipeline consumes: the symbolic
    packet generator prunes coverage goals over dead tables and
    statically-decided branches ([Switchv_symbolic.Packetgen.prune_goals]),
    and the fuzzer skips tables whose entry restriction is unsatisfiable.
    Both savings are observable as [analysis.*] telemetry counters.

    Every [run] increments [analysis.runs] and the per-severity
    [analysis.diagnostics_error] / [_warning] / [_info] counters (created
    at 0 even when nothing fires), inside an [analysis.run] span. *)

module Ast = Switchv_p4ir.Ast

type facts = {
  f_dead_tables : string list;
      (** applied, but only on statically-unreachable paths ([P4A003]) *)
  f_unapplied_tables : string list;
      (** defined but never applied in any pipeline ([P4A007]) *)
  f_dead_branch_labels : string list;
      (** Symexec trace labels ([branch.N.then] / [branch.N.else]) of
          branch arms that can never execute — decided arms of reachable
          conditionals plus both arms of unreachable ones *)
  f_unsat_restriction_tables : string list;
      (** entry restriction provably unsatisfiable ([P4A004]) *)
  f_taint : Taint.summary;
      (** nondeterminism taint ([P4A009] / [P4A010]): tainted branches,
          output fields, keys and egress writers — consumed by
          [Packetgen.prune_tainted_goals] and the set-valued data-plane
          oracle *)
}

val no_facts : facts
(** All-empty: the identity for pruning (nothing is pruned). *)

type report = { r_diagnostics : Diagnostics.t list; r_facts : facts }
(** Diagnostics are deduplicated and sorted by descending severity. *)

val run : ?check_restrictions:bool -> Ast.program -> report
(** [check_restrictions] (default [true]) controls the BDD satisfiability
    pre-check — the one pass that is not linear in the program, so callers
    that only want reachability facts (e.g. goal pruning on a hot path)
    can turn it off. *)

val facts : ?check_restrictions:bool -> Ast.program -> facts
(** [r_facts] of {!run}, for consumers that ignore diagnostics. *)

val to_json : min_severity:Diagnostics.severity -> Ast.program -> report -> string
(** [switchv lint --json]: one object
    [{"program","diagnostics":[{"code","severity","loc","message"}],
    "errors","warnings","infos"}]. The list keeps the findings at or above
    [min_severity] in {!run}'s sorted, deduplicated order, so the output is
    byte-stable across runs; the totals count every finding. *)
