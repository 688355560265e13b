(** Test-packet generation from coverage goals (§5 "Coverage Constraints").

    The symbolic encoding is asserted once; each coverage goal is posed as
    an {e assumption} to the shared SMT solver (the clause database and all
    learned facts are reused across the |T| queries). Satisfiable goals
    yield concrete test packets; unsatisfiable goals are reported as
    uncoverable (e.g. shadowed table entries).

    Generation results are cached (§6.3 "Caching") under a digest of the
    program, the installed entries, and the goal set: nightly runs whose
    specification did not change skip the SMT stage entirely. *)

module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module Term = Switchv_smt.Term

(** What a goal covers, as structured data. Consumers (e.g. {!module}
    [Switchv_core.Metrics]) must match on this rather than re-parse
    [goal_id] — table names may contain arbitrary characters, including
    the [':'] the id string uses as a separator. *)
type goal_kind =
  | G_entry of { ge_table : string; ge_label : string }
      (** One installed entry, or the table default when [ge_label] is
          ["<default>"]. *)
  | G_branch of string             (** one side of a pipeline conditional *)
  | G_trace of string              (** a cross-product trace combination *)
  | G_custom of string             (** caller-defined (exploratory goals) *)

type goal = {
  goal_id : string;                (** unique, stable across runs *)
  goal_kind : goal_kind;
  goal_cond : Term.boolean;
  goal_prefer : Term.boolean;
      (** A soft constraint: tried first, dropped if it makes the goal
          unsatisfiable. Campaigns prefer packets that are {e forwarded}
          (hitting an entry with a TTL-0 packet that both sides drop is
          poor differential coverage). *)
  goal_desc : string;
}

val entry_coverage_goals : ?prefer:Term.boolean -> Symexec.encoding -> goal list
(** One goal per (table, installed entry) and per table default — the
    paper's "hit every reachable input table entry at least once". *)

val branch_coverage_goals : ?prefer:Term.boolean -> Symexec.encoding -> goal list
(** One goal per side of every pipeline conditional. *)

val custom_goal : ?prefer:Term.boolean -> id:string -> desc:string -> Term.boolean -> goal

val trace_coverage_goals :
  ?prefer:Term.boolean ->
  ?max_goals:int ->
  Symexec.encoding ->
  tables:string list ->
  goal list
(** The paper's "practical middle ground" between branch and trace
    coverage (§5): full trace coverage is combinatorial in the number of
    entries, so testers select a subset of important tables and cover the
    {e cross-product} of their trace points (every combination of entries
    across the selected tables, one goal per combination). Truncated at
    [max_goals] (default 512); combinations whose guards conflict are
    reported as uncoverable by [generate]. *)

val prune_goals : Switchv_analysis.Analysis.facts -> goal list -> goal list
(** Drop goals the static analysis proved uncoverable before they reach
    the solver: entry goals of tables applied only on dead paths, branch
    goals whose [branch.N.then]/[.else] label the analysis decided can
    never execute, and trace combinations involving a dead table.
    [G_custom] goals are never pruned. Sound because a pruned goal's guard
    is statically false — the solver would classify it uncoverable, at a
    query's cost. Increments the [analysis.goals_pruned] counter by the
    number of goals dropped (creating it at 0 either way). *)

val prune_tainted_goals :
  Switchv_analysis.Taint.summary -> goal list -> goal list
(** Classify goals whose path condition crosses a taint-carrying branch
    ({!Switchv_analysis.Taint.summary.s_branch_labels}) as [Tainted] and
    drop them before they reach the solver: the SMT witness would pin a
    hash outcome the concrete run is free to ignore, so solving buys no
    reliable coverage. Only [G_branch] goals are affected — entry goals
    over tainted-key tables still exercise the table (the set-valued
    oracle judges which member handled them). Increments the
    [analysis.tainted_goals] counter by the number of goals dropped
    (creating it at 0 either way). *)

val prune_concretely_covered :
  covered:(string -> bool) -> goal list -> goal list
(** Greybox shortcut: drop [G_branch] goals whose coverage edge
    ([cov.<label>]) the campaign already drove concretely — the coverage
    an SMT witness would buy is in hand. Only branch goals map 1:1 onto an
    edge; entry goals share action edges across a table's entries and are
    kept as the primary divergence detectors. Increments the
    [analysis.concretely_covered_skipped] counter by the number of goals
    dropped (creating it at 0 either way). *)

type test_packet = {
  tp_goal : string;
  tp_kind : goal_kind;
  tp_port : int;                   (** ingress port to inject on *)
  tp_bytes : string option;        (** [None]: the goal is unsatisfiable *)
}

type result = {
  packets : test_packet list;
  covered : int;
  uncoverable : int;
  solver_stats : (string * int) list;
  from_cache : bool;
}

val generate :
  ?ports:int list ->
  ?index_offset:int ->
  ?cache:Cache.t ->
  ?incremental:bool ->
  Symexec.encoding ->
  goal list ->
  result
(** [ports] restricts the free ingress port (default [[1; 2; 3; 4]]).

    [index_offset] (default 0) is the position of [goals] within a larger
    campaign-wide goal list: the preferred-port soft constraint cycles by
    global goal index, so a sharded campaign that solves slice
    [\[off, off+n)] passes [~index_offset:off] and gets exactly the
    packets the unsliced campaign would produce for those goals. The
    offset participates in the cache key.

    [incremental] (default [true]) selects the solving pipeline. When on,
    one solver instance serves the whole goal list: the encoding is
    asserted once, and each goal passes its top-level guard conjuncts and
    soft preferences as assumptions, with learned clauses carried across
    goals; unsat cores prune the soft-constraint cascade. When off, every
    goal re-bit-blasts the encoding into a fresh solver (the bench
    baseline). Both pipelines extract {e canonical} (lexicographically
    minimal) witness models, so they return identical packets and
    identical verdicts — [incremental] is deliberately absent from the
    cache key. *)

val cache_key :
  Symexec.encoding -> goal list -> ports:int list -> index_offset:int -> string
