(** CDCL SAT solver.

    A MiniSat-style conflict-driven clause-learning solver with two-watched
    literals, 1-UIP conflict analysis, phase saving, and Luby restarts. Its
    search loops (propagation, decisions, backtracking) allocate nothing.
    It supports solving under unit {e assumptions}, which the bitvector
    layer uses to pose many coverage queries against a single clause
    database (one query per coverage goal, as in p4-symbolic). A solve
    resumes from the trail the previous one left, back to the first
    assumption that differs, instead of re-deciding the shared assumption
    prefix (van der Tak, Ramos and Heule, "Reusing the Assignment Trail in
    CDCL Solvers", JSAT 2011).

    There is one decision rule: the assumptions in order, then the
    caller's [order], then the lowest-index unassigned variable in its
    saved phase.

    Variables are dense non-negative integers allocated by [new_var].
    Literals pair a variable with a sign. *)

type t

module Lit : sig
  type t = private int

  val make : int -> bool -> t
  (** [make v sign]: positive literal of variable [v] when [sign]. *)

  val var : t -> int
  val sign : t -> bool
  val neg : t -> t
  val pp : Format.formatter -> t -> unit
end

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable, returning its index. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause. Clauses join at level 0: the trail a solve left is
    dropped first (a kept trail may already falsify the new clause), so a
    model must be read via [value] before the next [add_clause]. Adding
    the empty clause (or a clause already falsified at level 0) makes the
    instance unsatisfiable. *)

type result = Sat | Unsat

type assumption_result =
  | A_sat
  | A_unsat of Lit.t list
      (** The unsat core: a subset of the assumption literals whose
          conjunction with the clause database is already unsatisfiable
          (computed by final-conflict analysis; not guaranteed minimal).
          Empty iff the clause database itself is unsatisfiable. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve under the given assumption literals. The solver may be re-used:
    further clauses can be added and [solve] called again. *)

val solve_with_assumptions :
  ?order:Lit.t array -> t -> Lit.t list -> assumption_result
(** Incremental entry point: like [solve], but it also reports {e why} the
    assumptions failed. Learned clauses persist across calls, and so does
    the trail: level [i] decides the [i]-th assumption (a level opens
    without an assignment when its assumption already holds), so a call
    backtracks only to the last level whose assumption equals this call's
    at the same position, and resumes the search from there. A failed
    assumption leaves the consistent levels below it in place. A kept level
    is the propagation closure of the same assumption prefix under the
    current clauses (clauses are only added at level 0, and every learned
    clause is implied by the database), so keeping it changes neither the
    verdict nor the model. Assumptions are injected as pseudo-decisions
    below all search decisions; on failure the returned core is the subset
    implicated by final-conflict analysis.

    When [order] is given, decisions outside the assumptions are taken from
    [order] first: the first literal whose variable is unassigned is decided
    with the polarity written in the array (saved phases are not consulted).
    A [Sat] answer then yields the unique lexicographically preferred model
    w.r.t. [order] — for each position, the literal holds unless the clauses
    plus earlier positions force its negation. This makes the model a pure
    function of the formula's meaning, independent of learned clauses,
    restart timing, and the kept trail, which is what lets incremental and
    from-scratch solving produce bit-identical witnesses. Variables not in
    [order] are decided afterwards, lowest index first; any completion
    leaves the ordered variables' values as they are. The ordered search is
    still complete, so it returns the verdict an unordered one would: one
    call gives both the verdict and the canonical model. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer. Unconstrained variables
    report their saved phase (defaults to [false]). *)

val num_learned : t -> int
(** Learned clauses currently retained in the clause database. *)

val stats : t -> (string * int) list
(** Counters: conflicts, decisions, propagations, restarts, learned, and
    levels_kept (assumption levels a solve resumed instead of
    re-deciding). *)
