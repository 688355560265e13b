(** SMT solver frontend for QF_BV.

    Formulas built with {!Term} are bit-blasted (Tseitin encoding) into the
    {!Sat} CDCL core. The solver is incremental in the style p4-symbolic
    needs: assert the program encoding once with [assert_formula], then pose
    each coverage goal as an {e assumption} to [check] — the clause database
    (and everything the SAT solver learned) is reused across goals. *)

module Bitvec = Switchv_bitvec.Bitvec

type t

val create : unit -> t

val assert_formula : t -> Term.boolean -> unit
(** Constrain the instance permanently. The formula is bit-blasted as
    given; the Tseitin environment persists, so subterms shared with
    anything blasted earlier (asserted or assumed) are not re-blasted. *)

type model = {
  bv : string -> Bitvec.t option;   (** value of a bitvector variable *)
  bool : string -> bool option;     (** value of a boolean variable *)
}

type result = Sat of model | Unsat

type verdict =
  | V_sat of model
  | V_unsat of int list
      (** Positions (0-based) into the [assumptions] list implicated by
          final-conflict analysis: the conjunction of the asserted state
          with just those assumptions is already unsatisfiable. Not
          guaranteed minimal. Empty when the asserted state alone is
          unsatisfiable — every superset of assumptions is then unsat
          too. *)

type canonical_var =
  | C_bool of string
  | C_bv of string
      (** A variable position in the canonical model order; see [check]. *)

val check :
  ?assumptions:Term.boolean list -> ?canonical:canonical_var list -> t -> result
(** Satisfiability of asserted formulas plus the given assumptions. On
    [Sat], the model covers every variable that appears in asserted or
    assumed formulas; variables the SAT core left unconstrained get
    arbitrary (but fixed) values.

    With [canonical], a [Sat] answer additionally canonicalizes the model:
    the named variables take the lexicographically minimal values (booleans
    false-first, bitvectors numerically minimal, earlier list positions
    outrank later ones) among all models of the current constraints. The
    canonical model depends only on the {e meaning} of the constraints —
    not on learned clauses, heuristic state, or how the constraints were
    split into assertions and assumptions — which is what makes incremental
    and from-scratch solving produce identical witnesses. A canonical check
    is a single search that decides the named variables first, in order
    ({!Sat.solve_with_assumptions}[ ~order]); it costs about what a plain
    check does. *)

val check_verdict :
  ?assumptions:Term.boolean list -> ?canonical:canonical_var list -> t -> verdict
(** Like [check], but an unsat answer reports the assumption subset that
    failed, enabling callers to skip queries whose assumption set contains
    a known-unsat core. *)

val check_models : bool ref
(** Self-check mode (off by default; tests switch it on): every model
    returned by [check]/[check_verdict] is re-evaluated against the
    asserted and assumed formulas, and a mismatch raises
    {!Model_mismatch} — blasting bugs fail loudly instead of corrupting
    generated packets. *)

exception Model_mismatch of string

val stats : t -> (string * int) list
(** SAT-core statistics plus CNF size counters. *)
