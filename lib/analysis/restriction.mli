(** Entry-restriction satisfiability pre-check.

    For each table carrying an [@entry_restriction], compile the
    constraint to a BDD over the referenced keys (the same encoding the
    fuzzer uses for constraint-directed entry sampling) and model-count
    it. A count of zero means no entry can ever be installed: the table is
    effectively uninstallable, every coverage goal over its entries is
    dead, and fuzzing it is wasted work — reported as [P4A004].

    Restrictions the BDD engine cannot encode (LPM keys,
    [::prefix_length], keys missing from the table) are skipped, never
    reported. *)

val unsat_tables : Switchv_p4ir.Ast.program -> string list
(** Table names whose restriction is provably unsatisfiable, in program
    order. *)

