(** Pretty-printing of P4 models as P4-16-flavoured source text.

    The output is the "living documentation" role of the P4 models (§1):
    engineers read it to understand the switch contract. It is not meant to
    be re-parsed by p4c — our IR is already the canonical representation —
    but it follows P4-16 surface syntax closely (tables, keys with match
    kinds, [@refers_to] / [@entry_restriction] annotations, apply blocks). *)

val program_to_string : Ast.program -> string
