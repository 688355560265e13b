(** The Cerberus P4 model (§6): a vendor stack with a more involved
    pipeline than PINS — GRE decapsulation at ingress and encapsulation
    after routing on top of the SAI routing core. *)

val program : Switchv_p4ir.Ast.program
