(** The ToR role instantiation: the middleblock blueprint with a ToR-
    specific ingress-ACL key combination (L4 ports, ICMP type, dst MAC) —
    §3 "Role Specific Instantiations". *)

val program : Switchv_p4ir.Ast.program
