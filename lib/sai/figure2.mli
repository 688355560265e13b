(** The paper's running example: the exact routing pipeline of Figure 2
    and the table entries of Figure 3 with their validity verdicts. *)

module Entry = Switchv_p4runtime.Entry

val program : Switchv_p4ir.Ast.program
val info : Switchv_p4ir.P4info.t

(** The Figure 3 entries. [v1], [i1], [i5] are valid; [v2] violates the
    [vrf_id != 0] restriction, [v3] uses a non-permitted action, [i2]
    references unallocated VRF 5, [i3] is missing its action argument,
    [i4] carries an IPv6-width value in the IPv4 key. *)

val v1 : Entry.t
val v2 : Entry.t
val v3 : Entry.t
val i1 : Entry.t
val i2 : Entry.t
val i3 : Entry.t
val i4 : Entry.t
val i5 : Entry.t

val figure3_valid : Entry.t list
