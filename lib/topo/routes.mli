(** Deterministic per-switch route programming for fabric campaigns.

    Addressing plan: host [i] hangs off switch [i]'s {!Topo.edge_port}
    with address [10.i.0.1] (prefix [10.i.0.0/24]) and MAC {!host_mac};
    switch [i]'s router MAC is {!router_mac_string}. Every switch gets one
    VRF, one router-interface/neighbor/nexthop triple per forwarding target
    (its own host plus each fabric neighbor), an L3-admit entry for its
    own router MAC, a mirror session pointed at the edge port (with an
    ingress-ACL mirror rule for DSCP {!mirror_dscp} traffic when the model
    has a [dscp] ACL key), and one [ipv4_table] route per host prefix
    pointing at the BFS next hop from {!Topo.next_hop}.

    Entries are emitted in dependency order (references precede
    referents), so installing them sequentially never dangles, and are a
    pure function of (topology, program, switch) — fabric campaigns stay
    byte-deterministic. Tables absent from the program are skipped. *)

module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module Bitvec = Switchv_bitvec.Bitvec

val host_mac : int -> Bitvec.t
(** 48-bit MAC of the host behind switch [i]'s edge port. *)

val router_mac_string : int -> string
val host_mac_string : int -> string
(** The same MACs as ["aa:bb:..."] strings for packet builders. *)

val host_ip : int -> string
(** ["10.<i>.0.1"] (dotted quad). *)

val mirror_dscp : int
(** DSCP value (46) whose IPv4 traffic the ingress ACL mirrors to the
    edge port, when the model supports it. *)

val entries : Topo.t -> Ast.program -> switch:int -> Entry.t list
