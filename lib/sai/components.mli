(** Shared building blocks of the SAI-style P4 models (§3 "Role Specific
    Instantiations"): the common component library from which the
    role-specific programs ([Middleblock], [Wan], [Tor], [Cerberus]) are
    instantiated. Each function returns actions/tables/parser fragments in
    terms of the common metadata schema ({!metadata}).

    Table sizes encode the hardware's guaranteed minimums (§3 "Bounded
    Internal Resources"); [@refers_to] annotations encode SAI's allocation
    discipline (VRFs, nexthops, RIFs, neighbors, mirror sessions must exist
    before use). *)

module Ast = Switchv_p4ir.Ast

val restriction : string -> Switchv_p4constraints.Constraint_lang.t
(** Parse an entry-restriction; raises on syntax errors (model bug). *)

val metadata : (string * int) list
(** The common user-metadata schema: vrf_id, l3_admit, nexthop_id,
    wcmp_group_id, router_interface_id, neighbor_id, is_ipv4, is_ipv6,
    tunnel_id, tunnel_encap. *)

val standard_parser : Ast.parser
(** ethernet → (ipv4 | ipv6 | arp) → (tcp | udp | icmp). *)

val parser_with_gre : Ast.parser
(** [standard_parser] extended with an IPv4-protocol-47 → GRE branch, for
    the tunnel-modeling roles (WAN, Cerberus). *)

val standard_headers : Switchv_packet.Header.t list
val headers_with_gre : Switchv_packet.Header.t list

(** {1 Actions}

    [drop] drops; [set_vrf] writes meta.vrf_id. The other actions are
    reached through {!common_actions} and {!tunnel_actions}: [trap] (punt +
    drop), [acl_copy] (punt while forwarding), [set_ip_nexthop] (RIF +
    neighbor parameters), [mirror] (writes std.mirror_session), and the
    Cerberus/WAN tunnel actions [set_gre_encap]/[gre_decap]. *)

val no_action : Ast.action
val drop : Ast.action
val set_vrf : Ast.action

val common_actions : Ast.action list
(** All actions except the tunnel ones (usable by programs without a GRE
    header). *)

val tunnel_actions : Ast.action list
(** [set_gre_encap], [gre_decap], [set_tunnel_id] — for programs that
    declare the GRE header and a tunnel table (WAN, Cerberus). *)

(** {1 Tables}

    Each constructor takes the table id to use in this instantiation. *)

val vrf_table : id:int -> Ast.table
(** No-op allocation table, entry restriction [vrf_id != 0] (Figure 2). *)

val acl_pre_ingress_table : id:int -> Ast.table
(** Pre-ingress ACL assigning VRFs; set_vrf param [@refers_to] vrf_table. *)

val l3_admit_table : id:int -> Ast.table

val ipv4_table : ?extra_actions:string list -> id:int -> unit -> Ast.table
(** vrf_id exact [@refers_to vrf_table] + dst lpm; actions drop /
    set_nexthop_id / set_wcmp_group_id (Figure 2's ipv4_tbl), plus any
    [extra_actions] (e.g. [set_tunnel_id] in the WAN role). *)

val ipv6_table : ?extra_actions:string list -> id:int -> unit -> Ast.table

val wcmp_group_table : id:int -> Ast.table
(** One-shot action-selector table (WCMP). *)

val nexthop_table : id:int -> Ast.table
val router_interface_table : id:int -> Ast.table
val neighbor_table : id:int -> Ast.table
val mirror_session_table : id:int -> Ast.table
(** Logical table (§3 "Mirror Sessions"): programmed by the controller,
    never applied in the pipeline; the harness derives the interpreter's
    mirror map from its entries. *)

val acl_ingress_table :
  ?name:string -> id:int -> keys:Ast.key list -> restriction:string -> unit -> Ast.table
(** Role-specific ACL: the key set varies per role (§3). *)

val acl_egress_table : id:int -> Ast.table
val egress_router_interface_table : id:int -> Ast.table
(** Egress replica of the RIF table (§3 "P4 Language Features": components
    used at both ingress and egress must be modeled as replicated tables). *)

val tunnel_table : id:int -> Ast.table
val decap_table : id:int -> Ast.table

(** {1 Pipeline fragments} *)

val classify_ip : Ast.control
(** Set meta.is_ipv4 / is_ipv6 from header validity. *)

val ttl_guard : Ast.control
(** The fixed-function TTL 0/1 trap (§6.1 "new chip" bug site). *)

val routing_core : Ast.control
(** l3_admit → (ipv4|ipv6) route → wcmp → nexthop → rif → neighbor. *)

val ingress_acl_keys_middleblock : Ast.key list
val ingress_acl_keys_tor : Ast.key list
val ingress_acl_keys_wan : Ast.key list
