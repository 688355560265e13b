(** The ToR role instantiation: same blueprint as {!Middleblock}, but the
    role-specific ACL matches a ToR-relevant key combination (L4 ports,
    ICMP type, dst MAC) that fits the TCAM limits of that role (§3 "Role
    Specific Instantiations"). *)

module Ast = Switchv_p4ir.Ast
module C = Components
open Ast

let program =
  { p_name = "sai_tor";
    p_headers = C.standard_headers;
    p_metadata = C.metadata;
    p_parser = C.standard_parser;
    p_actions = C.common_actions;
    p_tables =
      [ C.acl_pre_ingress_table ~id:1;
        C.vrf_table ~id:2;
        C.l3_admit_table ~id:3;
        C.ipv4_table ~id:4 ();
        C.ipv6_table ~id:5 ();
        C.wcmp_group_table ~id:6;
        C.nexthop_table ~id:7;
        C.router_interface_table ~id:8;
        C.neighbor_table ~id:9;
        C.acl_ingress_table ~id:10 ~keys:C.ingress_acl_keys_tor
          ~restriction:"!(is_ipv4 == 1 && is_ipv6 == 1) && (l4_dst_port::mask == 0 || icmp_type::mask == 0)"
          ();
        C.acl_egress_table ~id:11;
        C.mirror_session_table ~id:12;
        C.egress_router_interface_table ~id:13 ];
    p_ingress =
      seq
        [ C.classify_ip;
          C_table "acl_pre_ingress_table";
          C_table "vrf_table";
          C.routing_core;
          C.ttl_guard;
          C_table "acl_ingress_table" ];
    p_egress = seq [ C_table "egress_router_interface_table"; C_table "acl_egress_table" ] }

let () = Switchv_p4ir.Typecheck.check_exn program
