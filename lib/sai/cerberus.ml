(** The Cerberus P4 model: a vendor stack with a more involved forwarding
    pipeline than PINS (§6) — GRE decapsulation at ingress, encapsulation
    after routing, plus the standard SAI routing core. *)

module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module C = Components
open Ast

let program =
  { p_name = "cerberus";
    p_headers = C.headers_with_gre;
    p_metadata = C.metadata;
    p_parser = C.parser_with_gre;
    p_actions = C.common_actions @ C.tunnel_actions;
    p_tables =
      [ C.acl_pre_ingress_table ~id:1;
        C.vrf_table ~id:2;
        C.l3_admit_table ~id:3;
        C.ipv4_table ~id:4 ~extra_actions:[ "set_tunnel_id" ] ();
        C.ipv6_table ~id:5 ~extra_actions:[ "set_tunnel_id" ] ();
        C.wcmp_group_table ~id:6;
        C.nexthop_table ~id:7;
        C.router_interface_table ~id:8;
        C.neighbor_table ~id:9;
        C.acl_ingress_table ~id:10 ~keys:C.ingress_acl_keys_middleblock
          ~restriction:"!(is_ipv4 == 1 && is_ipv6 == 1) && ttl::mask == 0" ();
        C.acl_egress_table ~id:11;
        C.mirror_session_table ~id:12;
        C.egress_router_interface_table ~id:13;
        C.tunnel_table ~id:14;
        C.decap_table ~id:15 ];
    p_ingress =
      seq
        [ C.classify_ip;
          C_if (B_is_valid "gre", C_table "decap_table", C_nop);
          C_table "acl_pre_ingress_table";
          C_table "vrf_table";
          C.routing_core;
          C_if
            ( B_eq (E_field (meta "tunnel_encap"), E_const (Bitvec.of_int ~width:1 1)),
              C_table "tunnel_table",
              C_nop );
          C.ttl_guard;
          C_table "acl_ingress_table" ];
    p_egress = seq [ C_table "egress_router_interface_table"; C_table "acl_egress_table" ] }

let () = Switchv_p4ir.Typecheck.check_exn program
