(** The exact routing pipeline of the paper's Figure 2, plus the table
    entries of Figure 3 — used by the quickstart example and by tests that
    mirror the paper's running example. *)

module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Header = Switchv_packet.Header
module Entry = Switchv_p4runtime.Entry
module C = Components
open Ast

let nexthop_port_action =
  (* A minimal nexthop semantics so Figure 2's set_nexthop_id has an
     observable effect: the nexthop id doubles as the egress port. *)
  { a_name = "set_nexthop_id";
    a_params = [ param "nexthop_id" 16 ];
    a_body =
      [ S_assign (meta "nexthop_id", E_param "nexthop_id");
        S_assign (std "egress_port", E_param "nexthop_id") ] }

let program =
  { p_name = "figure2_routing";
    p_headers = [ Header.ethernet; Header.ipv4; Header.ipv6 ];
    p_metadata = [ ("vrf_id", 16); ("nexthop_id", 16) ];
    p_parser =
      { start = "start";
        states =
          [ { ps_name = "start";
              ps_extract = Some "ethernet";
              ps_next =
                T_select
                  ( E_field (field "ethernet" "ether_type"),
                    [ (Bitvec.of_int ~width:16 0x0800, "parse_ipv4");
                      (Bitvec.of_int ~width:16 0x86DD, "parse_ipv6") ],
                    "accept" ) };
            { ps_name = "parse_ipv4"; ps_extract = Some "ipv4"; ps_next = T_accept };
            { ps_name = "parse_ipv6"; ps_extract = Some "ipv6"; ps_next = T_accept } ] };
    p_actions = [ C.no_action; C.drop; C.set_vrf; nexthop_port_action ];
    p_tables =
      [ { t_name = "acl_pre_ingress_table";
          t_id = 1;
          t_keys =
            [ { k_name = "dst_ip";
                k_expr = E_field (field "ipv4" "dst_addr");
                k_kind = Ternary;
                k_refers_to = None } ];
          t_actions = [ "set_vrf"; "no_action" ];
          t_default_action = ("no_action", []);
          t_size = 32;
          t_entry_restriction = None;
          t_selector = false };
        { t_name = "vrf_table";
          t_id = 2;
          t_keys =
            [ { k_name = "vrf_id";
                k_expr = E_field (meta "vrf_id");
                k_kind = Exact;
                k_refers_to = None } ];
          t_actions = [ "no_action" ];
          t_default_action = ("no_action", []);
          t_size = 64;
          t_entry_restriction = Some (C.restriction "vrf_id != 0");
          t_selector = false };
        { t_name = "ipv4_table";
          t_id = 3;
          t_keys =
            [ { k_name = "vrf_id";
                k_expr = E_field (meta "vrf_id");
                k_kind = Exact;
                k_refers_to = Some ("vrf_table", "vrf_id") };
              { k_name = "ipv4_dst";
                k_expr = E_field (field "ipv4" "dst_addr");
                k_kind = Lpm;
                k_refers_to = None } ];
          t_actions = [ "drop"; "set_nexthop_id" ];
          t_default_action = ("drop", []);
          t_size = 128;
          t_entry_restriction = None;
          t_selector = false } ];
    p_ingress =
      seq
        [ C_table "acl_pre_ingress_table";
          C_table "vrf_table";
          C_if (B_is_valid "ipv4", C_table "ipv4_table", C_nop) ];
    p_egress = C_nop }

let info = P4info.of_program program

let () = Switchv_p4ir.Typecheck.check_exn program

(* --- Figure 3 entries ------------------------------------------------------ *)

let vrf_entry n =
  Entry.make ~table:"vrf_table"
    ~matches:[ { fm_field = "vrf_id"; fm_value = M_exact (Bitvec.of_int ~width:16 n) } ]
    (Single { ai_name = "no_action"; ai_args = [] })

let ipv4_entry ~vrf ~prefix ~action =
  Entry.make ~table:"ipv4_table"
    ~matches:
      [ { fm_field = "vrf_id"; fm_value = M_exact (Bitvec.of_int ~width:16 vrf) };
        { fm_field = "ipv4_dst"; fm_value = M_lpm (Prefix.of_ipv4_string prefix) } ]
    action

(** The entries of Figure 3 with the paper's validity verdicts. [v1] and
    [i1]/[i5] are valid; the rest are invalid for the stated reason. *)
let v1 = vrf_entry 1

let v2 = vrf_entry 0
(** invalid: violates [vrf_id != 0] *)

let v3 =
  Entry.make ~table:"vrf_table"
    ~matches:[ { fm_field = "vrf_id"; fm_value = M_exact (Bitvec.of_int ~width:16 3) } ]
    (Single { ai_name = "set_nexthop_id"; ai_args = [ Bitvec.of_int ~width:16 1 ] })
(** invalid: action not permitted by vrf_table *)

let i1 =
  ipv4_entry ~vrf:1 ~prefix:"10.*.*.*"
    ~action:(Single { ai_name = "set_nexthop_id"; ai_args = [ Bitvec.of_int ~width:16 3 ] })

let i2 =
  ipv4_entry ~vrf:5 ~prefix:"10.*.*.*"
    ~action:(Single { ai_name = "drop"; ai_args = [] })
(** invalid at runtime: vrf 5 does not exist (dangling @refers_to) *)

let i3 =
  ipv4_entry ~vrf:1 ~prefix:"10.*.*.*"
    ~action:(Single { ai_name = "set_nexthop_id"; ai_args = [] })
(** invalid: missing action argument *)

let i4 =
  Entry.make ~table:"ipv4_table"
    ~matches:
      [ { fm_field = "vrf_id"; fm_value = M_exact (Bitvec.of_int ~width:16 1) };
        { fm_field = "ipv4_dst";
          fm_value =
            M_lpm (Prefix.make (Bitvec.of_hex_string ~width:128 "0DB8") 16) } ]
    (Single { ai_name = "set_nexthop_id"; ai_args = [ Bitvec.of_int ~width:16 1 ] })
(** invalid: an IPv6-width value in the IPv4 key *)

let i5 =
  ipv4_entry ~vrf:1 ~prefix:"10.0.*.*"
    ~action:(Single { ai_name = "set_nexthop_id"; ai_args = [ Bitvec.of_int ~width:16 10 ] })

let figure3_valid = [ v1; i1; i5 ]
