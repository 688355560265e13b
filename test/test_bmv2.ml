(* Tests for the reference P4 interpreter: parsing, matching semantics
   (exact / LPM / ternary / priority), action execution, TTL handling,
   punt/mirror, WCMP enumeration, and parse-deparse consistency. *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng
module Packet = Switchv_packet.Packet
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Interp = Switchv_bmv2.Interp
module Middleblock = Switchv_sai.Middleblock
module Figure2 = Switchv_sai.Figure2
module Workload = Switchv_sai.Workload

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let bv16 = Bitvec.of_int ~width:16
let fm field value = { Entry.fm_field = field; fm_value = value }
let single name args = Entry.Single { ai_name = name; ai_args = args }

(* A fully provisioned middleblock state: admit everything from MAC
   02:..:aa:01, map all IPv4 to VRF 1, route 10.1.0.0/16 -> nexthop 1 ->
   rif 1 (port 7). *)
let provisioned () =
  let s = State.create () in
  let add e = ignore (State.insert s e) in
  add (Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)) ]
         (single "no_action" []));
  add (Entry.make ~table:"router_interface_table"
         ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 1)) ]
         (single "set_port_and_src_mac" [ bv16 7; Packet.mac_of_string "02:00:00:00:bb:01" ]));
  add (Entry.make ~table:"neighbor_table"
         ~matches:
           [ fm "router_interface_id" (Entry.M_exact (bv16 1));
             fm "neighbor_id" (Entry.M_exact (bv16 1)) ]
         (single "set_dst_mac" [ Packet.mac_of_string "02:00:00:00:cc:01" ]));
  add (Entry.make ~table:"nexthop_table" ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 1)) ]
         (single "set_ip_nexthop" [ bv16 1; bv16 1 ]));
  add (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
         ~matches:[ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
         (single "set_vrf" [ bv16 1 ]));
  add (Entry.make ~table:"l3_admit_table" ~priority:1
         ~matches:
           [ fm "dst_mac" (Entry.M_ternary (Ternary.exact (Packet.mac_of_string "02:00:00:00:aa:01"))) ]
         (single "l3_admit" []));
  add (Entry.make ~table:"ipv4_table"
         ~matches:
           [ fm "vrf_id" (Entry.M_exact (bv16 1));
             fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.1.0.0/16")) ]
         (single "set_nexthop_id" [ bv16 1 ]));
  s

let cfg ?(state = provisioned ()) ?(mirror_map = []) () =
  { Interp.program = Middleblock.program; state; hash_mode = Interp.Seeded 5; mirror_map }

(* Every hash round's behaviour for bytes arriving on port 1. *)
let enumerate c bytes = Interp.behavior_set c (fun c -> Interp.run c ~ingress_port:1 bytes)

let packet ?(dst_mac = "02:00:00:00:aa:01") ?(ttl = 64) ~dst () =
  { Packet.headers =
      [ Packet.ethernet_frame ~dst:dst_mac ~ether_type:0x0800 ();
        Packet.ipv4_header ~ttl ~src:"192.0.2.1" ~dst ();
        Packet.udp_header ~src_port:1000 ~dst_port:2000 () ];
    payload = "xyz" }

(* --- forwarding --------------------------------------------------------------- *)

let test_forward () =
  let b = Interp.run_packet (cfg ()) ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  check_bool "forwarded to rif port" true (b.b_egress = Some 7);
  check_bool "not punted" false b.b_punted

let test_route_miss_drops () =
  let b = Interp.run_packet (cfg ()) ~ingress_port:1 (packet ~dst:"99.1.2.3" ()) in
  check_bool "default action drops" true (b.b_egress = None)

let test_not_admitted_drops () =
  let b =
    Interp.run_packet (cfg ()) ~ingress_port:1
      (packet ~dst_mac:"02:00:00:00:00:99" ~dst:"10.1.2.3" ())
  in
  check_bool "non-admitted packet is not routed" true (b.b_egress = None)

let test_ttl_decrement () =
  let b = Interp.run_packet (cfg ()) ~ingress_port:1 (packet ~ttl:64 ~dst:"10.1.2.3" ()) in
  (* TTL is at offset 14+8 of the output bytes. *)
  check_int "ttl decremented" 63 (Char.code b.b_packet.[22])

let test_ttl_expiry_punts () =
  let b = Interp.run_packet (cfg ()) ~ingress_port:1 (packet ~ttl:1 ~dst:"10.1.2.3" ()) in
  check_bool "dropped" true (b.b_egress = None);
  check_bool "punted to controller" true b.b_punted

let test_dst_mac_rewrite () =
  let b = Interp.run_packet (cfg ()) ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  (* Neighbor entry rewrites the destination MAC. *)
  check_int "dst mac rewritten" 0xcc (Char.code b.b_packet.[4]);
  (* RIF entry rewrites the source MAC. *)
  check_int "src mac rewritten" 0xbb (Char.code b.b_packet.[10])

(* --- LPM precedence ------------------------------------------------------------ *)

let test_lpm_longest_wins () =
  let state = provisioned () in
  (* More-specific /24 to a different nexthop via a second rif/nexthop. *)
  ignore
    (State.insert state
       (Entry.make ~table:"router_interface_table"
          ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 2)) ]
          (single "set_port_and_src_mac" [ bv16 9; Packet.mac_of_string "02:00:00:00:bb:02" ])));
  ignore
    (State.insert state
       (Entry.make ~table:"neighbor_table"
          ~matches:
            [ fm "router_interface_id" (Entry.M_exact (bv16 2));
              fm "neighbor_id" (Entry.M_exact (bv16 2)) ]
          (single "set_dst_mac" [ Packet.mac_of_string "02:00:00:00:cc:02" ])));
  ignore
    (State.insert state
       (Entry.make ~table:"nexthop_table" ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 2)) ]
          (single "set_ip_nexthop" [ bv16 2; bv16 2 ])));
  ignore
    (State.insert state
       (Entry.make ~table:"ipv4_table"
          ~matches:
            [ fm "vrf_id" (Entry.M_exact (bv16 1));
              fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.1.2.0/24")) ]
          (single "set_nexthop_id" [ bv16 2 ])));
  let c = cfg ~state () in
  let inside = Interp.run_packet c ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  check_bool "/24 wins inside" true (inside.b_egress = Some 9);
  let outside = Interp.run_packet c ~ingress_port:1 (packet ~dst:"10.1.9.9" ()) in
  check_bool "/16 used outside" true (outside.b_egress = Some 7)

(* --- ternary priority ------------------------------------------------------------ *)

let test_acl_priority () =
  let state = provisioned () in
  let acl prio action dst =
    Entry.make ~table:"acl_ingress_table" ~priority:prio
      ~matches:
        [ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1)));
          fm "dst_ip" (Entry.M_ternary (Ternary.exact (Packet.ipv4_of_string dst))) ]
      (single action [])
  in
  ignore (State.insert state (acl 1 "no_action" "10.1.2.3"));
  ignore (State.insert state (acl 10 "drop" "10.1.2.3"));
  let b = Interp.run_packet (cfg ~state ()) ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  check_bool "higher priority drop wins" true (b.b_egress = None)

(* --- punt and mirror --------------------------------------------------------------- *)

let test_acl_trap_and_copy () =
  let state = provisioned () in
  ignore
    (State.insert state
       (Entry.make ~table:"acl_ingress_table" ~priority:5
          ~matches:
            [ fm "dst_ip" (Entry.M_ternary (Ternary.exact (Packet.ipv4_of_string "10.1.2.3"))) ]
          (single "acl_trap" [])));
  let b = Interp.run_packet (cfg ~state ()) ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  check_bool "trap punts" true b.b_punted;
  check_bool "trap drops" true (b.b_egress = None);
  let state2 = provisioned () in
  ignore
    (State.insert state2
       (Entry.make ~table:"acl_ingress_table" ~priority:5
          ~matches:
            [ fm "dst_ip" (Entry.M_ternary (Ternary.exact (Packet.ipv4_of_string "10.1.2.3"))) ]
          (single "acl_copy" [])));
  let b2 = Interp.run_packet (cfg ~state:state2 ()) ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  check_bool "copy punts" true b2.b_punted;
  check_bool "copy still forwards" true (b2.b_egress = Some 7)

let test_mirror () =
  let state = provisioned () in
  ignore
    (State.insert state
       (Entry.make ~table:"acl_ingress_table" ~priority:5
          ~matches:
            [ fm "dst_ip" (Entry.M_ternary (Ternary.exact (Packet.ipv4_of_string "10.1.2.3"))) ]
          (single "acl_mirror" [ bv16 3 ])));
  let b =
    Interp.run_packet (cfg ~state ~mirror_map:[ (3, 12) ] ()) ~ingress_port:1
      (packet ~dst:"10.1.2.3" ())
  in
  check_int "one mirror copy" 1 (List.length b.b_mirrors);
  check_bool "mirrored to mapped port" true (List.mem_assoc 12 b.b_mirrors);
  (* Without a session mapping the mirror is silently dropped. *)
  let b2 = Interp.run_packet (cfg ~state ()) ~ingress_port:1 (packet ~dst:"10.1.2.3" ()) in
  check_int "no mirror without session" 0 (List.length b2.b_mirrors)

(* --- WCMP ---------------------------------------------------------------------------- *)

let wcmp_state () =
  let state = provisioned () in
  ignore
    (State.insert state
       (Entry.make ~table:"router_interface_table"
          ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 2)) ]
          (single "set_port_and_src_mac" [ bv16 9; Packet.mac_of_string "02:00:00:00:bb:02" ])));
  ignore
    (State.insert state
       (Entry.make ~table:"neighbor_table"
          ~matches:
            [ fm "router_interface_id" (Entry.M_exact (bv16 2));
              fm "neighbor_id" (Entry.M_exact (bv16 2)) ]
          (single "set_dst_mac" [ Packet.mac_of_string "02:00:00:00:cc:02" ])));
  ignore
    (State.insert state
       (Entry.make ~table:"nexthop_table" ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 2)) ]
          (single "set_ip_nexthop" [ bv16 2; bv16 2 ])));
  ignore
    (State.insert state
       (Entry.make ~table:"wcmp_group_table"
          ~matches:[ fm "wcmp_group_id" (Entry.M_exact (bv16 1)) ]
          (Entry.Weighted
             [ ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 1 ] }, 3);
               ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 2 ] }, 1) ])));
  ignore
    (State.insert state
       (Entry.make ~table:"ipv4_table"
          ~matches:
            [ fm "vrf_id" (Entry.M_exact (bv16 1));
              fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "20.0.0.0/8")) ]
          (single "set_wcmp_group_id" [ bv16 1 ])));
  state

let test_wcmp_behavior_set () =
  let c = cfg ~state:(wcmp_state ()) () in
  let bytes = Packet.to_bytes (packet ~dst:"20.1.2.3" ()) in
  let behaviors = enumerate c bytes in
  (* Both members (ports 7 and 9) must appear, even behind weight-3 buckets. *)
  let ports = List.filter_map (fun (b : Interp.behavior) -> b.b_egress) behaviors in
  check_bool "member 1 covered" true (List.mem 7 ports);
  check_bool "member 2 covered" true (List.mem 9 ports);
  check_int "exactly two behaviours" 2 (List.length behaviors);
  (* Any concrete-hash run lies inside the enumerated set. *)
  let concrete = Interp.run c ~ingress_port:1 bytes in
  check_bool "seeded run within the set" true
    (List.exists (Interp.behavior_equal concrete) behaviors)

let test_wcmp_deterministic_per_flow () =
  let c = cfg ~state:(wcmp_state ()) () in
  let bytes = Packet.to_bytes (packet ~dst:"20.1.2.3" ()) in
  let b1 = Interp.run c ~ingress_port:1 bytes in
  let b2 = Interp.run c ~ingress_port:1 bytes in
  check_bool "same flow, same member" true (Interp.behavior_equal b1 b2)

(* --- GRE tunnels (Cerberus/WAN paths) ----------------------------------------------- *)

module Cerberus = Switchv_sai.Cerberus

let cerberus_state () =
  (* Admitted MAC, catch-all VRF, a tunnel route and a decap rule into the
     routed space. *)
  let s = State.create () in
  let add e = ignore (State.insert s e) in
  add (Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)) ]
         (single "no_action" []));
  add (Entry.make ~table:"router_interface_table"
         ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 1)) ]
         (single "set_port_and_src_mac" [ bv16 7; Packet.mac_of_string "02:00:00:00:bb:01" ]));
  add (Entry.make ~table:"neighbor_table"
         ~matches:
           [ fm "router_interface_id" (Entry.M_exact (bv16 1));
             fm "neighbor_id" (Entry.M_exact (bv16 1)) ]
         (single "set_dst_mac" [ Packet.mac_of_string "02:00:00:00:cc:01" ]));
  add (Entry.make ~table:"nexthop_table" ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 1)) ]
         (single "set_ip_nexthop" [ bv16 1; bv16 1 ]));
  add (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
         ~matches:[ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
         (single "set_vrf" [ bv16 1 ]));
  add (Entry.make ~table:"l3_admit_table" ~priority:1
         ~matches:
           [ fm "dst_mac" (Entry.M_ternary (Ternary.exact (Packet.mac_of_string "02:00:00:00:aa:01"))) ]
         (single "l3_admit" []));
  add (Entry.make ~table:"tunnel_table" ~matches:[ fm "tunnel_id" (Entry.M_exact (bv16 1)) ]
         (single "set_gre_encap" [ Packet.ipv4_of_string "172.16.0.1" ]));
  add (Entry.make ~table:"ipv4_table"
         ~matches:
           [ fm "vrf_id" (Entry.M_exact (bv16 1));
             fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.2.0.0/16")) ]
         (single "set_tunnel_id" [ bv16 1; bv16 1 ]));
  add (Entry.make ~table:"ipv4_table"
         ~matches:
           [ fm "vrf_id" (Entry.M_exact (bv16 1));
             fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.3.0.0/16")) ]
         (single "set_nexthop_id" [ bv16 1 ]));
  add (Entry.make ~table:"decap_table" ~priority:1
         ~matches:
           [ fm "dst_ip"
               (Entry.M_ternary (Ternary.of_prefix (Prefix.of_ipv4_string "10.3.0.0/16"))) ]
         (single "gre_decap" []));
  s

let cerberus_cfg () =
  { Interp.program = Cerberus.program; state = cerberus_state ();
    hash_mode = Interp.Seeded 5; mirror_map = [] }

let test_gre_encap () =
  let b = Interp.run_packet (cerberus_cfg ()) ~ingress_port:1 (packet ~dst:"10.2.9.9" ()) in
  check_bool "tunnel route forwards" true (b.b_egress = Some 7);
  (* Output carries a GRE header (4 bytes) and the rewritten outer dst. *)
  let plain =
    Interp.run_packet (cerberus_cfg ()) ~ingress_port:1 (packet ~dst:"10.3.9.9" ())
  in
  check_int "encap output is 4 bytes longer" 4
    (String.length b.b_packet - String.length plain.b_packet);
  (* Outer dst rewritten to the tunnel endpoint 172.16.0.1. *)
  check_int "outer dst first octet" 172 (Char.code b.b_packet.[30])

let test_gre_decap () =
  (* A GRE packet (ipv4 proto 47) to the decap range loses its GRE header
     and keeps forwarding. *)
  let inner =
    { Packet.headers =
        [ Packet.ethernet_frame ~dst:"02:00:00:00:aa:01" ~ether_type:0x0800 ();
          Packet.ipv4_header ~protocol:47 ~src:"192.0.2.1" ~dst:"10.3.1.1" ();
          Packet.instance Switchv_packet.Header.gre
            [ ("flags", Bitvec.zero 4); ("reserved0", Bitvec.zero 9);
              ("version", Bitvec.zero 3);
              ("protocol", Bitvec.of_int ~width:16 0x0800) ] ];
      payload = "" }
  in
  let b = Interp.run_packet (cerberus_cfg ()) ~ingress_port:1 inner in
  check_bool "decapped packet forwards" true (b.b_egress = Some 7);
  (* 14 (eth) + 20 (ipv4): GRE gone. *)
  check_int "GRE stripped" 34 (String.length b.b_packet);
  (* Same packet outside the decap range keeps its GRE header. *)
  let kept =
    Packet.set inner ~header:"ipv4" ~field:"dst_addr" (Packet.ipv4_of_string "10.2.1.1")
  in
  let b2 = Interp.run_packet (cerberus_cfg ()) ~ingress_port:1 kept in
  check_bool "non-decap GRE keeps header (and gets tunnel-encapped again)" true
    (String.length b2.b_packet > 34)

(* --- packet-out ------------------------------------------------------------------------ *)

let test_packet_out_direct () =
  let b =
    Interp.run_packet_out (cfg ()) ~egress_port:(Some 4) (packet ~dst:"10.1.2.3" ())
  in
  check_bool "emitted directly" true (b.b_egress = Some 4);
  check_bool "no pipeline trace" true (b.b_trace = [ ("<packet-out>", "direct") ])

let test_packet_out_submit_to_ingress () =
  let b = Interp.run_packet_out (cfg ()) ~egress_port:None (packet ~dst:"10.1.2.3" ()) in
  check_bool "routed through the pipeline" true (b.b_egress = Some 7)

(* --- parsing edge cases ------------------------------------------------------------------ *)

let test_parse_failure_on_truncated () =
  Alcotest.check_raises "truncated packet"
    (Interp.Parse_failure "truncated packet: need 160 bits for ipv4") (fun () ->
      (* Ethernet claims IPv4 follows, but the bytes run out. *)
      let eth =
        Packet.serialize (Packet.ethernet_frame ~ether_type:0x0800 ())
        |> Bitvec.to_bytes_be
      in
      ignore (Interp.run (cfg ()) ~ingress_port:1 (eth ^ "xx")))

let test_non_ip_passes_parser () =
  let arp_like =
    Packet.serialize (Packet.ethernet_frame ~ether_type:0x9999 ()) |> Bitvec.to_bytes_be
  in
  let b = Interp.run (cfg ()) ~ingress_port:1 (arp_like ^ "payload") in
  check_bool "unknown ether type accepted and dropped" true (b.b_egress = None)

(* Parse-deparse roundtrip: an unmodified pipeline must emit the very bytes
   it parsed. Use the figure2 program with no entries: default drop but
   b_packet still reflects the deparsed packet. *)
let prop_parse_deparse_identity =
  QCheck.Test.make ~name:"parse-deparse identity" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 0xFFFFFF) ~print:string_of_int)
    (fun seed ->
      let rng = Rng.create seed in
      let dst =
        Printf.sprintf "%d.%d.%d.%d" (Rng.int rng 256) (Rng.int rng 256)
          (Rng.int rng 256) (Rng.int rng 256)
      in
      let p = packet ~ttl:(1 + Rng.int rng 255) ~dst () in
      let bytes = Packet.to_bytes p in
      let empty = State.create () in
      let c =
        { Interp.program = Figure2.program; state = empty;
          hash_mode = Interp.Seeded 0; mirror_map = [] }
      in
      let b = Interp.run c ~ingress_port:1 bytes in
      String.equal b.b_packet bytes)

(* Differential property: for workload-provisioned middleblock state, the
   seeded-hash behaviour is always within the enumerated behaviour set. *)
let prop_seeded_within_enumerated =
  QCheck.Test.make ~name:"seeded behaviour within enumerated set" ~count:40
    (QCheck.make QCheck.Gen.(int_bound 0xFFFF) ~print:string_of_int)
    (fun seed ->
      let rng = Rng.create seed in
      let state = State.create () in
      List.iter
        (fun e -> ignore (State.insert state e))
        (Workload.generate ~seed:3 Middleblock.program Workload.small);
      let c =
        { Interp.program = Middleblock.program; state;
          hash_mode = Interp.Seeded seed; mirror_map = [] }
      in
      let dst = Printf.sprintf "10.0.%d.%d" (Rng.int rng 20) (Rng.int rng 256) in
      let bytes = Packet.to_bytes (packet ~dst_mac:"02:00:00:00:00:00" ~dst ()) in
      let b = Interp.run c ~ingress_port:1 bytes in
      let set = enumerate c bytes in
      List.exists (Interp.behavior_equal b) set)

let () =
  Alcotest.run "bmv2"
    [ ("forwarding",
       [ Alcotest.test_case "routes and forwards" `Quick test_forward;
         Alcotest.test_case "route miss drops" `Quick test_route_miss_drops;
         Alcotest.test_case "unadmitted drops" `Quick test_not_admitted_drops;
         Alcotest.test_case "ttl decrement" `Quick test_ttl_decrement;
         Alcotest.test_case "ttl expiry punts" `Quick test_ttl_expiry_punts;
         Alcotest.test_case "mac rewrites" `Quick test_dst_mac_rewrite ]);
      ("matching",
       [ Alcotest.test_case "lpm longest wins" `Quick test_lpm_longest_wins;
         Alcotest.test_case "acl priority" `Quick test_acl_priority ]);
      ("punt and mirror",
       [ Alcotest.test_case "trap and copy" `Quick test_acl_trap_and_copy;
         Alcotest.test_case "mirror sessions" `Quick test_mirror ]);
      ("wcmp",
       [ Alcotest.test_case "behaviour set covers members" `Quick test_wcmp_behavior_set;
         Alcotest.test_case "deterministic per flow" `Quick test_wcmp_deterministic_per_flow ]);
      ("gre tunnels",
       [ Alcotest.test_case "encap" `Quick test_gre_encap;
         Alcotest.test_case "decap" `Quick test_gre_decap ]);
      ("packet-out",
       [ Alcotest.test_case "direct" `Quick test_packet_out_direct;
         Alcotest.test_case "submit to ingress" `Quick test_packet_out_submit_to_ingress ]);
      ("parsing",
       [ Alcotest.test_case "truncated packet" `Quick test_parse_failure_on_truncated;
         Alcotest.test_case "non-ip accepted" `Quick test_non_ip_passes_parser ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_parse_deparse_identity;
         QCheck_alcotest.to_alcotest prop_seeded_within_enumerated ]) ]
