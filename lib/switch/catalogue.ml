module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Entry = Switchv_p4runtime.Entry
open Fault

(* Resolution-day representatives per Figure 7 bucket, with the bucket
   population for the PINS catalogue (113 resolved + 9 unresolved = 122).
   The shape matches the paper: majority <= 14 days, ~33% <= 5 days, a
   long tail past 150 days, 9 unresolved. *)
let pins_days_pool =
  let bucket rep n = List.init n (fun _ -> Some rep) in
  List.concat
    [ bucket 1 30; bucket 4 18; bucket 8 14; bucket 13 12; bucket 16 9;
      bucket 22 7; bucket 26 5; bucket 47 9; bucket 66 4; bucket 110 2;
      bucket 128 2; bucket 157 1;
      List.init 9 (fun _ -> None) ]

(* Parameters derived from the workload so a campaign over those entries
   actually exercises each fault. *)
type workload_params = {
  route_dsts : (Bitvec.t * int) list;   (* (covered dst ip, /len) of ipv4 routes *)
  rif_ports : int list;                 (* distinct egress ports programmed *)
}

let params_of_entries entries =
  let route_dsts =
    List.filter_map
      (fun (e : Entry.t) ->
        let forwards =
          match e.e_action with
          | Entry.Single { ai_name = "set_nexthop_id" | "set_wcmp_group_id"; _ } -> true
          | _ -> false
        in
        if String.equal e.e_table "ipv4_table" && forwards then
          match Entry.find_match e "ipv4_dst" with
          | Some (Entry.M_lpm p) when Prefix.len p = 24 ->
              Some (Prefix.value p, Prefix.len p)
          | _ -> None
        else None)
      entries
  in
  let rif_ports =
    List.filter_map
      (fun (e : Entry.t) ->
        if String.equal e.e_table "router_interface_table" then
          match e.e_action with
          | Entry.Single { ai_name = "set_port_and_src_mac"; ai_args = port :: _ } ->
              Bitvec.to_int port
          | _ -> None
        else None)
      entries
    |> List.sort_uniq Int.compare
  in
  { route_dsts; rif_ports }

(* Deal out workload-derived parameters cyclically; when the workload has
   fewer distinct targets than fault instances, later instances re-use
   targets with a host offset (less likely to be exercised — reported as
   undetected, which is realistic). *)
let nth_route_dst params i =
  match params.route_dsts with
  | [] -> Bitvec.of_int64 ~width:32 0x0A000100L
  | dsts ->
      let n = List.length dsts in
      let base, _len = List.nth dsts (i mod n) in
      Bitvec.add base (Bitvec.of_int ~width:32 (i / n))

let nth_port params i =
  match params.rif_ports with
  | [] -> 1 + i
  | ports -> List.nth ports (i mod List.length ports) + (8 * (i / List.length ports))

(* --- PINS ------------------------------------------------------------------ *)

let pins _program entries =
  let params = params_of_entries entries in
  let faults = ref [] in
  let n = ref 0 in
  let add ?trivial ~component kind description =
    incr n;
    let id = Printf.sprintf "PINS-%03d" !n in
    faults :=
      { id; kind; component; description; days_to_resolution = None;
        trivial_test = trivial }
      :: !faults
  in

  (* --- fuzzer-territory faults (37) --- *)
  let push_components =
    [ (P4runtime_server, 5); (Orchestration_agent, 5); (Syncd, 4);
      (P4_toolchain, 1); (Input_p4_program, 1) ]
  in
  List.iter
    (fun (component, count) ->
      for i = 1 to count do
        add ~trivial:Set_p4info ~component P4info_push_fails
          (Printf.sprintf "P4Info push fails (%s variant %d)"
             (component_to_string component) i)
      done)
    push_components;

  add ~trivial:Table_entry_programming ~component:P4runtime_server
    (Reject_valid_insert "acl_pre_ingress_table")
    "rejects all ACL pre-ingress entries (key encoding)";
  add ~trivial:Table_entry_programming ~component:Orchestration_agent
    (Reject_valid_insert "acl_ingress_table")
    "OA API does not support the space character in keys; all ACL entries rejected";
  add ~trivial:Table_entry_programming ~component:Orchestration_agent
    (Reject_valid_insert "l3_admit_table")
    "does not capitalize table names; l3 admit entries rejected";
  add ~trivial:Table_entry_programming ~component:Orchestration_agent
    (Reject_valid_insert "neighbor_table")
    "neighbor entries rejected due to key canonicalisation";
  add ~trivial:Table_entry_programming ~component:Syncd
    (Reject_valid_insert "acl_egress_table")
    "egress ACL entries rejected by SAI adapter";
  add ~trivial:Table_entry_programming ~component:Syncd
    (Reject_valid_insert "mirror_session_table")
    "mirror sessions cannot be created";

  add ~component:P4runtime_server (Accept_constraint_violation "vrf_table")
    "accepts reserved VRF 0 (entry restriction not enforced)";
  add ~component:P4runtime_server (Accept_dangling_reference "ipv4_table")
    "accepts routes whose VRF/nexthop does not exist";
  add ~component:Syncd (Accept_duplicate_insert "ipv4_table")
    "duplicate route insert reports OK (incorrect error message for duplicates)";
  add ~component:Orchestration_agent Accept_invalid_weight
    "accepts non-positive WCMP weights";
  add ~component:Orchestration_agent Reject_duplicate_wcmp_actions
    "rejects WCMP groups with same-action buckets, violating the P4RT spec";
  add ~component:P4runtime_server Delete_nonexistent_fails_batch
    "deleting non-existing entry causes entire batch to fail";
  add ~component:Orchestration_agent (Modify_keeps_old_args "ipv4_table")
    "MODIFY leaves old action parameters unchanged";
  add ~trivial:Read_all_tables ~component:P4runtime_server
    (Read_drops_table "acl_ingress_table")
    "does not support reading ternary fields";
  add ~trivial:Read_all_tables ~component:Syncd Read_zeroes_priority
    "read-back loses entry priorities";
  add ~component:Syncd (Resource_exhausted_early ("acl_ingress_table", 3))
    "does not clean up invalid ACL entries; RESOURCE_EXHAUSTED early";
  add ~component:Input_p4_program (Resource_exhausted_early ("router_interface_table", 2))
    "resource guarantees for router_interface_table unrealistically high for new chip";
  add ~component:Hardware (Resource_exhausted_early ("ipv4_table", 8))
    "ALPM capacity below the guaranteed route count";
  add ~component:Orchestration_agent (Delete_leaves_entry "nexthop_table")
    "nexthop delete acknowledged but entry remains";
  add ~component:Syncd Reject_vrf_delete_with_any_routes
    "VRF deletion fails due to incorrect ALPM flag usage while routes exist";
  add ~component:P4runtime_server (Crash_on_delete_sequence 8)
    "inconsistent state after certain sequences of L3 table entry deletions";

  (* --- symbolic-territory faults (85) --- *)
  let drops =
    [ ("acl_pre_ingress_table", P4runtime_server);
      ("acl_ingress_table", P4runtime_server);
      ("l3_admit_table", Orchestration_agent);
      ("wcmp_group_table", Orchestration_agent);
      ("neighbor_table", Orchestration_agent);
      ("egress_router_interface_table", Orchestration_agent);
      ("ipv4_table", Syncd);
      ("ipv6_table", Syncd);
      ("nexthop_table", Syncd);
      ("router_interface_table", Syncd);
      ("mirror_session_table", Syncd);
      ("acl_egress_table", P4_toolchain) ]
  in
  List.iter
    (fun (tbl, component) ->
      let trivial =
        match tbl with
        | "acl_ingress_table" -> Some Packet_in
        | "ipv4_table" | "l3_admit_table" | "acl_pre_ingress_table" ->
            Some Packet_forwarding
        | _ -> None
      in
      add ?trivial ~component (Syncd_drops_table tbl)
        (Printf.sprintf "entries of %s never reach the ASIC" tbl))
    drops;
  add ~component:Syncd (Syncd_offsets_port_arg "router_interface_table")
    "router interface port attribute translated off by one";
  add ~component:Orchestration_agent Wcmp_update_removes_member
    "WCMP group update logic removes unchanged group members";

  add ~trivial:Packet_in ~component:Switch_linux (Punt_ether_type 0x88CC)
    "runs LLDP causing packets to be punted to controller";
  add ~component:Switch_linux (Punt_ether_type 0x8809)
    "LACP daemon intercepts slow-protocol frames";
  add ~component:Switch_linux (Punt_ether_type 0x0806)
    "kernel ARP responder races the SDN controller's ARP application";
  add ~component:Switch_linux (Punt_ether_type 0x8100)
    "VLAN frames leak to the CPU";
  add ~component:P4runtime_server (Punt_ether_type 0x0800)
    "application punts certain IPv4 packets back to the controller";
  add ~component:P4runtime_server (Punt_ether_type 0x86DD)
    "switch sends IPv6 router solicitation packets unexpectedly";
  add ~trivial:Packet_in ~component:Switch_linux Punt_lost
    "a port sync daemon restarts unexpectedly, breaking all packet IO";
  add ~trivial:Packet_in ~component:Switch_linux Punt_lost
    "daemons crash when network interface goes down; punted packets lost";

  add ~component:Syncd Ttl_trap_always
    "new chip has a built-in trap that punts TTL 0/1 packets regardless of configuration";
  add ~component:Syncd (Dscp_remark_zero 1)
    "switch occasionally re-marks DSCP to 0 in forwarded packets";
  add ~component:Syncd Mirror_ignored "mirror sessions silently not applied to the ASIC";
  add ~trivial:Packet_out ~component:P4runtime_server Packet_out_punted_back
    "PacketOut packets incorrectly get punted back to controller";
  add ~trivial:Packet_out ~component:Syncd Submit_to_ingress_dropped
    "L3 forwarding not enabled for submit-to-ingress packets; dropped on new chip";
  add ~component:Gnmi (Drop_on_port 1) "port 1 config leaves the interface down";
  add ~component:Gnmi (Drop_on_port 2) "port 2 speed mismatch drops all traffic";

  (* Forward-to-wrong-port instances over ports the workload programs. *)
  let wrong_port_components =
    [ Orchestration_agent; Orchestration_agent; Syncd; Syncd ]
  in
  List.iteri
    (fun i component ->
      let p = nth_port params i in
      add ~component (Forward_wrong_port_for_port p)
        (Printf.sprintf "packets for port %d egress on the wrong port" p))
    wrong_port_components;

  (* Destination-specific forwarding bugs over covered route prefixes. *)
  let drop_components =
    List.concat
      [ List.init 31 (fun _ -> P4runtime_server);
        List.init 4 (fun _ -> Orchestration_agent);
        List.init 1 (fun _ -> Syncd);
        List.init 3 (fun _ -> Switch_linux);
        List.init 13 (fun _ -> Input_p4_program) ]
  in
  List.iteri
    (fun i component ->
      let dst = nth_route_dst params i in
      let desc =
        if component = Input_p4_program then
          Printf.sprintf
            "model forwards packets to %s but the switch (correctly) drops them"
            (Bitvec.to_hex_string dst)
        else
          Printf.sprintf "packets to %s are dropped in hardware" (Bitvec.to_hex_string dst)
      in
      add ~component (Drop_dst_ip dst) desc)
    drop_components;

  (* Attach resolution metadata per the Figure 7 distribution. The pool is
     dealt out with a fixed stride so fuzzer- and symbolic-found bugs both
     span the whole histogram. *)
  let faults = List.rev !faults in
  let n = List.length faults in
  let pool = Array.of_list pins_days_pool in
  List.mapi
    (fun i f ->
      { f with days_to_resolution = pool.(i * 53 mod Array.length pool) })
    (List.filteri (fun i _ -> i < n) faults)

(* --- Cerberus ---------------------------------------------------------------- *)

let cerberus _program entries =
  let params = params_of_entries entries in
  let faults = ref [] in
  let n = ref 0 in
  let add ?days ?trivial ~component kind description =
    incr n;
    let id = Printf.sprintf "CERB-%03d" !n in
    faults :=
      { id; kind; component; description; days_to_resolution = days;
        trivial_test = trivial }
      :: !faults
  in

  (* fuzzer-territory: 14 vendor software + 4 BMv2 simulator. The vendor
     pre-tested the stack with traditional means (§6.2), so trivially
     findable faults (config pushes, blanket rejections) are rare; what is
     left is subtle state handling. *)
  add ~days:7 ~trivial:Set_p4info ~component:Vendor_software P4info_push_fails
    "pipeline config rejected on the lab unit";
  add ~days:12 ~trivial:Table_entry_programming ~component:Vendor_software
    (Reject_valid_insert "tunnel_table") "tunnel creation rejected";
  add ~days:3 ~component:Vendor_software (Accept_constraint_violation "vrf_table")
    "reserved VRF programmable";
  add ~days:21 ~component:Vendor_software (Accept_dangling_reference "ipv4_table")
    "routes with missing nexthops accepted";
  add ~days:5 ~component:Vendor_software (Accept_duplicate_insert "ipv4_table")
    "duplicate inserts acknowledged";
  add ~days:16 ~component:Vendor_software Accept_invalid_weight
    "zero WCMP weights accepted";
  add ~days:40 ~component:Vendor_software Delete_nonexistent_fails_batch
    "batch aborted on missing delete";
  add ~days:11 ~component:Vendor_software (Modify_keeps_old_args "ipv4_table")
    "IPv4 route modify ignored";
  add ~days:9 ~component:Vendor_software (Modify_keeps_old_args "ipv6_table")
    "IPv6 route modify ignored";
  add ~days:2 ~component:Vendor_software (Resource_exhausted_early ("acl_ingress_table", 3))
    "ACL capacity below guarantee";
  add ~days:30 ~component:Vendor_software (Delete_leaves_entry "nexthop_table")
    "nexthop delete acknowledged but ignored";
  add ~days:24 ~component:Vendor_software Reject_vrf_delete_with_any_routes
    "VRF deletion refused while any routes exist";
  add ~days:18 ~component:Vendor_software (Accept_duplicate_insert "ipv6_table")
    "duplicate IPv6 inserts acknowledged";
  add ~days:44 ~component:Vendor_software (Crash_on_delete_sequence 8)
    "switch wedges on delete-heavy batches";

  add ~days:6 ~trivial:Read_all_tables ~component:Bmv2_simulator Read_zeroes_priority
    "simulator read-back loses priorities";
  add ~days:14 ~component:Bmv2_simulator (Delete_leaves_entry "tunnel_table")
    "simulator keeps deleted tunnels";
  add ~days:27 ~component:Bmv2_simulator (Crash_on_delete_sequence 10)
    "simulator crashes on delete-heavy batches";
  add ~days:19 ~component:Bmv2_simulator (Accept_duplicate_insert "acl_egress_table")
    "simulator accepts duplicate egress ACL entries";

  (* symbolic-territory: 10 vendor software + 1 hardware + 3 model bugs *)
  add ~days:13 ~component:Vendor_software Encap_reversed_dst
    "switch software reverses the destination IP used for packet encapsulation (endianness)";
  add ~days:8 ~component:Vendor_software (Syncd_drops_table "tunnel_table")
    "tunnels never programmed into the ASIC";
  add ~days:33 ~component:Vendor_software (Syncd_drops_table "decap_table")
    "decap rules not applied";
  add ~days:4 ~trivial:Packet_forwarding ~component:Vendor_software
    (Syncd_drops_table "ipv4_table") "routes silently missing from the ASIC";
  add ~days:17 ~trivial:Packet_in ~component:Vendor_software
    (Syncd_drops_table "acl_ingress_table") "ACL stage bypassed";
  add ~days:23 ~component:Vendor_software Ttl_trap_always "TTL trap not configurable";
  add ~days:10 ~component:Vendor_software Mirror_ignored "mirroring not implemented";
  add ~days:55 ~trivial:Packet_in ~component:Vendor_software (Punt_ether_type 0x0800)
    "spurious CPU copies of IPv4 traffic";
  add ~days:7 ~trivial:Packet_in ~component:Vendor_software Punt_lost
    "punt path broken after port flap";
  add ~days:61 ~trivial:Packet_out ~component:Vendor_software Packet_out_punted_back
    "packet-out loops back to CPU";

  ignore (nth_port params 0);
  add ~days:26 ~component:Hardware (Drop_on_port 2)
    "hardware drops packets on a port with a certain port speed (electric interference)";

  List.iteri
    (fun i days ->
      let dst = nth_route_dst params i in
      add ~days ~component:Input_p4_program (Drop_dst_ip dst)
        (Printf.sprintf
           "P4 model forwards %s but the switch correctly drops it"
           (Bitvec.to_hex_string dst)))
    [ 36; 13; 2 ];

  List.rev !faults

(* Fabric-specific instances (TOPO ids), seedable onto one switch of a
   multi-switch campaign. Kept out of the PINS/Cerberus lists so their
   paper-pinned populations (122/32) stay intact. *)
let topo _program _entries =
  [ Fault.make ~id:"TOPO-001" ~component:Syncd (Ttl_trap_threshold 63)
      "TTL trap threshold misprogrammed: chip punts admitted IPv4 arriving \
       with TTL <= 63 — invisible to TTL-64 edge traffic, bites at hop >= 2";
    Fault.make ~id:"TOPO-002" ~component:Hardware (Drop_on_port 1)
      "fabric link port 1 drops all arriving traffic (cut link)";
    Fault.make ~id:"TOPO-003" ~component:Syncd (Forward_wrong_port_for_port 1)
      "fabric egress on link port 1 rewritten to the next port" ]

let resolve program entries ids =
  let all = pins program entries @ cerberus program entries @ topo program entries in
  List.fold_right
    (fun id acc ->
      match (List.find_opt (fun (f : Fault.t) -> String.equal f.id id) all, acc) with
      | None, _ -> Error (Printf.sprintf "no catalogue fault %S for this model" id)
      | Some f, Ok fs -> Ok (f :: fs)
      | Some _, (Error _ as e) -> e)
    ids (Ok [])

let expected_detector (f : Fault.t) =
  if Fault.is_control_plane f.kind then `Fuzzer else `Symbolic
