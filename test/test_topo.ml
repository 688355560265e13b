(* Tests for lib/topo and the fabric campaign: topology wiring invariants,
   the forwarding loop (delivery, TTL accounting, loop cutting, crashed
   switches), PTF-style end-to-end assertions, packet-out as a fabric
   injection vector, hop-localized triage (the fault-localization matrix:
   every data-plane catalogue kind seeded mid-path must fingerprint the
   introducing switch), campaign determinism across shards/jobs, and the
   observability contract (documented topo.* counters, per-switch
   coverage). *)

module Bitvec = Switchv_bitvec.Bitvec
module Packet = Switchv_packet.Packet
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module Interp = Switchv_bmv2.Interp
module Middleblock = Switchv_sai.Middleblock
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Topo = Switchv_topo.Topo
module Fabric = Switchv_topo.Fabric
module Routes = Switchv_topo.Routes
module Endtoend = Switchv_oracle.Endtoend
module Telemetry = Switchv_telemetry.Telemetry
module Jsonp = Switchv_telemetry.Jsonp
module Repro = Switchv_triage.Repro
module Docs = Switchv_obs.Docs
module Coverage = Switchv_obs.Coverage
module Report = Switchv_core.Report
module Fabric_campaign = Switchv_core.Fabric_campaign

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let program = Middleblock.program

(* --- topology wiring ------------------------------------------------------- *)

let test_shapes () =
  let line = Topo.build Topo.Line 4 in
  check_int "line links" 3 (Topo.link_count line);
  check_bool "line 0-1 adjacent" true (Topo.neighbors line 1 = [ 0; 2 ]);
  let star = Topo.build Topo.Star 5 in
  check_int "star links" 4 (Topo.link_count star);
  check_int "hub degree" 4 (List.length (Topo.neighbors star 0));
  let mesh = Topo.build Topo.Mesh 4 in
  check_int "mesh links" 6 (Topo.link_count mesh);
  let ls = Topo.build Topo.Leaf_spine 6 in
  check_int "leaf-spine default spines" 2 (Topo.spines ls);
  (* 2 spines x 4 leaves, full bipartite *)
  check_int "leaf-spine links" 8 (Topo.link_count ls);
  check_bool "spines not adjacent" true (Topo.link_port ls ~src:0 ~dst:1 = None)

let test_shape_strings () =
  List.iter
    (fun s ->
      match Topo.shape_of_string (Topo.shape_to_string s) with
      | Ok s' -> check_bool "roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
    Topo.all_shapes;
  check_bool "leaf-spine alias" true
    (Topo.shape_of_string "leaf-spine" = Ok Topo.Leaf_spine);
  check_bool "unknown shape" true (Result.is_error (Topo.shape_of_string "ring"))

let test_link_table () =
  let t = Topo.build Topo.Line 3 in
  (* Ports number 1..degree in ascending neighbor order. *)
  check_bool "sw1 port 1 faces sw0" true
    (Topo.link_port t ~src:1 ~dst:0 = Some 1);
  check_bool "sw1 port 2 faces sw2" true
    (Topo.link_port t ~src:1 ~dst:2 = Some 2);
  (* peer is symmetric and inverse of link_port. *)
  List.iter
    (fun ((a, pa), (b, pb)) ->
      check_bool "peer a->b" true (Topo.peer t ~switch:a ~port:pa = Some (b, pb));
      check_bool "peer b->a" true (Topo.peer t ~switch:b ~port:pb = Some (a, pa)))
    (Topo.links t);
  (* The edge port is never linked. *)
  for s = 0 to 2 do
    check_bool "edge port unlinked" true
      (Topo.peer t ~switch:s ~port:Topo.edge_port = None)
  done

let test_paths () =
  let t = Topo.build Topo.Line 4 in
  check_bool "line path" true (Topo.path t ~src:0 ~dst:3 = Some [ 0; 1; 2; 3 ]);
  check_bool "self path" true (Topo.path t ~src:2 ~dst:2 = Some [ 2 ]);
  check_bool "next hop" true (Topo.next_hop t ~src:0 ~dst:3 = Some 1);
  let star = Topo.build Topo.Star 4 in
  check_bool "leaf-to-leaf via hub" true
    (Topo.path star ~src:1 ~dst:3 = Some [ 1; 0; 3 ]);
  (* Deterministic tie-break: lowest switch index. *)
  let mesh = Topo.build Topo.Mesh 4 in
  check_bool "mesh direct" true (Topo.path mesh ~src:1 ~dst:3 = Some [ 1; 3 ])

let test_build_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "zero switches" true (raises (fun () -> Topo.build Topo.Line 0));
  check_bool "too many" true (raises (fun () -> Topo.build Topo.Mesh 65));
  check_bool "no leaves left" true
    (raises (fun () -> Topo.build ~spines:3 Topo.Leaf_spine 3))

(* --- a programmed stack fabric --------------------------------------------- *)

let flow_packet ?(dscp = 0) ~entry ~src ~dst ~ttl () =
  let p = Packet.empty in
  let p =
    Packet.push p
      (Packet.ethernet_frame ~src:(Routes.host_mac_string src)
         ~dst:(Routes.router_mac_string entry) ~ether_type:0x0800 ())
  in
  let p =
    Packet.push p
      (Packet.ipv4_header ~ttl ~dscp ~src:(Routes.host_ip src)
         ~dst:(Routes.host_ip dst) ())
  in
  let p = Packet.push p (Packet.udp_header ~src_port:49152 ~dst_port:443 ()) in
  { p with Packet.payload = "switchv-fabric-payload" }

let programmed_stack ?(faults = []) topo s =
  let st = Stack.create ~faults ~hash_seed:(100 + s) program in
  check_bool "p4info ok" true (Status.is_ok (Stack.push_p4info st));
  List.iter
    (fun e ->
      let resp = Stack.write st { Request.updates = [ Request.insert e ] } in
      List.iter
        (fun s -> check_bool "entry accepted" true (Status.is_ok s))
        resp.Request.statuses)
    (Routes.entries topo program ~switch:s);
  st

let line3_fabric () =
  let topo = Topo.build Topo.Line 3 in
  let stacks = Array.init 3 (programmed_stack topo) in
  let nodes = Array.mapi (fun i st -> Fabric.stack_node i st) stacks in
  (topo, stacks, nodes)

let ttl_of bytes =
  (* ethernet (14 bytes) + ipv4: TTL is byte 8 of the IPv4 header. *)
  Char.code bytes.[14 + 8]

let test_forward_line () =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  let topo, _stacks, nodes = line3_fabric () in
  let bytes = Packet.to_bytes (flow_packet ~entry:0 ~src:0 ~dst:2 ~ttl:64 ()) in
  let tr = Fabric.forward topo nodes ~switch:0 ~port:Topo.edge_port bytes in
  check_int "three hops" 3 (List.length tr.Fabric.t_hops);
  (match tr.Fabric.t_disposition with
  | Fabric.Delivered { d_switch; d_port; d_bytes } ->
      check_int "exits at sw2" 2 d_switch;
      check_int "exits at the edge port" Topo.edge_port d_port;
      check_int "TTL decremented per hop" 61 (ttl_of d_bytes)
  | d -> Alcotest.failf "expected delivery, got %a" Fabric.pp_disposition d);
  (* TTL = hops: must die punted at the last switch, never escape. *)
  let bytes = Packet.to_bytes (flow_packet ~entry:0 ~src:0 ~dst:2 ~ttl:3 ()) in
  let tr = Fabric.forward topo nodes ~switch:0 ~port:Topo.edge_port bytes in
  match tr.Fabric.t_disposition with
  | Fabric.Dropped { d_switch; d_punted } ->
      check_int "dies at sw2" 2 d_switch;
      check_bool "punted" true d_punted
  | d -> Alcotest.failf "expected punt+drop, got %a" Fabric.pp_disposition d

let test_forward_loop_cut () =
  (* Two hand-built nodes that bounce the packet between each other
     forever: the budget must cut it and name the disposition a loop. *)
  let topo = Topo.build Topo.Line 2 in
  let bounce id =
    { Fabric.n_id = id;
      n_crashed = (fun () -> false);
      n_inject =
        (fun ~ingress_port:_ bytes ->
          { Interp.b_egress = Some 1; b_punted = false; b_mirrors = [];
            b_packet = bytes; b_trace = [] }) }
  in
  let nodes = [| bounce 0; bounce 1 |] in
  let tr = Fabric.forward ~budget:7 topo nodes ~switch:0 ~port:Topo.edge_port "x" in
  check_int "budget bounds the hops" 7 (List.length tr.Fabric.t_hops);
  match tr.Fabric.t_disposition with
  | Fabric.Budget_exhausted _ -> ()
  | d -> Alcotest.failf "expected budget exhaustion, got %a" Fabric.pp_disposition d

(* --- crashed-switch propagation (regression) ------------------------------- *)

let crash_fault =
  Fault.make ~id:"T-CRASH" ~component:Fault.P4runtime_server
    (Fault.Crash_on_delete_sequence 1) "crashes on the first delete"

let test_crashed_stack_drops () =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  let topo = Topo.build Topo.Line 3 in
  let stacks =
    Array.init 3 (fun s ->
        programmed_stack ~faults:(if s = 1 then [ crash_fault ] else []) topo s)
  in
  (* Crash sw1 with a delete batch. *)
  let victim = List.hd (Routes.entries topo program ~switch:1) in
  ignore
    (Stack.write stacks.(1) { Request.updates = [ Request.delete victim ] });
  check_bool "sw1 crashed" true (Stack.crashed stacks.(1));
  (* Regression: inject/packet_out on a crashed stack must silently drop,
     not raise — a dead switch is link-dead. *)
  let bytes = Packet.to_bytes (flow_packet ~entry:1 ~src:1 ~dst:1 ~ttl:64 ()) in
  let b = Stack.inject stacks.(1) ~ingress_port:Topo.edge_port bytes in
  check_bool "inject drops" true (b.Interp.b_egress = None && not b.Interp.b_punted);
  let po =
    { Request.po_payload = flow_packet ~entry:1 ~src:1 ~dst:1 ~ttl:64 ();
      po_egress_port = None }
  in
  let b = Stack.packet_out stacks.(1) po in
  check_bool "packet-out drops" true (b.Interp.b_egress = None);
  (* Fabric forwarding reads the crash as a dead hop mid-path. *)
  let nodes = Array.mapi (fun i st -> Fabric.stack_node i st) stacks in
  let bytes = Packet.to_bytes (flow_packet ~entry:0 ~src:0 ~dst:2 ~ttl:64 ()) in
  let tr = Fabric.forward topo nodes ~switch:0 ~port:Topo.edge_port bytes in
  match tr.Fabric.t_disposition with
  | Fabric.Dead_hop 1 -> check_int "one live hop" 1 (List.length tr.Fabric.t_hops)
  | d -> Alcotest.failf "expected dead hop at sw1, got %a" Fabric.pp_disposition d

let test_campaign_dead_switch () =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  (* Crash_on_delete_sequence 0 wedges the switch on its very first write
     batch, so sw1 is dead for the whole campaign: its setup rejections
     and every flow crossing it must attribute to sw1. *)
  let crash0 =
    Fault.make ~id:"T-CRASH0" ~component:Fault.P4runtime_server
      (Fault.Crash_on_delete_sequence 0) "crashes on the first write"
  in
  let cfg =
    { (Fabric_campaign.default_config Topo.Line 3) with
      Fabric_campaign.faults = [ (1, [ crash0 ]) ];
      max_incidents = 100 }
  in
  let incidents, stats = Fabric_campaign.run program cfg in
  check_bool "incidents reported" true (incidents <> []);
  check_bool "dead-switch incidents present" true
    (List.exists
       (fun (i : Report.incident) -> String.equal i.kind "fabric dead switch")
       incidents);
  check_bool "every hop attribution names sw1" true
    (List.for_all
       (fun (i : Report.incident) ->
         match i.context with
         | Some { ctx_hop = Some h; _ } -> String.equal h "sw1"
         | _ -> true)
       incidents);
  check_bool "dropped flows counted" true (stats.Report.fs_dropped > 0)

(* --- fault-localization matrix --------------------------------------------- *)

(* Seed sw1 of a 3-switch line with one fault of each data-plane kind and
   assert hop-differential triage blames sw1 — never an innocent
   downstream switch that merely forwarded the perturbed packet.
   [Encap_reversed_dst] is excluded: middleblock has no tunnel tables, so
   the kind cannot fire on this model. *)
let matrix_kinds =
  [ ("ttl-trap-always", Fault.Ttl_trap_always);
    ("ttl-trap-threshold", Fault.Ttl_trap_threshold 63);
    ("drop-dst-ip", Fault.Drop_dst_ip (Packet.ipv4_of_string (Routes.host_ip 2)));
    ("punt-ether-type", Fault.Punt_ether_type 0x88CC);
    ("dscp-remark", Fault.Dscp_remark_zero 8);
    ("drop-on-port", Fault.Drop_on_port 1);
    ("mirror-ignored", Fault.Mirror_ignored);
    ("punt-lost", Fault.Punt_lost);
    ("wrong-port", Fault.Forward_wrong_port_for_port 2);
    ("submit-dropped", Fault.Submit_to_ingress_dropped);
    ("po-punted-back", Fault.Packet_out_punted_back) ]

let test_localization_matrix () =
  List.iter
    (fun (name, kind) ->
      Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
      let fault =
        Fault.make ~id:("T-" ^ name) ~component:Fault.Hardware kind name
      in
      let cfg =
        { (Fabric_campaign.default_config Topo.Line 3) with
          Fabric_campaign.faults = [ (1, [ fault ]) ];
          max_incidents = 100 }
      in
      let incidents, _ = Fabric_campaign.run program cfg in
      if incidents = [] then Alcotest.failf "%s: no incidents" name;
      let hops =
        List.filter_map
          (fun (i : Report.incident) ->
            match i.context with
            | Some { ctx_hop = Some h; _ } -> Some h
            | _ -> None)
          incidents
      in
      if hops = [] then Alcotest.failf "%s: no hop-attributed incident" name;
      List.iter
        (fun h ->
          if not (String.equal h "sw1") then
            Alcotest.failf "%s: localized to %s, expected sw1" name h)
        hops;
      (* The hop survives into the fingerprint (digits un-normalized). *)
      let fingered =
        List.exists (fun i -> contains (Report.fingerprint i) "h=sw1") incidents
      in
      check_bool (name ^ ": fingerprint carries h=sw1") true fingered)
    matrix_kinds

(* --- packet-out as a fabric injection vector ------------------------------- *)

let test_packet_out_vector () =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  let topo, stacks, nodes = line3_fabric () in
  (* Submit-to-ingress at sw0, destined to host 2: the packet-out enters
     sw0's pipeline and then rides the fabric like any ingress packet. *)
  let payload = flow_packet ~entry:0 ~src:0 ~dst:2 ~ttl:64 () in
  let po = { Request.po_payload = payload; po_egress_port = None } in
  let b = Stack.packet_out stacks.(0) po in
  let tr =
    Fabric.forward_from topo nodes ~switch:0 ~ingress_port:0
      ~bytes:(Packet.to_bytes payload) b
  in
  check_int "submit traverses three switches" 3 (List.length tr.Fabric.t_hops);
  (match tr.Fabric.t_disposition with
  | Fabric.Delivered { d_switch = 2; d_port; d_bytes } ->
      check_int "delivered at sw2's edge" Topo.edge_port d_port;
      check_int "TTL decremented at every hop" 61 (ttl_of d_bytes)
  | d -> Alcotest.failf "expected delivery at sw2, got %a" Fabric.pp_disposition d);
  (* Directed packet-out across sw0's fabric link: skips sw0's pipeline,
     hops into sw1 and routes from there. *)
  let payload = flow_packet ~entry:1 ~src:0 ~dst:1 ~ttl:64 () in
  let po = { Request.po_payload = payload; po_egress_port = Some 1 } in
  let b = Stack.packet_out stacks.(0) po in
  check_bool "egressed on the requested port" true (b.Interp.b_egress = Some 1);
  let tr =
    Fabric.forward_from topo nodes ~switch:0 ~ingress_port:0
      ~bytes:(Packet.to_bytes payload) b
  in
  match tr.Fabric.t_disposition with
  | Fabric.Delivered { d_switch = 1; d_port; _ } ->
      check_int "delivered at sw1's edge" Topo.edge_port d_port
  | d -> Alcotest.failf "expected delivery at sw1, got %a" Fabric.pp_disposition d

let test_campaign_po_faults () =
  List.iter
    (fun (name, kind) ->
      Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
      let fault =
        Fault.make ~id:("T-" ^ name) ~component:Fault.Syncd kind name
      in
      let cfg =
        { (Fabric_campaign.default_config Topo.Line 3) with
          Fabric_campaign.faults = [ (1, [ fault ]) ];
          max_incidents = 100 }
      in
      let incidents, _ = Fabric_campaign.run program cfg in
      check_bool (name ^ ": caught via packet-out flows") true
        (List.exists
           (fun (i : Report.incident) ->
             match i.context with
             | Some { ctx_goal = Some g; ctx_hop = Some "sw1"; _ } ->
                 String.length g >= 9 && String.sub g 0 9 = "fabric:po"
             | _ -> false)
           incidents);
      (* Without packet-out flows the same fault goes unseen. *)
      let cfg = { cfg with Fabric_campaign.packet_out = false } in
      let incidents, _ = Fabric_campaign.run program cfg in
      check_bool (name ^ ": invisible without packet-out") true (incidents = []))
    [ ("submit-dropped", Fault.Submit_to_ingress_dropped);
      ("po-punted-back", Fault.Packet_out_punted_back) ]

(* --- clean fabrics and determinism ----------------------------------------- *)

let test_clean_shapes () =
  List.iter
    (fun shape ->
      Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
      let cfg = Fabric_campaign.default_config shape 4 in
      let incidents, stats = Fabric_campaign.run program cfg in
      check_int
        (Topo.shape_to_string shape ^ ": unseeded fabric is clean")
        0 (List.length incidents);
      check_bool "flows ran" true (stats.Report.fs_flows > 0);
      check_bool "deliveries happened" true (stats.Report.fs_delivered > 0);
      check_bool "hops accumulated" true
        (stats.Report.fs_hops >= stats.Report.fs_delivered);
      check_int "per-switch coverage rows" 4
        (List.length stats.Report.fs_switch_coverage))
    Topo.all_shapes

let fingerprints incidents = List.map Report.fingerprint incidents

let run_seeded ~shards ~jobs () =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  let fault =
    Fault.make ~id:"T-DET" ~component:Fault.Hardware
      (Fault.Ttl_trap_threshold 63) "determinism probe"
  in
  let cfg =
    { (Fabric_campaign.default_config Topo.Line 3) with
      Fabric_campaign.faults = [ (1, [ fault ]) ];
      shards;
      max_incidents = 100 }
  in
  Fabric_campaign.run ~jobs program cfg

let test_determinism () =
  let i1, s1 = run_seeded ~shards:3 ~jobs:1 () in
  let i2, s2 = run_seeded ~shards:3 ~jobs:1 () in
  Alcotest.(check (list string))
    "repeat runs identical" (fingerprints i1) (fingerprints i2);
  let i4, s4 = run_seeded ~shards:3 ~jobs:2 () in
  Alcotest.(check (list string))
    "jobs=2 identical to jobs=1" (fingerprints i1) (fingerprints i4);
  check_int "flows agree" s1.Report.fs_flows s4.Report.fs_flows;
  check_int "localization agrees" s1.Report.fs_localized s4.Report.fs_localized;
  check_int "hops agree" s2.Report.fs_hops s4.Report.fs_hops

(* --- observability ---------------------------------------------------------- *)

let test_docs_and_per_switch_coverage () =
  let tele = Telemetry.create () in
  Telemetry.with_registry tele (fun () ->
      let cfg = Fabric_campaign.default_config Topo.Line 3 in
      ignore (Fabric_campaign.run program cfg));
  Alcotest.(check (list string))
    "every fabric counter documented" []
    (Docs.undocumented (Telemetry.snapshot tele));
  (* The per-switch re-emission feeds a per-switch coverage map. *)
  let c0 = Coverage.of_registry ~prefix:"topo.sw.0." tele program in
  check_bool "sw0 coverage nonzero" true (c0.Coverage.covered > 0);
  check_bool "sw0 coverage partial" true (c0.Coverage.covered < c0.Coverage.total);
  let c9 = Coverage.of_registry ~prefix:"topo.sw.9." tele program in
  check_int "absent switch covers nothing" 0 c9.Coverage.covered;
  (* Same canonical edge space as the global map. *)
  let g = Coverage.of_registry tele program in
  check_int "edge space matches" g.Coverage.total c0.Coverage.total

(* --- end-to-end assertions -------------------------------------------------- *)

let behavior ?egress ?(punted = false) bytes =
  { Interp.b_egress = egress; b_punted = punted; b_mirrors = [];
    b_packet = bytes; b_trace = [] }

let delivered_trace ~switch ~port ~bytes =
  { Fabric.t_hops =
      [ { Fabric.h_switch = switch; h_ingress = 1; h_bytes_in = bytes;
          h_behavior = behavior ~egress:port bytes } ];
    t_disposition = Fabric.Delivered { d_switch = switch; d_port = port; d_bytes = bytes } }

let dropped_trace ~switch =
  { Fabric.t_hops = [];
    t_disposition = Fabric.Dropped { d_switch = switch; d_punted = true } }

let test_endtoend_check () =
  let eq = String.equal in
  let good = delivered_trace ~switch:2 ~port:100 ~bytes:"abc" in
  let exp = Endtoend.of_trace good in
  check_bool "deliver-at matches" true (Endtoend.check ~bytes_equal:eq exp good = Ok ());
  check_bool "wrong port" true
    (Result.is_error
       (Endtoend.check ~bytes_equal:eq exp (delivered_trace ~switch:2 ~port:3 ~bytes:"abc")));
  check_bool "wrong switch" true
    (Result.is_error
       (Endtoend.check ~bytes_equal:eq exp (delivered_trace ~switch:1 ~port:100 ~bytes:"abc")));
  check_bool "wrong bytes" true
    (Result.is_error
       (Endtoend.check ~bytes_equal:eq exp (delivered_trace ~switch:2 ~port:100 ~bytes:"abd")));
  (* Pluggable comparison admits masked differences. *)
  check_bool "masked bytes admitted" true
    (Endtoend.check ~bytes_equal:(fun _ _ -> true) exp
       (delivered_trace ~switch:2 ~port:100 ~bytes:"abd")
    = Ok ());
  check_bool "unexpected delivery" true
    (Result.is_error
       (Endtoend.check ~bytes_equal:eq Endtoend.Deliver_nowhere good));
  check_bool "expected absence" true
    (Endtoend.check ~bytes_equal:eq Endtoend.Deliver_nowhere (dropped_trace ~switch:0)
    = Ok ());
  check_bool "missing delivery" true
    (Result.is_error (Endtoend.check ~bytes_equal:eq exp (dropped_trace ~switch:2)))

(* --- report plumbing -------------------------------------------------------- *)

let test_hop_in_report () =
  let i =
    Report.incident
      ~context:(Report.context ~goal:"fabric:std:0->2" ~hop:"sw1" ())
      ~repro:(Repro.Data { dr_entries = []; dr_port = 1; dr_bytes = "xy" })
      Report.Fabric ~kind:"fabric behavior divergence" ~detail:"d"
  in
  let fp = Report.fingerprint i in
  check_bool "fingerprint keeps the hop digit" true (contains fp "h=sw1");
  check_bool "goal digits normalized" true (contains fp "g=fabric:std:#->#");
  (* IPC roundtrip preserves the hop. *)
  (match Jsonp.parse (Report.incident_ipc_to_json i) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Report.incident_of_ipc_json j with
      | Error e -> Alcotest.fail e
      | Ok i' ->
          check_string "fingerprint survives IPC" fp (Report.fingerprint i');
          check_bool "hop survives IPC" true
            (match i'.context with
            | Some { ctx_hop = Some "sw1"; _ } -> true
            | _ -> false)));
  check_bool "fabric detector roundtrip" true
    (Report.detector_of_string (Report.detector_to_string Report.Fabric)
    = Some Report.Fabric)

let test_fabric_stats_json () =
  let stats =
    { Report.fs_shape = "line"; fs_switches = 3; fs_links = 2; fs_flows = 48;
      fs_delivered = 33; fs_dropped = 15; fs_hops = 87; fs_localized = 0;
      fs_duration = 0.5; fs_switch_coverage = [ (0, 26, 54); (1, 26, 54) ] }
  in
  (match Telemetry.Json.check (Report.fabric_stats_to_json stats) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* A report carrying only fabric results renders and serializes. *)
  let report =
    { (Report.empty "m") with
      Report.fabric_incidents =
        [ Report.incident Report.Fabric ~kind:"k" ~detail:"d" ];
      fabric_stats = Some stats }
  in
  check_bool "fabric incidents count" true (not (Report.clean report));
  check_bool "detected by fabric" true
    (Report.detected_by report = Some Report.Fabric);
  match Telemetry.Json.check (Report.to_json report) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "topo"
    [ ( "topology",
        [ Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "shape strings" `Quick test_shape_strings;
          Alcotest.test_case "link table" `Quick test_link_table;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "build validation" `Quick test_build_validation ] );
      ( "forwarding",
        [ Alcotest.test_case "line delivery + TTL" `Quick test_forward_line;
          Alcotest.test_case "loop cut by budget" `Quick test_forward_loop_cut;
          Alcotest.test_case "packet-out vector" `Quick test_packet_out_vector ] );
      ( "crashed",
        [ Alcotest.test_case "crashed stack drops" `Quick test_crashed_stack_drops;
          Alcotest.test_case "campaign dead switch" `Quick test_campaign_dead_switch ] );
      ( "localization",
        [ Alcotest.test_case "fault matrix blames sw1" `Slow test_localization_matrix;
          Alcotest.test_case "packet-out faults" `Quick test_campaign_po_faults ] );
      ( "campaign",
        [ Alcotest.test_case "clean on every shape" `Slow test_clean_shapes;
          Alcotest.test_case "deterministic across shards/jobs" `Slow test_determinism ] );
      ( "observability",
        [ Alcotest.test_case "docs + per-switch coverage" `Quick
            test_docs_and_per_switch_coverage ] );
      ( "endtoend",
        [ Alcotest.test_case "expectation checks" `Quick test_endtoend_check ] );
      ( "report",
        [ Alcotest.test_case "hop context + fingerprint" `Quick test_hop_in_report;
          Alcotest.test_case "fabric stats json" `Quick test_fabric_stats_json ] ) ]
