(* Tests for the simulated switch stack: correct-by-construction behaviour
   when unseeded, layered state (server vs ASIC), and the observable effect
   of each fault family. Also sanity-checks the bug catalogues against the
   paper's Table 1 population. *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Packet = Switchv_packet.Packet
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module State = Switchv_p4runtime.State
module Status = Switchv_p4runtime.Status
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Middleblock = Switchv_sai.Middleblock
module Cerberus = Switchv_sai.Cerberus
module Workload = Switchv_sai.Workload
module Telemetry = Switchv_telemetry.Telemetry
module Harness = Switchv_core.Harness
module Control_campaign = Switchv_core.Control_campaign

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let bv16 = Bitvec.of_int ~width:16
let fm field value = { Entry.fm_field = field; fm_value = value }
let single name args = Entry.Single { ai_name = name; ai_args = args }

let vrf n =
  Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 n)) ]
    (single "no_action" [])

let fault kind = Fault.make ~id:"T" ~component:Fault.P4runtime_server kind "test fault"

let ready ?faults () =
  let s = Stack.create ?faults Middleblock.program in
  ignore (Stack.push_p4info s);
  s

let write1 s e = Stack.write s { Request.updates = [ Request.insert e ] }

let first_status (r : Request.write_response) = List.hd r.statuses

(* --- clean behaviour ----------------------------------------------------------- *)

let test_requires_p4info () =
  let s = Stack.create Middleblock.program in
  let r = write1 s (vrf 1) in
  check_bool "writes refused before Set P4Info" true
    ((first_status r).code = Status.Failed_precondition);
  ignore (Stack.push_p4info s);
  check_bool "accepted after" true (Request.write_ok (write1 s (vrf 1)))

let test_clean_validation () =
  let s = ready () in
  check_bool "valid accepted" true (Request.write_ok (write1 s (vrf 1)));
  check_bool "constraint violation rejected" false (Request.write_ok (write1 s (vrf 0)));
  check_bool "duplicate rejected" true
    ((first_status (write1 s (vrf 1))).code = Status.Already_exists);
  let r = Stack.write s { Request.updates = [ Request.delete (vrf 2) ] } in
  check_bool "missing delete NOT_FOUND" true ((first_status r).code = Status.Not_found)

let test_server_asic_in_sync () =
  let s = ready () in
  ignore (write1 s (vrf 1));
  check_bool "states equal when clean" true
    (State.equal (Stack.server_state s) (Stack.asic_state s))

let test_referenced_delete_refused () =
  let s = ready () in
  ignore (write1 s (vrf 1));
  let route =
    Entry.make ~table:"ipv4_table"
      ~matches:
        [ fm "vrf_id" (Entry.M_exact (bv16 1));
          fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.0.0.0/8")) ]
      (single "drop" [])
  in
  ignore (write1 s route);
  let r = Stack.write s { Request.updates = [ Request.delete (vrf 1) ] } in
  check_bool "referenced vrf delete refused" true
    ((first_status r).code = Status.Failed_precondition);
  ignore (Stack.write s { Request.updates = [ Request.delete route ] });
  let r2 = Stack.write s { Request.updates = [ Request.delete (vrf 1) ] } in
  check_bool "deletable once unreferenced" true (Request.write_ok r2)

(* --- fault observability -------------------------------------------------------- *)

let test_p4info_fault () =
  let s = Stack.create ~faults:[ fault Fault.P4info_push_fails ] Middleblock.program in
  check_bool "push fails" false (Status.is_ok (Stack.push_p4info s))

let test_reject_valid_fault () =
  let s = ready ~faults:[ fault (Fault.Reject_valid_insert "vrf_table") ] () in
  check_bool "valid vrf rejected" false (Request.write_ok (write1 s (vrf 1)))

let test_accept_constraint_fault () =
  let s = ready ~faults:[ fault (Fault.Accept_constraint_violation "vrf_table") ] () in
  check_bool "vrf 0 accepted" true (Request.write_ok (write1 s (vrf 0)))

let test_read_drops_fault () =
  let s = ready ~faults:[ fault (Fault.Read_drops_table "vrf_table") ] () in
  ignore (write1 s (vrf 1));
  check_int "read hides the table" 0 (List.length (Stack.read s).entries)

let test_delete_leaves_fault () =
  let s = ready ~faults:[ fault (Fault.Delete_leaves_entry "vrf_table") ] () in
  ignore (write1 s (vrf 1));
  let r = Stack.write s { Request.updates = [ Request.delete (vrf 1) ] } in
  check_bool "delete reports OK" true (Request.write_ok r);
  check_int "but the entry remains" 1 (List.length (Stack.read s).entries)

let test_crash_fault () =
  let s = ready ~faults:[ fault (Fault.Crash_on_delete_sequence 2) ] () in
  ignore (write1 s (vrf 1));
  ignore (write1 s (vrf 2));
  let r =
    Stack.write s { Request.updates = [ Request.delete (vrf 1); Request.delete (vrf 2) ] }
  in
  check_bool "batch unavailable" true
    (List.for_all (fun (st : Status.t) -> st.code = Status.Unavailable) r.statuses);
  check_bool "switch crashed" true (Stack.crashed s);
  check_bool "subsequent writes fail" false (Request.write_ok (write1 s (vrf 3)))

let test_syncd_drops_fault () =
  let s = ready ~faults:[ fault (Fault.Syncd_drops_table "vrf_table") ] () in
  ignore (write1 s (vrf 1));
  check_int "server has it" 1 (State.total (Stack.server_state s));
  check_int "asic does not" 0 (State.total (Stack.asic_state s))

let test_batch_fails_fault () =
  let s = ready ~faults:[ fault Fault.Delete_nonexistent_fails_batch ] () in
  let r =
    Stack.write s
      { Request.updates = [ Request.insert (vrf 1); Request.delete (vrf 9) ] }
  in
  check_bool "entire batch failed" true
    (List.for_all (fun (st : Status.t) -> not (Status.is_ok st)) r.statuses);
  check_int "nothing installed" 0 (State.total (Stack.server_state s))

let test_drop_dst_fault () =
  (* The data-plane perturbation drops the target's /24. *)
  let ip = Packet.ipv4_of_string "10.7.7.0" in
  let s = ready ~faults:[ fault (Fault.Drop_dst_ip ip) ] () in
  let mk dst = Packet.to_bytes (Packet.simple_ipv4 ~src:"192.0.2.1" ~dst ()) in
  let b = Stack.inject s ~ingress_port:1 (mk "10.7.7.42") in
  check_bool "in-prefix packet dropped" true (b.b_egress = None);
  ignore (Stack.inject s ~ingress_port:1 (mk "10.7.8.42"))

let test_punt_ether_fault () =
  let s = ready ~faults:[ fault (Fault.Punt_ether_type 0x0800) ] () in
  let b =
    Stack.inject s ~ingress_port:1
      (Packet.to_bytes (Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"10.0.0.1" ()))
  in
  check_bool "spurious punt" true b.b_punted

let test_encap_reversed_fault () =
  let f = Fault.make ~id:"T" ~component:Fault.Vendor_software Fault.Encap_reversed_dst "x" in
  let s = Stack.create ~faults:[ f ] Cerberus.program in
  ignore (Stack.push_p4info s);
  (* Install the full chain so encap happens, then check the dst bytes. *)
  let entries = Workload.generate ~seed:3 Cerberus.program Workload.small in
  List.iter (fun e -> ignore (write1 s e)) entries;
  let clean = Stack.create Cerberus.program in
  ignore (Stack.push_p4info clean);
  List.iter (fun e -> ignore (write1 clean e)) entries;
  (* Find a tunnel route and send a packet into it. *)
  let tunnel_dst =
    List.find_map
      (fun (e : Entry.t) ->
        match (e.e_table, e.e_action) with
        | "ipv4_table", Entry.Single { ai_name = "set_tunnel_id"; _ } -> (
            match Entry.find_match e "ipv4_dst" with
            | Some (Entry.M_lpm p) -> Some (Prefix.value p)
            | _ -> None)
        | _ -> None)
      entries
  in
  match tunnel_dst with
  | None -> Alcotest.fail "workload has no tunnel route"
  | Some dst ->
      let pkt =
        Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"10.0.0.1" ()
        |> fun p ->
        Packet.set p ~header:"ipv4" ~field:"dst_addr" dst
        |> fun p ->
        Packet.set p ~header:"ethernet" ~field:"dst_addr"
          (Packet.mac_of_string "02:00:00:00:00:00")
      in
      let bytes = Packet.to_bytes pkt in
      let buggy = Stack.inject s ~ingress_port:1 bytes in
      let good = Stack.inject clean ~ingress_port:1 bytes in
      (match (buggy.b_egress, good.b_egress) with
      | Some _, Some _ ->
          check_bool "encap output differs (reversed dst)" false
            (String.equal buggy.b_packet good.b_packet)
      | _ -> Alcotest.fail "tunnel packet not forwarded")

(* --- catalogue sanity ------------------------------------------------------------- *)

let pins_catalogue () =
  let entries = Workload.generate ~seed:1 Middleblock.program Workload.small in
  Catalogue.pins Middleblock.program entries

let cerb_catalogue () =
  let entries = Workload.generate ~seed:1 Cerberus.program Workload.small in
  Catalogue.cerberus Cerberus.program entries

let test_catalogue_sizes () =
  check_int "122 PINS faults (Table 1)" 122 (List.length (pins_catalogue ()));
  check_int "32 Cerberus faults (Table 1)" 32 (List.length (cerb_catalogue ()))

let test_catalogue_detector_split () =
  let pins = pins_catalogue () in
  let fuzzer =
    List.length (List.filter (fun f -> Catalogue.expected_detector f = `Fuzzer) pins)
  in
  check_int "37 fuzzer-territory (Table 1)" 37 fuzzer;
  check_int "85 symbolic-territory (Table 1)" 85 (List.length pins - fuzzer);
  let cerb = cerb_catalogue () in
  let cf =
    List.length (List.filter (fun f -> Catalogue.expected_detector f = `Fuzzer) cerb)
  in
  check_int "18 Cerberus fuzzer-territory" 18 cf

let test_catalogue_components () =
  let count component =
    List.length
      (List.filter (fun (f : Fault.t) -> f.component = component) (pins_catalogue ()))
  in
  check_int "P4RT 47" 47 (count Fault.P4runtime_server);
  check_int "gNMI 2" 2 (count Fault.Gnmi);
  check_int "OA 23" 23 (count Fault.Orchestration_agent);
  check_int "SyncD 23" 23 (count Fault.Syncd);
  check_int "Linux 9" 9 (count Fault.Switch_linux);
  check_int "HW 1" 1 (count Fault.Hardware);
  check_int "toolchain 2" 2 (count Fault.P4_toolchain);
  check_int "P4 program 15" 15 (count Fault.Input_p4_program)

let test_catalogue_resolution_distribution () =
  let pins = pins_catalogue () in
  let unresolved =
    List.length (List.filter (fun (f : Fault.t) -> f.days_to_resolution = None) pins)
  in
  check_int "9 unresolved (Figure 7)" 9 unresolved;
  let resolved = List.filter_map (fun (f : Fault.t) -> f.days_to_resolution) pins in
  let within n = List.length (List.filter (fun d -> d <= n) resolved) in
  check_bool "majority within 14 days" true (2 * within 14 > List.length pins);
  check_bool "roughly a third within 5 days" true
    (let pct = 100 * within 5 / List.length pins in
     pct >= 25 && pct <= 45)

(* On the Table 1 instance (inst1 at 0.25, entry seed 42, control seed 99,
   4 batches), every fault a campaign detects must also have bumped its
   [fault.<id>] counter: a detection the counter misses means the stack
   perturbed behaviour without recording that the fault fired. *)
let test_detected_faults_fire () =
  let program = Middleblock.program in
  let entries =
    Workload.generate ~seed:42 program (Workload.scaled 0.25 Workload.inst1)
  in
  let config =
    { (Harness.default_config entries) with
      control = { Control_campaign.default_config with batches = 4; seed = 99 };
      cache = Some (Switchv_symbolic.Cache.in_memory ()) }
  in
  let silent =
    List.filter_map
      (fun (f : Fault.t) ->
        let reg = Telemetry.create () in
        let found =
          Telemetry.with_registry reg (fun () ->
              Harness.detect (fun () -> Stack.create ~faults:[ f ] program) config)
        in
        if found <> None && Telemetry.counter reg ("fault." ^ f.id) = 0 then
          Some f.id
        else None)
      (Catalogue.pins program entries)
  in
  Alcotest.(check (list string)) "detected but never fired" [] silent

let test_catalogue_ids_unique () =
  let ids = List.map (fun (f : Fault.t) -> f.id) (pins_catalogue () @ cerb_catalogue ()) in
  check_int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let () =
  Alcotest.run "switch"
    [ ("clean stack",
       [ Alcotest.test_case "requires p4info" `Quick test_requires_p4info;
         Alcotest.test_case "validation" `Quick test_clean_validation;
         Alcotest.test_case "server/asic sync" `Quick test_server_asic_in_sync;
         Alcotest.test_case "referenced delete refused" `Quick test_referenced_delete_refused ]);
      ("faults",
       [ Alcotest.test_case "p4info push" `Quick test_p4info_fault;
         Alcotest.test_case "reject valid" `Quick test_reject_valid_fault;
         Alcotest.test_case "accept constraint violation" `Quick test_accept_constraint_fault;
         Alcotest.test_case "read drops table" `Quick test_read_drops_fault;
         Alcotest.test_case "delete leaves entry" `Quick test_delete_leaves_fault;
         Alcotest.test_case "crash" `Quick test_crash_fault;
         Alcotest.test_case "syncd drops" `Quick test_syncd_drops_fault;
         Alcotest.test_case "batch fails" `Quick test_batch_fails_fault;
         Alcotest.test_case "drop dst" `Quick test_drop_dst_fault;
         Alcotest.test_case "spurious punt" `Quick test_punt_ether_fault;
         Alcotest.test_case "encap endianness" `Quick test_encap_reversed_fault ]);
      ("catalogue",
       [ Alcotest.test_case "sizes" `Quick test_catalogue_sizes;
         Alcotest.test_case "detector split" `Quick test_catalogue_detector_split;
         Alcotest.test_case "components" `Quick test_catalogue_components;
         Alcotest.test_case "resolution distribution" `Quick
           test_catalogue_resolution_distribution;
         Alcotest.test_case "unique ids" `Quick test_catalogue_ids_unique;
         Alcotest.test_case "detected faults fire" `Slow test_detected_faults_fire ]) ]
