module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module Interp = Switchv_bmv2.Interp
module Packet = Switchv_packet.Packet
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Dataplane = Switchv_oracle.Dataplane
module Endtoend = Switchv_oracle.Endtoend
module Topo = Switchv_topo.Topo
module Fabric = Switchv_topo.Fabric
module Routes = Switchv_topo.Routes
module Coverage = Switchv_obs.Coverage

let sp = Printf.sprintf

type config = {
  shape : Topo.shape;
  switches : int;
  spines : int option;
  seed : int;
  budget : int option;
  max_incidents : int;
  shards : int;
  packet_out : bool;
  faults : (int * Fault.t list) list;
  minimize : bool;
}

let default_config shape switches =
  { shape; switches; spines = None; seed = 0; budget = None;
    max_incidents = 25; shards = 1; packet_out = true; faults = [];
    minimize = false }

(* --- the flow suite --------------------------------------------------------

   A fixed, enumerable set of end-to-end flows, a pure function of
   (topology, config). Per reachable ordered pair (i, j) over the h-switch
   shortest path: "std" (TTL 64), "ttlmin" (TTL h+1 — delivers with TTL 1;
   one less would die en route), "ttlexp" (TTL h — must punt+drop at the
   last hop, never escape), and "dscp" (TTL 64, DSCP 46 — exercises the
   per-hop mirror sessions). Per switch: an unadmitted TTL-1 probe (host
   MAC, so L3-admit misses and the model must drop it *unpunted* — a
   TTL-trap chip bug punts it) and an LLDP frame (no trap entries are
   installed, so a spurious-punt bug diverges). Per switch, when enabled:
   a submit-to-ingress packet-out and a directed packet-out across the
   first fabric link. *)

type inject =
  | Edge of { in_switch : int; in_bytes : string }
  | Po of { in_switch : int; in_po : Request.packet_out }

type flow = { fl_id : string; fl_inject : inject }

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

let flows topo cfg =
  let n = Topo.switches topo in
  let acc = ref [] in
  let add id inj = acc := { fl_id = id; fl_inject = inj } :: !acc in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match Topo.path topo ~src:i ~dst:j with
      | None -> ()
      | Some p ->
          let h = List.length p in
          let edge ?dscp name ttl =
            add
              (sp "fabric:%s:%d->%d" name i j)
              (Edge
                 { in_switch = i;
                   in_bytes =
                     Packet.to_bytes
                       (flow_packet ?dscp ~entry:i ~src:i ~dst:j ~ttl ()) })
          in
          edge "std" 64;
          edge "ttlmin" (h + 1);
          edge "ttlexp" h;
          edge ~dscp:Routes.mirror_dscp "dscp" 64
    done
  done;
  for k = 0 to n - 1 do
    let unadmitted =
      let p = flow_packet ~entry:k ~src:k ~dst:((k + 1) mod n) ~ttl:1 () in
      Packet.set p ~header:"ethernet" ~field:"dst_addr" (Routes.host_mac k)
    in
    add (sp "fabric:unadmitted:sw%d" k)
      (Edge { in_switch = k; in_bytes = Packet.to_bytes unadmitted });
    let lldp =
      let p =
        Packet.push Packet.empty
          (Packet.ethernet_frame ~src:(Routes.host_mac_string k)
             ~ether_type:0x88CC ())
      in
      { p with Packet.payload = "switchv-lldp" }
    in
    add (sp "fabric:lldp:sw%d" k)
      (Edge { in_switch = k; in_bytes = Packet.to_bytes lldp })
  done;
  if cfg.packet_out then
    for k = 0 to n - 1 do
      let payload = flow_packet ~entry:k ~src:k ~dst:((k + 1) mod n) ~ttl:64 () in
      add (sp "fabric:po:submit:sw%d" k)
        (Po
           { in_switch = k;
             in_po = { Request.po_payload = payload; po_egress_port = None } });
      match Topo.neighbors topo k with
      | [] -> ()
      | nb :: _ ->
          let port =
            match Topo.link_port topo ~src:k ~dst:nb with
            | Some p -> p
            | None -> assert false
          in
          let payload = flow_packet ~entry:nb ~src:k ~dst:nb ~ttl:64 () in
          add (sp "fabric:po:port:sw%d" k)
            (Po
               { in_switch = k;
                 in_po =
                   { Request.po_payload = payload; po_egress_port = Some port } })
    done;
  List.rev !acc

(* --- setup -----------------------------------------------------------------

   Every switch is programmed like the data campaign's stack
   ([Data_campaign.install]); rejections become incidents carrying the
   switch as their hop — there is no single-switch replay path for a
   fabric setup failure, so no reproducer. *)

type env = {
  e_topo : Topo.t;
  e_cfg : config;
  e_stacks : Stack.t array;
  e_stack_nodes : Fabric.node array;
  e_model_nodes : Fabric.node array;
  e_oracles : Dataplane.t array;
  e_entries_for : Entry.t list array;
  e_budget : int;
  e_mk_stack : int -> unit -> Stack.t;
}

(* One flow, both fabrics, both checks, counted into the slice's
   [tally]. The sink enforces the incident budget; at most one incident
   per flow (a localized hop divergence preempts the end-to-end verdict —
   it is the same mismatch, better attributed). *)
type tally = {
  mutable delivered : int;
  mutable dropped : int;
  mutable hops : int;
  mutable localized : int;
}

let test_flow env ~tele sink tally fl =
  Telemetry.incr tele "topo.flows";
  let budget = env.e_budget in
  let model_trace, switch_trace, po_verdict =
    match fl.fl_inject with
    | Edge { in_switch; in_bytes } ->
        ( Fabric.forward ~budget env.e_topo env.e_model_nodes ~switch:in_switch
            ~port:Topo.edge_port in_bytes,
          Fabric.forward ~budget env.e_topo env.e_stack_nodes ~switch:in_switch
            ~port:Topo.edge_port in_bytes,
          None )
    | Po { in_switch; in_po } ->
        let bytes = Packet.to_bytes in_po.Request.po_payload in
        let switch_b = Stack.packet_out env.e_stacks.(in_switch) in_po in
        let verdict, model_b =
          Dataplane.judge_packet_out env.e_oracles.(in_switch) in_po ~switch:switch_b
        in
        ( Fabric.forward_from ~budget env.e_topo env.e_model_nodes
            ~switch:in_switch ~ingress_port:0 ~bytes model_b,
          Fabric.forward_from ~budget env.e_topo env.e_stack_nodes
            ~switch:in_switch ~ingress_port:0 ~bytes switch_b,
          Some verdict )
  in
  let hop_list = switch_trace.Fabric.t_hops in
  Telemetry.incr ~n:(List.length hop_list) tele "topo.hops";
  tally.hops <- tally.hops + List.length hop_list;
  (match switch_trace.Fabric.t_disposition with
  | Fabric.Delivered _ ->
      tally.delivered <- tally.delivered + 1;
      Telemetry.incr tele "topo.delivered"
  | Fabric.Dropped _ ->
      tally.dropped <- tally.dropped + 1;
      Telemetry.incr tele "topo.dropped"
  | Fabric.Dead_hop _ ->
      tally.dropped <- tally.dropped + 1;
      Telemetry.incr tele "topo.dropped";
      Telemetry.incr tele "topo.crashed_hops"
  | Fabric.Budget_exhausted _ ->
      tally.dropped <- tally.dropped + 1;
      Telemetry.incr tele "topo.dropped";
      Telemetry.incr tele "topo.loops_detected");
  (* Per-hop judgment: the oracle re-runs the model on each hop's own
     input bytes, so a hop downstream of a perturbation is judged against
     what the model would do with the perturbed packet — only the
     introducing switch diverges. The first hop of a packet-out is
     processed as a packet-out, not by ingress, so it is excluded here:
     [judge_packet_out] already judged it. *)
  let judged =
    List.mapi
      (fun idx (h : Fabric.hop) ->
        if idx = 0 && po_verdict <> None then None
        else
          match
            Dataplane.judge_info
              env.e_oracles.(h.Fabric.h_switch)
              ~ingress_port:h.Fabric.h_ingress ~bytes:h.Fabric.h_bytes_in
              ~switch:h.Fabric.h_behavior
          with
          | v -> Some (h, v)
          (* A fault that corrupts bytes into unparseability shows up in
             the end-to-end check; the hop itself cannot be judged. *)
          | exception Interp.Parse_failure _ -> None)
      hop_list
  in
  let po_div =
    match (po_verdict, hop_list) with
    | Some (Dataplane.Diverged bs), h0 :: _ -> Some (h0, bs)
    | _ -> None
  in
  let hop_div =
    List.find_map
      (function
        | Some (h, (Dataplane.Diverged bs, _)) -> Some (h, bs) | _ -> None)
      judged
  in
  match (if po_div <> None then po_div else hop_div) with
  | Some (h, model_bs) ->
      if Campaign.room sink then begin
        tally.localized <- tally.localized + 1;
        Telemetry.incr tele "topo.localized";
        let hop = sp "sw%d" h.Fabric.h_switch in
        let repro =
          if po_div <> None then
            (* Packet-out payloads are structured values with no byte-level
               replay path (same limitation as the data campaign). *)
            None
          else begin
            let r =
              Repro.Data
                { dr_entries = env.e_entries_for.(h.Fabric.h_switch);
                  dr_port = h.Fabric.h_ingress;
                  dr_bytes = h.Fabric.h_bytes_in }
            in
            Some
              (if env.e_cfg.minimize then
                 Telemetry.with_span tele "triage.minimize" (fun () ->
                     Harness.minimize_repro
                       (env.e_mk_stack h.Fabric.h_switch)
                       ~max_probes:Harness.ddmin_probes r)
               else r)
          end
        in
        Campaign.add sink ?repro
          ~context:(Report.context ~goal:fl.fl_id ~hop ())
          "fabric behavior divergence"
          (Format.asprintf
             "flow %s hop sw%d (ingress %d): switch behaved %a, model admits %a"
             fl.fl_id h.Fabric.h_switch h.Fabric.h_ingress Interp.pp_behavior
             h.Fabric.h_behavior Interp.pp_behavior_set model_bs)
      end
  | None -> (
      let expectation = Endtoend.of_trace model_trace in
      let last_judged =
        List.fold_left
          (fun acc j -> match j with Some x -> Some x | None -> acc)
          None judged
      in
      let bytes_equal a b =
        String.equal a b
        ||
        match last_judged with
        | Some (h, (_, info)) ->
            Dataplane.masked_bytes_equal
              env.e_oracles.(h.Fabric.h_switch)
              info a b
        | None -> false
      in
      match Endtoend.check ~bytes_equal expectation switch_trace with
      | Ok () -> ()
      | Error detail ->
          let hash_consulted =
            List.exists
              (function
                | Some (_, (_, info)) -> info.Interp.ri_hash_calls > 0
                | None -> false)
              judged
          in
          if hash_consulted then
            (* Every hop matched the model up to taint, and at least one
               consulted a hash: the end-to-end path itself may legally
               differ from the Fixed-0 reference trace. *)
            Telemetry.incr tele "topo.nondet_admits"
          else if Campaign.room sink then begin
            match switch_trace.Fabric.t_disposition with
            | Fabric.Dead_hop k ->
                tally.localized <- tally.localized + 1;
                Telemetry.incr tele "topo.localized";
                Campaign.add sink
                  ~context:(Report.context ~goal:fl.fl_id ~hop:(sp "sw%d" k) ())
                  "fabric dead switch"
                  (sp "flow %s: %s" fl.fl_id detail)
            | Fabric.Budget_exhausted _ ->
                Campaign.add sink
                  ~context:(Report.context ~goal:fl.fl_id ())
                  "fabric forwarding loop"
                  (sp "flow %s: %s" fl.fl_id detail)
            | _ ->
                Campaign.add sink
                  ~context:(Report.context ~goal:fl.fl_id ())
                  "fabric delivery divergence"
                  (sp "flow %s: %s" fl.fl_id detail)
          end)

(* --- flow slices -----------------------------------------------------------

   Same decomposition discipline as the data campaign: contiguous slices
   of the deterministic flow list under [Campaign.run]'s budget rule, each
   a pure function of (env, slice) — packet processing never mutates
   switch state. *)

let run_slice env sink (_offset, slice_flows) =
  let tele = Telemetry.get () in
  let tally = { delivered = 0; dropped = 0; hops = 0; localized = 0 } in
  List.iter (test_flow env ~tele sink tally) slice_flows;
  List.map
    (fun (name, n) -> (name, float n))
    [ ("flows", List.length slice_flows); ("delivered", tally.delivered);
      ("dropped", tally.dropped); ("hops", tally.hops);
      ("localized", tally.localized) ]

let run ?jobs program cfg =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "topo.campaign" @@ fun () ->
  let start = Telemetry.Clock.now () in
  let topo = Topo.build ?spines:cfg.spines cfg.shape cfg.switches in
  let n = Topo.switches topo in
  let entries_for =
    Array.init n (fun s -> Routes.entries topo program ~switch:s)
  in
  let sink = Campaign.sink ~cap:cfg.max_incidents Report.Fabric in
  let faults_for s =
    match List.assoc_opt s cfg.faults with Some fs -> fs | None -> []
  in
  let mk_stack s () =
    Stack.create ~faults:(faults_for s) ~hash_seed:(0x5EED + cfg.seed + s)
      program
  in
  (* Setup runs once in the parent; forked slice workers inherit the
     programmed stacks and model states copy-on-write. *)
  let stacks =
    Array.init n (fun s ->
        let st = mk_stack s () in
        let status = Stack.push_p4info st in
        if not (Status.is_ok status) then
          Campaign.add sink "p4info rejected"
            ~context:(Report.context ~hop:(sp "sw%d" s) ())
            (Format.asprintf "sw%d: Set P4Info failed: %a" s Status.pp status);
        ignore
          (Data_campaign.install st entries_for.(s) (fun ~entry ~prior:_ detail ->
               Campaign.add sink "entry rejected during fabric setup"
                 ~context:
                   (Report.context ~table:entry.Entry.e_table ~hop:(sp "sw%d" s)
                      ())
                 (sp "sw%d: %s" s detail)));
        st)
  in
  (* The reference fabric runs over the intended entry sets regardless of
     what each switch accepted — a rejection is already an incident. *)
  let model_cfgs = Array.map (Dataplane.model program) entries_for in
  let taint =
    (Switchv_analysis.Analysis.facts ~check_restrictions:false program)
      .Switchv_analysis.Analysis.f_taint
  in
  let oracles = Array.map (fun c -> Dataplane.create c ~taint) model_cfgs in
  let env =
    { e_topo = topo;
      e_cfg = cfg;
      e_stacks = stacks;
      e_stack_nodes = Array.init n (fun s -> Fabric.stack_node s stacks.(s));
      e_model_nodes = Array.mapi Fabric.model_node model_cfgs;
      e_oracles = oracles;
      e_entries_for = entries_for;
      e_budget =
        (match cfg.budget with
        | Some b -> b
        | None -> Fabric.default_budget topo);
      e_mk_stack = mk_stack }
  in
  let totals =
    Campaign.run ?jobs sink ~shards:cfg.shards
      (fun _ -> run_slice env)
      (flows topo cfg)
  in
  let total name = int_of_float (Campaign.total totals name) in
  let switch_coverage =
    List.init n (fun s ->
        let c =
          Coverage.of_registry ~prefix:(sp "topo.sw.%d." s) tele program
        in
        (s, c.Coverage.covered, c.Coverage.total))
  in
  let stats =
    { Report.fs_shape = Topo.shape_to_string cfg.shape;
      fs_switches = n;
      fs_links = Topo.link_count topo;
      fs_flows = total "flows";
      fs_delivered = total "delivered";
      fs_dropped = total "dropped";
      fs_hops = total "hops";
      fs_localized = total "localized";
      fs_duration = Telemetry.Clock.duration ~since:start;
      fs_switch_coverage = switch_coverage }
  in
  (Campaign.incidents sink, stats)
