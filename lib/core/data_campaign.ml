module Stack = Switchv_switch.Stack
module Greybox = Switchv_fuzzer.Greybox
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module Interp = Switchv_bmv2.Interp
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Cache = Switchv_symbolic.Cache
module Packet = Switchv_packet.Packet
module Term = Switchv_smt.Term
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Dataplane = Switchv_oracle.Dataplane
module Taint = Switchv_analysis.Taint

type config = {
  entries : Entry.t list;
  ports : int list;
  extra_goals : Symexec.encoding -> Packetgen.goal list;
  include_branch_goals : bool;
  prune_dead_goals : bool;
  cache : Cache.t option;
  max_incidents : int;
  test_packet_io : bool;
  shards : int;
  incremental : bool;
  taint : bool;
  greybox : bool;
      (* per-packet coverage-delta capture + corpus admission (slice-local,
         jobs-deterministic); feeds the fuzzer.greybox.* totals *)
  compile : bool;
      (* staged evaluator for every model execution (table lookups served
         from indexed match structures); [false] is the linear-scan
         reference path, byte-identical by contract *)
  covered_edges : string list;
      (* edges the caller already covered concretely (the harness passes
         the control campaign's delta): branch goals over them skip SMT.
         Threaded explicitly — never read from the ambient registry — so a
         campaign's goal list is a pure function of its config, not of
         whatever ran earlier in the process. *)
}

let default_config entries =
  { entries; ports = [ 1; 2; 3; 4 ]; extra_goals = (fun _ -> []);
    include_branch_goals = true; prune_dead_goals = true;
    cache = None; max_incidents = 25; test_packet_io = true; shards = 1;
    incremental = true; taint = true; greybox = true; compile = true;
    covered_edges = [] }

let exploratory_goals (enc : Symexec.encoding) =
  let ether_type = Term.var (Symexec.field_var ~header:"ethernet" ~field:"ether_type") 16 in
  let ether_goal et name =
    Packetgen.custom_goal
      ~id:(Printf.sprintf "explore:ether:%s" name)
      ~desc:(Printf.sprintf "a packet with ether_type %s reaches the switch" name)
      (Term.eq ether_type (Term.of_int ~width:16 et))
  in
  let has_ipv4 =
    List.exists
      (fun (h : Switchv_packet.Header.t) -> String.equal h.name "ipv4")
      enc.enc_program.p_headers
  in
  let ipv4_goals =
    if not has_ipv4 then []
    else begin
      let valid = Term.bvar (Symexec.validity_var ~header:"ipv4") in
      let ttl = Term.var (Symexec.field_var ~header:"ipv4" ~field:"ttl") 8 in
      let dscp = Term.var (Symexec.field_var ~header:"ipv4" ~field:"dscp") 6 in
      [ Packetgen.custom_goal ~id:"explore:ttl:0" ~desc:"IPv4 packet with TTL 0"
          (Term.and_ valid (Term.eq ttl (Term.of_int ~width:8 0)));
        Packetgen.custom_goal ~id:"explore:ttl:1" ~desc:"IPv4 packet with TTL 1"
          (Term.and_ valid (Term.eq ttl (Term.of_int ~width:8 1)));
        Packetgen.custom_goal ~id:"explore:ttl:2" ~desc:"IPv4 packet with TTL 2"
          (Term.and_ valid (Term.eq ttl (Term.of_int ~width:8 2)));
        Packetgen.custom_goal ~id:"explore:ttl:expired-unpunted"
          ~desc:"an expired-TTL packet the model does not punt"
          (Term.and_ valid
             (Term.and_
                (Term.ule ttl (Term.of_int ~width:8 1))
                (Term.not_ enc.enc_punted)));
        Packetgen.custom_goal ~id:"explore:dscp:nonzero-forwarded"
          ~desc:"a forwarded IPv4 packet with nonzero DSCP"
          (Term.and_ valid
             (Term.and_
                (Term.neq dscp (Term.of_int ~width:6 0))
                (Term.not_ enc.enc_dropped)));
        Packetgen.custom_goal ~id:"explore:forwarded" ~desc:"any forwarded packet"
          (Term.not_ enc.enc_dropped);
        Packetgen.custom_goal ~id:"explore:punted" ~desc:"any punted packet"
          enc.enc_punted ]
    end
  in
  [ ether_goal 0x88CC "lldp"; ether_goal 0x8809 "lacp"; ether_goal 0x0806 "arp";
    ether_goal 0x8100 "vlan"; ether_goal 0x86DD "ipv6"; ether_goal 0x0800 "ipv4" ]
  @ ipv4_goals

(* Install the (dependency-ordered) entries, batched by table so no batch
   contains internal @refers_to dependencies (§4.4 / "Batching Table
   Entries"). *)
let install stack entries add_incident =
  let installed = ref 0 in
  let accepted = ref [] in
  List.iter
    (fun updates ->
      (* Entries the switch already accepted: the reproducer prefix for
         rejections in this batch. *)
      let prior = List.rev !accepted in
      let resp = Stack.write stack { Request.updates } in
      List.iter2
        (fun (u : Request.update) (s : Status.t) ->
          if Status.is_ok s then begin
            incr installed;
            accepted := u.entry :: !accepted
          end
          else
            add_incident ~entry:u.entry ~prior
              (Format.asprintf "%a: %a" Status.pp s Entry.pp u.entry))
        updates resp.statuses)
    (Request.insert_batches entries);
  !installed

(* --- goal slices -----------------------------------------------------------

   The campaign shards by coverage-goal partition: contiguous slices of the
   (deterministically ordered) goal list, each generated and tested
   independently against the already-installed stack, under the budget
   rule of [Campaign.run]. A slice's result is a pure function of
   [(config, encoding, slice)] — [Packetgen.generate] runs a fresh solver
   per call and [index_offset] keeps the port-preference cycle aligned
   with the goal's global index — so merged results are independent of
   whether slices ran sequentially or in forked workers. *)

let run_slice stack config ~oracle ~encoding sink (offset, goals) =
  let tele = Telemetry.get () in
  (* Slice-local feedback state (empty novelty map, seed derived from the
     slice's global offset): what a packet's execution contributes depends
     only on (config, slice), never on which process ran it. *)
  let greybox =
    if config.greybox then
      Some (Greybox.create ~program:(Stack.program stack) ~seed:(0x5eed + offset) ())
    else None
  in
  let cache_total f = match config.cache with Some c -> float (f c) | None -> 0. in
  let hits_before = cache_total Cache.hits in
  let misses_before = cache_total Cache.misses in
  let gen_start = Telemetry.Clock.now () in
  let generated =
    Telemetry.with_span tele "campaign.generation" (fun () ->
        Packetgen.generate ~ports:config.ports ~index_offset:offset
          ?cache:config.cache ~incremental:config.incremental encoding goals)
  in
  let gen_s = Telemetry.Clock.duration ~since:gen_start in
  let test_start = Telemetry.Clock.now () in
  let tested = ref 0 in
  Telemetry.with_span tele "campaign.testing" (fun () ->
      List.iter
        (fun (tp : Packetgen.test_packet) ->
          match tp.tp_bytes with
          | None -> ()
          | Some bytes when Campaign.room sink -> (
              incr tested;
              let context =
                let table =
                  match tp.tp_kind with
                  | Packetgen.G_entry { ge_table; _ } -> Some ge_table
                  | _ -> None
                in
                Report.context ?table ~goal:tp.tp_goal ()
              in
              let repro =
                Repro.Data
                  { dr_entries = config.entries; dr_port = tp.tp_port;
                    dr_bytes = bytes }
              in
              let before =
                Option.map (fun gb -> Greybox.snapshot gb tele) greybox
              in
              let switch_b = Stack.inject stack ~ingress_port:tp.tp_port bytes in
              (* Delta capture before the oracle runs, so the model's own
                 counter bumps don't pollute the switch-side observation. *)
              (match (greybox, before) with
              | Some gb, Some before ->
                  let tables =
                    match tp.tp_kind with
                    | Packetgen.G_entry { ge_table; _ } -> [ ge_table ]
                    | _ -> []
                  in
                  ignore
                    (Greybox.observe gb tele ~before ~tables
                       ~seed:(Greybox.Packet (tp.tp_port, bytes)) ())
              | _ -> ());
              match
                Dataplane.judge oracle ~ingress_port:tp.tp_port ~bytes
                  ~switch:switch_b
              with
              | exception Interp.Parse_failure msg ->
                  Campaign.add sink "model parse failure" ~context ~repro
                    (Printf.sprintf "goal %s generated an unparseable packet: %s"
                       tp.tp_goal msg)
              | Dataplane.Admitted -> ()
              | Dataplane.Diverged model_bs ->
                  Campaign.add sink "behavior divergence" ~context ~repro
                    (Format.asprintf
                       "goal %s (port %d): switch behaved %a, model admits %a"
                       tp.tp_goal tp.tp_port Interp.pp_behavior switch_b
                       Interp.pp_behavior_set model_bs))
          | Some _ -> ())
        generated.packets);
  [ ("covered", float generated.covered);
    ("uncoverable", float generated.uncoverable);
    ("tested", float !tested);
    ("gen_s", gen_s);
    ("test_s", Telemetry.Clock.duration ~since:test_start);
    ("cache_hits", cache_total Cache.hits -. hits_before);
    ("cache_misses", cache_total Cache.misses -. misses_before) ]

let run ?jobs stack config =
  let tele = Telemetry.get () in
  let sink = Campaign.sink ~cap:config.max_incidents Report.Symbolic in
  let s = Stack.push_p4info stack in
  if not (Status.is_ok s) then
    Campaign.add sink "p4info rejected"
      ~repro:(Repro.Control { cr_seed = 0; cr_prefix = []; cr_batch = [] })
      (Format.asprintf "Set P4Info failed: %a" Status.pp s);
  let installed =
    install stack config.entries (fun ~entry ~prior detail ->
        Campaign.add sink "entry rejected during test setup"
          ~context:(Report.context ~table:entry.Entry.e_table ())
          ~repro:(Repro.Control
                    { cr_seed = 0; cr_prefix = prior;
                      cr_batch = [ Request.insert entry ] })
          detail)
  in
  (* The reference model runs over the intended entry set regardless of
     what the switch accepted: a rejected entry is already an incident, and
     the paper's simulator is configured with the full replay. *)
  let model_cfg = Dataplane.model (Stack.program stack) config.entries in
  (* Generation prelude — encoding, goal construction, static pruning — runs
     once in the parent; forked workers inherit the result copy-on-write. *)
  let prep_start = Telemetry.Clock.now () in
  let encoding, goals, tainted_goals, taint_summary =
    Telemetry.with_span tele "campaign.generation" (fun () ->
        let encoding = Symexec.encode (Stack.program stack) config.entries in
        (* Prefer forwarded packets: a goal packet that both sides drop (e.g.
           TTL 0) exercises the entry but observes nothing. The preference is
           soft; uncoverable-when-forwarding goals fall back automatically. *)
        let prefer = Term.not_ encoding.enc_dropped in
        let goals =
          Packetgen.entry_coverage_goals ~prefer encoding
          @ (if config.include_branch_goals then
               Packetgen.branch_coverage_goals ~prefer encoding
             else [])
          @ config.extra_goals encoding
        in
        (* Static analysis proves some goals uncoverable (dead tables,
           statically-decided branches); dropping them saves the SMT
           queries without changing any divergence result. The BDD
           restriction check is skipped: it finds uninstallable tables,
           which cannot affect goals over *installed* entries. *)
        let facts =
          if config.prune_dead_goals || config.taint then
            Switchv_analysis.Analysis.facts ~check_restrictions:false
              (Stack.program stack)
          else Switchv_analysis.Analysis.no_facts
        in
        let goals =
          if config.prune_dead_goals then Packetgen.prune_goals facts goals
          else goals
        in
        (* Taint classification: goals whose path condition crosses a
           hash/selector-tainted branch would pin a hash outcome the
           concrete run is free to ignore; drop them before the solver.
           The same summary powers the set-valued oracle below. *)
        let taint_summary =
          if config.taint then facts.Switchv_analysis.Analysis.f_taint
          else Taint.empty
        in
        let before_taint = List.length goals in
        let goals =
          if config.taint then Packetgen.prune_tainted_goals taint_summary goals
          else goals
        in
        let tainted = before_taint - List.length goals in
        (* Greybox shortcut: branch goals whose edge the caller's campaign
           already covered concretely skip the solver. [covered_edges] is a
           config input computed once by the caller (jobs-invariant), so
           the slice decomposition below still depends only on config. *)
        let goals =
          match config.covered_edges with
          | [] -> goals
          | covered ->
              let set = Hashtbl.create 64 in
              List.iter (fun k -> Hashtbl.replace set k ()) covered;
              Packetgen.prune_concretely_covered ~covered:(Hashtbl.mem set)
                goals
        in
        (encoding, goals, tainted, taint_summary))
  in
  let oracle =
    Dataplane.create ~compile:config.compile model_cfg ~taint:taint_summary
  in
  let prep_s = Telemetry.Clock.duration ~since:prep_start in
  (* Denominator for live progress/ETA; counted in the parent before any
     fork so the gauge is visible immediately and never double-counted. *)
  Telemetry.incr ~n:(List.length goals) tele "goals.total";
  let totals =
    Campaign.run ?jobs sink ~shards:config.shards
      (fun _ -> run_slice stack config ~oracle ~encoding)
      goals
  in
  (* Packet I/O contract, in the parent, after the merge (so the incident
     cap applies to the merged list). The submit-to-ingress payload is
     crafted to be routable under the installed entries (admitted MAC +
     covered dst), so that broken submit-to-ingress processing is
     observable. *)
  let io_start = Telemetry.Clock.now () in
  (if config.test_packet_io && Campaign.room sink then begin
    let payload =
      let admit_mac =
        List.find_map
          (fun (e : Entry.t) ->
            if String.equal e.e_table "l3_admit_table" then
              match Entry.find_match e "dst_mac" with
              | Some (Entry.M_ternary t) ->
                  Some (Switchv_bitvec.Ternary.value t)
              | _ -> None
            else None)
          config.entries
      in
      let route_dst =
        List.find_map
          (fun (e : Entry.t) ->
            let forwards =
              match e.e_action with
              | Entry.Single { ai_name = "set_nexthop_id" | "set_wcmp_group_id"; _ } ->
                  true
              | _ -> false
            in
            if String.equal e.e_table "ipv4_table" && forwards then
              match Entry.find_match e "ipv4_dst" with
              | Some (Entry.M_lpm p) -> Some (Switchv_bitvec.Prefix.value p)
              | _ -> None
            else None)
          config.entries
      in
      let base = Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"198.51.100.1" () in
      let base =
        match admit_mac with
        | Some mac -> Packet.set base ~header:"ethernet" ~field:"dst_addr" mac
        | None -> base
      in
      match route_dst with
      | Some dst -> Packet.set base ~header:"ipv4" ~field:"dst_addr" dst
      | None -> base
    in
    (* No reproducers: packet-out payloads are structured [Packet.t]
       values with no byte-level parser to rebuild them from. *)
    let judge egress_port =
      let po = { Request.po_payload = payload; po_egress_port = egress_port } in
      let switch = Stack.packet_out stack po in
      (switch, fst (Dataplane.judge_packet_out oracle po ~switch))
    in
    List.iter
      (fun port ->
        match judge (Some port) with
        | _, Dataplane.Admitted -> ()
        | b, Dataplane.Diverged _ ->
            Campaign.add sink "packet-out divergence"
              ~context:(Report.context ~goal:(Printf.sprintf "packet-out:port:%d" port) ())
              (Format.asprintf "packet-out to port %d behaved %a" port Interp.pp_behavior b))
      config.ports;
    match judge None with
    | _, Dataplane.Admitted -> ()
    | switch_b, Dataplane.Diverged model_bs ->
        Campaign.add sink "submit-to-ingress divergence"
          ~context:(Report.context ~goal:"packet-out:submit" ())
          (Format.asprintf "switch behaved %a, model admits %a" Interp.pp_behavior switch_b
             Interp.pp_behavior_set model_bs)
  end);
  let total = Campaign.total totals in
  let n name = int_of_float (total name) in
  let stats =
    { Report.ds_entries_installed = installed;
      ds_goals = List.length goals;
      ds_covered = n "covered";
      ds_uncoverable = n "uncoverable";
      ds_tainted_goals = tainted_goals;
      ds_packets_tested = n "tested";
      ds_generation_time = prep_s +. total "gen_s";
      ds_testing_time = total "test_s" +. Telemetry.Clock.duration ~since:io_start;
      ds_cache_hits = n "cache_hits";
      ds_cache_misses = n "cache_misses" }
  in
  (Campaign.incidents sink, stats)
