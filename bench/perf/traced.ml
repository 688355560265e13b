(* Outside-in replica of a single-process [Harness.validate]: jobs = 1,
   one control shard, one data slice, no fuzzed-entry pass, triage dedup
   without minimisation (the harness defaults the workloads use).

   It calls the same public functions in the same order as
   [Harness.validate], [Control_campaign.run_shard] and [Data_campaign.run],
   and wraps each call into a library layer in a span named
   "<lib module>.<call>". [core.*] spans mark the replica's own phases;
   their self time is the time no layer span covers. The benchmark checks
   that a traced op reports the same statistics as the untraced library
   call on the same input, so this file cannot drift from the library
   unnoticed. *)

open Switchv_core
module Stack = Switchv_switch.Stack
module Fuzzer = Switchv_fuzzer.Fuzzer
module Greybox = Switchv_fuzzer.Greybox
module Oracle = Switchv_oracle.Oracle
module Dataplane = Switchv_oracle.Dataplane
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State
module Entry = Switchv_p4runtime.Entry
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Cache = Switchv_symbolic.Cache
module Workload = Switchv_sai.Workload
module Packet = Switchv_packet.Packet
module Term = Switchv_smt.Term
module Telemetry = Switchv_telemetry.Telemetry
module Analysis = Switchv_analysis.Analysis
module Taint = Switchv_analysis.Taint
module Coverage = Switchv_obs.Coverage
module Fingerprint = Switchv_triage.Fingerprint
module Rng = Switchv_bitvec.Rng

let span = Spans.span

(* [Control_campaign.probes_per_batch]; not exported. *)
let probes_per_batch = 2

(* --- control plane: [Control_campaign.run_shard ~shard:0], one shard --- *)

let control tr stack (config : Control_campaign.config) =
  let seed = config.seed in
  let start = Telemetry.Clock.now () in
  let incidents = ref [] in
  let n_incidents = ref 0 in
  let n_updates = ref 0 and n_valid = ref 0 and n_invalid = ref 0 in
  let n_batches = ref 0 in
  let add ?context kind detail =
    incr n_incidents;
    Telemetry.incr (Telemetry.get ()) "campaign.incidents";
    incidents := Report.incident ?context Report.Fuzzer ~kind ~detail :: !incidents
  in
  let s = span tr "switch.push_p4info" (fun () -> Stack.push_p4info stack) in
  if not (Status.is_ok s) then
    add "p4info rejected" (Format.asprintf "Set P4Info failed: %a" Status.pp s);
  let greybox =
    if config.greybox then
      Some
        (span tr "fuzzer.greybox" (fun () ->
             Greybox.create ~program:(Stack.program stack) ~seed ()))
    else None
  in
  let probe gb updates =
    let tele = Telemetry.get () in
    let tables =
      List.sort_uniq String.compare
        (List.map (fun (u : Request.update) -> u.entry.e_table) updates)
    in
    let novel = ref 0 in
    for _ = 1 to probes_per_batch do
      let before = span tr "fuzzer.greybox" (fun () -> Greybox.snapshot gb tele) in
      let port, bytes = span tr "fuzzer.greybox" (fun () -> Greybox.probe_packet gb) in
      Telemetry.incr tele "fuzzer.greybox.probes";
      ignore
        (span tr "switch.inject" (fun () -> Stack.inject stack ~ingress_port:port bytes));
      novel :=
        !novel
        + span tr "fuzzer.greybox" (fun () ->
              Greybox.observe gb tele ~before ~tables
                ~seed:(Greybox.Packet (port, bytes)) ())
    done;
    if !novel > 0 then
      span tr "fuzzer.greybox" (fun () ->
          Greybox.admit gb
            (Greybox.Batch (List.map (fun (u : Request.update) -> u.entry) updates))
            ~energy:!novel)
  in
  if !incidents = [] then begin
    let fuzzer =
      span tr "fuzzer.create" (fun () ->
          Fuzzer.create ~config:config.fuzzer_config ?greybox (Stack.info stack)
            (Rng.create seed))
    in
    let oracle = span tr "oracle.create" (fun () -> Oracle.create (Stack.info stack)) in
    let process annotated =
      incr n_batches;
      let updates = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
      n_updates := !n_updates + List.length updates;
      List.iter
        (fun (a : Fuzzer.annotated_update) ->
          if a.mutation = None then incr n_valid else incr n_invalid)
        annotated;
      let resp = span tr "switch.write" (fun () -> Stack.write stack { Request.updates }) in
      let read_back = span tr "switch.read" (fun () -> Stack.read stack) in
      let found =
        span tr "oracle.judge_batch" (fun () ->
            Oracle.judge_batch oracle updates resp ~read_back)
      in
      (if found <> [] then begin
         let mutated =
           List.find_opt (fun (a : Fuzzer.annotated_update) -> a.mutation <> None) annotated
         in
         let table =
           match mutated with
           | Some a -> Some a.update.entry.e_table
           | None -> (
               match updates with
               | (u : Request.update) :: rest
                 when List.for_all
                        (fun (v : Request.update) ->
                          String.equal v.entry.e_table u.entry.e_table)
                        rest ->
                   Some u.entry.e_table
               | _ -> None)
         in
         let context =
           Report.context ?table
             ?mutation:
               (Option.bind mutated (fun (a : Fuzzer.annotated_update) -> a.mutation))
             ~batch:!n_batches ()
         in
         List.iter
           (fun (i : Oracle.incident) ->
             let kind =
               match i.inc_kind with
               | `Status_violation -> "status violation"
               | `State_divergence -> "state divergence"
               | `Unresponsive -> "unresponsive"
               | `P4info_rejected -> "p4info rejected"
             in
             add ~context kind i.inc_detail)
           found
       end);
      (match greybox with
      | Some gb when not (Stack.crashed stack) -> probe gb updates
      | _ -> ());
      if Stack.crashed stack then raise Exit
    in
    try
      List.iter
        (fun batch ->
          if !n_incidents >= config.max_incidents then raise Exit;
          span tr "core.batch" (fun () -> process batch))
        (span tr "fuzzer.sweep" (fun () -> Fuzzer.sweep fuzzer));
      for _ = 1 to config.batches do
        if !n_incidents >= config.max_incidents then raise Exit;
        span tr "core.batch" (fun () ->
            process (span tr "fuzzer.next_batch" (fun () -> Fuzzer.next_batch fuzzer)))
      done
    with Exit -> ()
  end;
  let stats =
    { Report.cs_batches = !n_batches;
      cs_updates = !n_updates;
      cs_valid_updates = !n_valid;
      cs_invalid_updates = !n_invalid;
      cs_novel_edges = (match greybox with Some gb -> Greybox.novel_edges gb | None -> 0);
      cs_corpus_seeds = (match greybox with Some gb -> Greybox.corpus_size gb | None -> 0);
      cs_duration = Telemetry.Clock.duration ~since:start }
  in
  (List.rev !incidents, stats)

(* --- data plane: [Data_campaign.run], one slice ------------------------ *)

(* [Data_campaign]'s install step: entries in dependency order, batched
   by table so no batch holds an internal [@refers_to] dependency. Returns
   how many the switch accepted. *)
let install tr stack entries ~on_reject =
  let batches =
    List.fold_left
      (fun acc (e : Entry.t) ->
        match acc with
        | (table, batch) :: rest when String.equal table e.e_table ->
            (table, e :: batch) :: rest
        | _ -> (e.e_table, [ e ]) :: acc)
      [] entries
    |> List.rev_map (fun (_, batch) -> List.rev batch)
  in
  List.fold_left
    (fun installed batch ->
      let updates = List.map Request.insert batch in
      let resp = span tr "switch.write" (fun () -> Stack.write stack { Request.updates }) in
      List.fold_left2
        (fun installed u s ->
          if Status.is_ok s then installed + 1
          else begin
            on_reject u s;
            installed
          end)
        installed updates resp.statuses)
    0 batches

(* The reference model over the intended entry set, as [Data_campaign]
   configures it. *)
let model_config program entries =
  let state = State.create () in
  List.iter (fun e -> ignore (State.insert state e)) entries;
  { Interp.program;
    state;
    hash_mode = Interp.Fixed 0;
    mirror_map = Workload.mirror_map entries }

let pp_behavior_set fmt bs =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       Interp.pp_behavior)
    bs

(* The controller packet-I/O contract: packet-out to every port, then
   submit-to-ingress against the model's hash-round behaviour set. *)
let packet_io tr stack (config : Data_campaign.config) model_cfg add =
  let find table f =
    List.find_map
      (fun (e : Entry.t) -> if String.equal e.e_table table then f e else None)
      config.entries
  in
  let admit_mac =
    find "l3_admit_table" (fun e ->
        match Entry.find_match e "dst_mac" with
        | Some (Entry.M_ternary t) -> Some (Switchv_bitvec.Ternary.value t)
        | _ -> None)
  in
  let route_dst =
    find "ipv4_table" (fun e ->
        match (e.e_action, Entry.find_match e "ipv4_dst") with
        | ( Entry.Single { ai_name = "set_nexthop_id" | "set_wcmp_group_id"; _ },
            Some (Entry.M_lpm p) ) ->
            Some (Switchv_bitvec.Prefix.value p)
        | _ -> None)
  in
  let payload =
    let base = Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"198.51.100.1" () in
    let set header field v p = Packet.set p ~header ~field v in
    base
    |> Option.fold ~none:Fun.id ~some:(set "ethernet" "dst_addr") admit_mac
    |> Option.fold ~none:Fun.id ~some:(set "ipv4" "dst_addr") route_dst
  in
  List.iter
    (fun port ->
      let po = { Request.po_payload = payload; po_egress_port = Some port } in
      let b = span tr "switch.packet_out" (fun () -> Stack.packet_out stack po) in
      if b.Interp.b_egress <> Some port || b.Interp.b_punted then
        add "packet-out divergence"
          ~context:(Report.context ~goal:(Printf.sprintf "packet-out:port:%d" port) ())
          (Format.asprintf "packet-out to port %d behaved %a" port Interp.pp_behavior b))
    config.ports;
  let po = { Request.po_payload = payload; po_egress_port = None } in
  let switch_b = span tr "switch.packet_out" (fun () -> Stack.packet_out stack po) in
  let model_bs =
    span tr "bmv2.run" (fun () ->
        let run =
          if config.compile then Compile.run_packet_out else Interp.run_packet_out
        in
        let rounds = min 32 (Interp.hash_rounds model_cfg) in
        let rec go round acc =
          if round >= rounds then acc
          else
            let b =
              run { model_cfg with Interp.hash_mode = Interp.Fixed round }
                ~egress_port:None payload
            in
            go (round + 1)
              (if List.exists (Interp.behavior_equal b) acc then acc else b :: acc)
        in
        List.rev (go 0 []))
  in
  if not (List.exists (Interp.behavior_equal switch_b) model_bs) then
    add "submit-to-ingress divergence"
      ~context:(Report.context ~goal:"packet-out:submit" ())
      (Format.asprintf "switch behaved %a, model admits %a" Interp.pp_behavior switch_b
         pp_behavior_set model_bs)

let data tr stack (config : Data_campaign.config) =
  let tele = Telemetry.get () in
  let incidents = ref [] in
  let n_incidents = ref 0 in
  let add ?context kind detail =
    if !n_incidents < config.max_incidents then begin
      incr n_incidents;
      Telemetry.incr tele "campaign.incidents";
      incidents := Report.incident ?context Report.Symbolic ~kind ~detail :: !incidents
    end
  in
  let s = span tr "switch.push_p4info" (fun () -> Stack.push_p4info stack) in
  if not (Status.is_ok s) then
    add "p4info rejected" (Format.asprintf "Set P4Info failed: %a" Status.pp s);
  let installed =
    span tr "core.install" (fun () ->
        install tr stack config.entries ~on_reject:(fun (u : Request.update) s ->
            add "entry rejected during test setup"
              ~context:(Report.context ~table:u.entry.e_table ())
              (Format.asprintf "%a: %a" Status.pp s Entry.pp u.entry)))
  in
  let program = Stack.program stack in
  let model_cfg =
    span tr "p4runtime.model_state" (fun () -> model_config program config.entries)
  in
  let encoding =
    span tr "symbolic.encode" (fun () -> Symexec.encode program config.entries)
  in
  let goals =
    span tr "symbolic.goals" (fun () ->
        let prefer = Term.not_ encoding.enc_dropped in
        Packetgen.entry_coverage_goals ~prefer encoding
        @ (if config.include_branch_goals then
             Packetgen.branch_coverage_goals ~prefer encoding
           else [])
        @ config.extra_goals encoding)
  in
  let facts =
    if config.prune_dead_goals || config.taint then
      span tr "analysis.facts" (fun () ->
          Analysis.facts ~check_restrictions:false program)
    else Analysis.no_facts
  in
  let taint_summary = if config.taint then facts.f_taint else Taint.empty in
  let goals, tainted =
    span tr "symbolic.goals" (fun () ->
        let goals =
          if config.prune_dead_goals then Packetgen.prune_goals facts goals else goals
        in
        let before_taint = List.length goals in
        let goals =
          if config.taint then Packetgen.prune_tainted_goals taint_summary goals else goals
        in
        let tainted = before_taint - List.length goals in
        let goals =
          match config.covered_edges with
          | [] -> goals
          | covered ->
              let set = Hashtbl.create 64 in
              List.iter (fun k -> Hashtbl.replace set k ()) covered;
              Packetgen.prune_concretely_covered ~covered:(Hashtbl.mem set) goals
        in
        (goals, tainted))
  in
  let oracle =
    span tr "oracle.create" (fun () ->
        Dataplane.create ~compile:config.compile model_cfg ~taint:taint_summary)
  in
  Telemetry.incr ~n:(List.length goals) tele "goals.total";
  let greybox =
    if config.greybox then
      Some (span tr "fuzzer.greybox" (fun () -> Greybox.create ~program ~seed:0x5eed ()))
    else None
  in
  let hits_before = Option.fold ~none:0 ~some:Cache.hits config.cache in
  let misses_before = Option.fold ~none:0 ~some:Cache.misses config.cache in
  let generated =
    span tr "symbolic.generate" (fun () ->
        Packetgen.generate ~ports:config.ports ~index_offset:0 ?cache:config.cache
          ~incremental:config.incremental encoding goals)
  in
  let tested = ref 0 in
  span tr "core.testing" (fun () ->
      List.iter
        (fun (tp : Packetgen.test_packet) ->
          match tp.tp_bytes with
          | Some bytes when !n_incidents < config.max_incidents -> (
              incr tested;
              let table =
                match tp.tp_kind with
                | Packetgen.G_entry { ge_table; _ } -> Some ge_table
                | _ -> None
              in
              let context = Report.context ?table ~goal:tp.tp_goal () in
              let before =
                Option.map
                  (fun gb -> span tr "fuzzer.greybox" (fun () -> Greybox.snapshot gb tele))
                  greybox
              in
              let switch_b =
                span tr "switch.inject" (fun () ->
                    Stack.inject stack ~ingress_port:tp.tp_port bytes)
              in
              (match (greybox, before) with
              | Some gb, Some before ->
                  ignore
                    (span tr "fuzzer.greybox" (fun () ->
                         Greybox.observe gb tele ~before ~tables:(Option.to_list table)
                           ~seed:(Greybox.Packet (tp.tp_port, bytes)) ()))
              | _ -> ());
              match
                span tr "oracle.judge" (fun () ->
                    Dataplane.judge oracle ~ingress_port:tp.tp_port ~bytes ~switch:switch_b)
              with
              | exception Interp.Parse_failure msg ->
                  add "model parse failure" ~context
                    (Printf.sprintf "goal %s generated an unparseable packet: %s"
                       tp.tp_goal msg)
              | Dataplane.Admitted -> ()
              | Dataplane.Diverged model_bs ->
                  add "behavior divergence" ~context
                    (Format.asprintf "goal %s (port %d): switch behaved %a, model admits %a"
                       tp.tp_goal tp.tp_port Interp.pp_behavior switch_b pp_behavior_set
                       model_bs))
          | _ -> ())
        generated.packets);
  if config.test_packet_io && !n_incidents < config.max_incidents then
    span tr "core.packet_io" (fun () ->
        packet_io tr stack config model_cfg (fun kind ~context detail ->
            add ~context kind detail));
  let stats =
    { Report.ds_entries_installed = installed;
      ds_goals = List.length goals;
      ds_covered = generated.covered;
      ds_uncoverable = generated.uncoverable;
      ds_tainted_goals = tainted;
      ds_packets_tested = !tested;
      ds_generation_time = 0.;
      ds_testing_time = 0.;
      ds_cache_hits = Option.fold ~none:0 ~some:Cache.hits config.cache - hits_before;
      ds_cache_misses =
        Option.fold ~none:0 ~some:Cache.misses config.cache - misses_before }
  in
  (List.rev !incidents, stats, generated.solver_stats)

(* --- the harness: [Harness.validate] ----------------------------------- *)

type outcome = {
  report : Report.t;  (* triaged incidents and both campaigns' statistics *)
  raw_incidents : int;  (* before fingerprint dedup *)
  solver_stats : (string * int) list;
  state_entries : int;  (* server-side entries the control campaign left *)
}

let validate tr ~name mk_stack (config : Harness.config) =
  if config.fuzzed_data_pass || config.jobs > 1 || config.data_shards > 1
     || config.control.shards > 1
     || Option.fold ~none:false ~some:(fun (t : Harness.triage) -> t.minimize) config.triage
  then
    invalid_arg "Traced.validate: only the single-process harness defaults are replicated";
  span tr name @@ fun () ->
  let tele = Telemetry.get () in
  let control_stack = span tr "switch.create" mk_stack in
  let cov_keys =
    if config.greybox then
      span tr "obs.coverage" (fun () -> Coverage.edge_keys (Stack.program control_stack))
    else []
  in
  let cov_before = List.map (fun k -> Telemetry.counter tele k) cov_keys in
  let control_incidents, control_stats =
    span tr "core.control" (fun () ->
        control tr control_stack
          { config.control with
            max_incidents = config.max_incidents;
            greybox = config.greybox })
  in
  let covered_edges =
    List.filter_map
      (fun (k, before) -> if Telemetry.counter tele k > before then Some k else None)
      (List.combine cov_keys cov_before)
  in
  let data_stack = span tr "switch.create" mk_stack in
  let data_config =
    { (Data_campaign.default_config config.data_entries) with
      cache = config.cache;
      max_incidents = config.max_incidents;
      incremental = config.incremental;
      taint = config.taint;
      greybox = config.greybox;
      compile = config.compile;
      covered_edges;
      extra_goals =
        (if config.exploratory then Data_campaign.exploratory_goals else fun _ -> []) }
  in
  let data_incidents, data_stats, solver_stats =
    span tr "core.data" (fun () -> data tr data_stack data_config)
  in
  let raw = List.length control_incidents + List.length data_incidents in
  let control_incidents, data_incidents, clusters =
    match config.triage with
    | Some { dedup = true; _ } ->
        span tr "triage.cluster" (fun () ->
            let tagged =
              List.map (fun i -> (`Control, i)) control_incidents
              @ List.map (fun i -> (`Data, i)) data_incidents
            in
            let groups = Fingerprint.cluster (fun (_, i) -> Report.fingerprint i) tagged in
            let keep tag' =
              List.filter_map
                (fun ((tag, i), _, _) -> if tag = tag' then Some i else None)
                groups
            in
            ( keep `Control,
              keep `Data,
              Some
                (List.map
                   (fun ((_, i), fp, count) ->
                     { Report.cl_fingerprint = fp; cl_count = count; cl_example = i })
                   groups) ))
    | _ -> (control_incidents, data_incidents, None)
  in
  let telemetry = span tr "telemetry.snapshot" (fun () -> Telemetry.snapshot tele) in
  let coverage =
    span tr "obs.coverage" (fun () -> Coverage.of_registry tele (Stack.program data_stack))
  in
  { report =
      { Report.program_name = (Stack.program data_stack).p_name;
        control_incidents;
        data_incidents;
        fabric_incidents = [];
        control_stats = Some control_stats;
        data_stats = Some data_stats;
        fabric_stats = None;
        clusters;
        telemetry = Some telemetry;
        coverage = Some coverage };
    raw_incidents = raw;
    solver_stats;
    state_entries = State.total (Stack.server_state control_stack) }
