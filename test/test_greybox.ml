(* Tests for the coverage-guided greybox feedback loop: novelty-map
   folding + corpus admission, the energy-weighted power schedule, probe
   determinism, campaign-level determinism (repeat runs, jobs=1 vs
   jobs=4), the blind-mode off-switch, the control-side-only footprint,
   and concretely-covered goal skipping in the data campaign. *)

module Telemetry = Switchv_telemetry.Telemetry
module Coverage = Switchv_obs.Coverage
module Greybox = Switchv_fuzzer.Greybox
module P4info = Switchv_p4ir.P4info
module Middleblock = Switchv_sai.Middleblock
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Report = Switchv_core.Report
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign
module Harness = Switchv_core.Harness

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string_list = Alcotest.(check (list string))

let entries = Workload.generate ~seed:3 Middleblock.program Workload.small

let fault_where pred =
  List.find (fun (f : Fault.t) -> pred f.Fault.kind)
    (Catalogue.pins Middleblock.program entries)

let incident_json incidents = List.map Report.incident_ipc_to_json incidents

let greybox_counters counters =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"fuzzer.greybox." name)
    counters

(* --- unit: novelty + corpus --------------------------------------------------- *)

let test_observe_folds_delta () =
  (* Campaigns run shards under [with_registry]; mirror that here so the
     corpus-admission counter (bumped via the ambient registry, like the
     scheduler counters) lands in the same place as the delta counters. *)
  let tele = Telemetry.create () in
  Telemetry.with_registry tele @@ fun () ->
  let gb = Greybox.create ~program:Middleblock.program ~seed:42 () in
  let keys = Coverage.edge_keys Middleblock.program in
  let k0 = List.nth keys 0 and k1 = List.nth keys 1 in
  check_int "fresh state covers nothing" 0 (Greybox.novel_edges gb);
  check_bool "edge not covered yet" false (Greybox.covered gb k0);
  let before = Greybox.snapshot gb tele in
  Telemetry.incr tele k0;
  Telemetry.incr tele k1 ~n:3;
  let novel =
    Greybox.observe gb tele ~before ~tables:[]
      ~seed:(Greybox.Packet (1, "probe-bytes")) ()
  in
  check_int "two edges newly reached" 2 novel;
  check_int "novelty map grew" 2 (Greybox.novel_edges gb);
  check_bool "edge now covered" true (Greybox.covered gb k0);
  check_int "novel input admitted" 1 (Greybox.corpus_size gb);
  (* Re-observing the same counters is a no-op: no delta, no novelty. *)
  let before = Greybox.snapshot gb tele in
  let again =
    Greybox.observe gb tele ~before ~tables:[]
      ~seed:(Greybox.Packet (1, "probe-bytes")) ()
  in
  check_int "no delta, no novelty" 0 again;
  check_int "corpus unchanged" 1 (Greybox.corpus_size gb);
  (* A repeat execution of an already-covered edge is not novel either. *)
  let before = Greybox.snapshot gb tele in
  Telemetry.incr tele k0;
  check_int "re-covered edge not novel" 0
    (Greybox.observe gb tele ~before ~tables:[] ());
  (* Telemetry mirrors the feedback state. *)
  check_int "novel_edges counter" 2
    (Telemetry.counter tele "fuzzer.greybox.novel_edges");
  check_int "corpus_admitted counter" 1
    (Telemetry.counter tele "fuzzer.greybox.corpus_admitted")

let test_power_schedule_favors_energized () =
  let tele = Telemetry.create () in
  Telemetry.with_registry tele @@ fun () ->
  let gb = Greybox.create ~program:Middleblock.program ~seed:7 () in
  let tables = Middleblock.info.P4info.pi_tables in
  let hot = (List.hd tables).P4info.ti_name in
  let keys = Coverage.edge_keys Middleblock.program in
  (* Credit the hot table with ~20 units of energy via novel observations. *)
  List.iteri
    (fun i k ->
      if i < 20 then begin
        let before = Greybox.snapshot gb tele in
        Telemetry.incr tele k;
        ignore (Greybox.observe gb tele ~before ~tables:[ hot ] ())
      end)
    keys;
  check_bool "energy was assigned" true
    (Telemetry.counter tele "fuzzer.greybox.energy_assigned" >= 20);
  let picks = List.init 200 (fun _ -> Greybox.pick_table gb tables) in
  let hot_picks =
    List.length (List.filter (fun (t : P4info.table) -> t.ti_name = hot) picks)
  in
  (* Weight 21 against 1 per cold table — the hot table must dominate far
     beyond its uniform share. *)
  check_bool
    (Printf.sprintf "energized table dominates (picked %d/200)" hot_picks)
    true
    (hot_picks > 100);
  check_bool "weighted picks counted" true
    (Telemetry.counter tele "fuzzer.greybox.weighted_picks" > 0)

let test_probe_stream_deterministic () =
  let stream seed =
    let gb = Greybox.create ~program:Middleblock.program ~seed () in
    List.init 20 (fun _ -> Greybox.probe_packet gb)
  in
  check_bool "same seed, same probes" true (stream 5 = stream 5);
  check_bool "different seeds differ" true (stream 5 <> stream 6)

(* --- campaign determinism ------------------------------------------------------ *)

let control_config =
  { Control_campaign.default_config with batches = 6; seed = 11; shards = 4 }

let test_control_repeat_deterministic () =
  (* With greybox on, a repeated in-process run must reproduce itself
     exactly: feedback state is shard-local and starts empty, never read
     from the ambient registry. *)
  let fault =
    fault_where (function Fault.Reject_valid_insert _ -> true | _ -> false)
  in
  let run () =
    let tele = Telemetry.create () in
    Telemetry.with_registry tele (fun () ->
        let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
        let i, s = Control_campaign.run_sharded ~jobs:1 mk control_config in
        (i, s, Telemetry.counter tele "fuzzer.greybox.probes"))
  in
  let i1, s1, p1 = run () in
  let i2, s2, p2 = run () in
  check_bool "found something to compare" true (i1 <> []);
  check_string_list "incidents identical" (incident_json i1) (incident_json i2);
  check_int "novel edges identical" s1.Report.cs_novel_edges s2.Report.cs_novel_edges;
  check_int "corpus seeds identical" s1.Report.cs_corpus_seeds s2.Report.cs_corpus_seeds;
  check_int "probe count identical" p1 p2;
  check_bool "feedback actually engaged" true
    (s1.Report.cs_novel_edges > 0 && s1.Report.cs_corpus_seeds > 0 && p1 > 0)

let test_control_jobs_identical_with_greybox () =
  let fault =
    fault_where (function Fault.Reject_valid_insert _ -> true | _ -> false)
  in
  let run jobs =
    let tele = Telemetry.create () in
    Telemetry.with_registry tele (fun () ->
        let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
        Control_campaign.run_sharded ~jobs mk control_config)
  in
  let i1, s1 = run 1 in
  let i4, s4 = run 4 in
  check_string_list "jobs=4 incidents identical" (incident_json i1) (incident_json i4);
  check_int "novel edges identical" s1.Report.cs_novel_edges s4.Report.cs_novel_edges;
  check_int "corpus seeds identical" s1.Report.cs_corpus_seeds s4.Report.cs_corpus_seeds;
  check_int "updates identical" s1.Report.cs_updates s4.Report.cs_updates

let test_data_repeat_deterministic_with_greybox () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let config =
    { (Data_campaign.default_config entries) with
      shards = 2; test_packet_io = false }
  in
  let run () =
    let tele = Telemetry.create () in
    Telemetry.with_registry tele (fun () ->
        let stack = Stack.create ~faults:[ fault ] Middleblock.program in
        Data_campaign.run stack config)
  in
  let i1, s1 = run () in
  let i2, s2 = run () in
  check_bool "found something to compare" true (i1 <> []);
  check_string_list "incidents identical" (incident_json i1) (incident_json i2);
  check_int "packets identical" s1.Report.ds_packets_tested s2.Report.ds_packets_tested

(* --- blind mode ---------------------------------------------------------------- *)

let test_blind_mode_runs_no_feedback () =
  (* [greybox = false] must leave zero greybox footprint: no probes, no
     packets injected by the control campaign at all, and no
     [fuzzer.greybox.*] counters in the registry. *)
  let tele = Telemetry.create () in
  let covered =
    Telemetry.with_registry tele (fun () ->
        let stack = Stack.create Middleblock.program in
        ignore
          (Control_campaign.run stack
             { control_config with shards = 1; greybox = false });
        (Coverage.of_registry tele Middleblock.program).Coverage.covered)
  in
  check_int "blind control campaign touches no edges" 0 covered;
  check_int "no probes" 0 (Telemetry.counter tele "fuzzer.greybox.probes");
  check_int "no packets injected" 0
    (Telemetry.counter tele "switch.packets_injected");
  List.iter
    (fun (name, _) -> Alcotest.failf "blind mode created greybox counter %s" name)
    (greybox_counters (Telemetry.snapshot tele).Telemetry.snap_counters)

let test_guided_out_covers_blind_control () =
  (* The feedback loop's probes drive concrete edge coverage during the
     control phase, where the blind campaign observes nothing at all; the
     corpus and the power schedule both engage on this seed. (The
     probe-budget-matched comparison against a feedback-free baseline is
     the greybox bench's gate.) *)
  let tele = Telemetry.create () in
  let covered =
    Telemetry.with_registry tele (fun () ->
        let stack = Stack.create Middleblock.program in
        ignore (Control_campaign.run stack { control_config with shards = 1 });
        (Coverage.of_registry tele Middleblock.program).Coverage.covered)
  in
  check_bool "guided control campaign covers edges" true (covered > 0);
  check_bool "corpus-seeded mutation bases drawn" true
    (Telemetry.counter tele "fuzzer.greybox.seeded_bases" > 0);
  check_bool "power schedule engaged" true
    (Telemetry.counter tele "fuzzer.greybox.weighted_picks" > 0)

(* --- footprint ------------------------------------------------------------------- *)

let test_data_campaign_keeps_no_feedback () =
  (* The feedback is built and spent on the control side: a data campaign
     drives coverage but keeps no greybox state, so it leaves no
     [fuzzer.greybox.*] counter behind. *)
  let tele = Telemetry.create () in
  Telemetry.with_registry tele (fun () ->
      let stack = Stack.create Middleblock.program in
      ignore (Data_campaign.run stack (Data_campaign.default_config entries)));
  let counters = (Telemetry.snapshot tele).Telemetry.snap_counters in
  check_bool "coverage counters bumped" true
    (List.exists
       (fun (name, n) -> String.starts_with ~prefix:"cov." name && n > 0)
       counters);
  List.iter
    (fun (name, _) -> Alcotest.failf "data campaign created greybox counter %s" name)
    (greybox_counters counters)

let test_report_counter_matches_control_stats () =
  (* Only the control campaign finds novel edges, so the report's counter
     and its control statistics tell the same story. *)
  let report =
    Telemetry.with_registry (Telemetry.create ()) (fun () ->
        Harness.validate
          (fun () -> Stack.create Middleblock.program)
          { (Harness.default_config entries) with
            control = { control_config with shards = 2 } })
  in
  let counter =
    List.assoc_opt "fuzzer.greybox.novel_edges"
      (Option.get report.Report.telemetry).Telemetry.snap_counters
  in
  let stats = Option.get report.Report.control_stats in
  check_bool "control campaign found novel edges" true (stats.Report.cs_novel_edges > 0);
  check_int "fuzzer.greybox.novel_edges = cs_novel_edges" stats.Report.cs_novel_edges
    (Option.value ~default:0 counter)

(* --- concretely-covered goal skipping ------------------------------------------- *)

let test_covered_edges_skip_branch_goals () =
  let base_config =
    { (Data_campaign.default_config entries) with test_packet_io = false }
  in
  let run config =
    let tele = Telemetry.create () in
    Telemetry.with_registry tele (fun () ->
        let stack = Stack.create Middleblock.program in
        let _, s = Data_campaign.run stack config in
        (s, Telemetry.counter tele "analysis.concretely_covered_skipped"))
  in
  let s0, skipped0 = run base_config in
  check_int "nothing skipped without covered edges" 0 skipped0;
  let branch_keys =
    List.filter
      (fun k -> String.length k >= 11 && String.sub k 0 11 = "cov.branch.")
      (Coverage.edge_keys Middleblock.program)
  in
  let s1, skipped1 = run { base_config with covered_edges = branch_keys } in
  check_bool "branch goals skipped" true (skipped1 > 0);
  check_bool "goal list shrank" true (s1.Report.ds_goals < s0.Report.ds_goals);
  (* Action-edge goals are untouched: entries still get tested. *)
  check_bool "packets still tested" true (s1.Report.ds_packets_tested > 0)

let () =
  Alcotest.run "greybox"
    [ ( "feedback",
        [ Alcotest.test_case "observe folds delta" `Quick test_observe_folds_delta;
          Alcotest.test_case "power schedule favors energy" `Quick
            test_power_schedule_favors_energized;
          Alcotest.test_case "probe stream deterministic" `Quick
            test_probe_stream_deterministic ] );
      ( "determinism",
        [ Alcotest.test_case "control repeat run identical" `Quick
            test_control_repeat_deterministic;
          Alcotest.test_case "control jobs=1 vs jobs=4 identical" `Quick
            test_control_jobs_identical_with_greybox;
          Alcotest.test_case "data repeat run identical" `Quick
            test_data_repeat_deterministic_with_greybox ] );
      ( "blind",
        [ Alcotest.test_case "no feedback footprint" `Quick
            test_blind_mode_runs_no_feedback;
          Alcotest.test_case "guided out-covers blind control" `Quick
            test_guided_out_covers_blind_control ] );
      ( "footprint",
        [ Alcotest.test_case "data campaign keeps no feedback" `Quick
            test_data_campaign_keeps_no_feedback;
          Alcotest.test_case "report counter matches control stats" `Quick
            test_report_counter_matches_control_stats ] );
      ( "goal skipping",
        [ Alcotest.test_case "covered branch goals skipped" `Quick
            test_covered_edges_skip_branch_goals ] ) ]
