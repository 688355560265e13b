(* Tests for lib/triage: ddmin properties (still-fails, 1-minimality,
   determinism, probe budget, telemetry), fingerprint normalization and
   cross-seed stability, and the corpus round trip (serialize -> parse ->
   replay) against a seeded catalogue fault. *)

module Ddmin = Switchv_triage.Ddmin
module Fingerprint = Switchv_triage.Fingerprint
module Jsonp = Switchv_telemetry.Jsonp
module Repro = Switchv_triage.Repro
module Corpus = Switchv_triage.Corpus
module Telemetry = Switchv_telemetry.Telemetry
module Middleblock = Switchv_sai.Middleblock
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Packet = Switchv_packet.Packet
module Report = Switchv_core.Report
module Harness = Switchv_core.Harness
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_int_list = Alcotest.(check (list int))

(* --- ddmin ----------------------------------------------------------------- *)

(* check = "contains every element of the hidden set"; the unique 1-minimal
   failing sublist is the hidden set itself, in input order. *)
let hidden_set_check hidden xs = List.for_all (fun h -> List.mem h xs) hidden

let test_ddmin_hidden_sets () =
  let input = List.init 40 (fun i -> i) in
  List.iter
    (fun hidden ->
      let check = hidden_set_check hidden in
      let result = Ddmin.run ~max_probes:512 ~check input in
      check_int_list
        (Printf.sprintf "finds exactly the hidden set (size %d)"
           (List.length hidden))
        (List.sort compare hidden) (List.sort compare result))
    [ [ 3 ]; [ 3; 7 ]; [ 0; 39 ]; [ 5; 6; 7 ]; [ 1; 13; 21; 34 ]; [] ]

let test_ddmin_still_fails_and_subsequence () =
  let input = List.init 60 (fun i -> i) in
  let check xs = List.mem 17 xs && List.length xs >= 1 in
  let result = Ddmin.run ~max_probes:512 ~check input in
  check_bool "result still fails" true (check result);
  (* result is a subsequence of the input *)
  let rec subseq = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> if x = y then subseq (xs, ys) else subseq (x :: xs, ys)
  in
  check_bool "result is a subsequence of the input" true (subseq (result, input))

let test_ddmin_one_minimality () =
  let input = List.init 30 (fun i -> i) in
  let check xs = List.mem 4 xs && List.mem 25 xs in
  let result = Ddmin.run ~max_probes:512 ~check input in
  check_bool "result fails" true (check result);
  (* 1-minimal: removing any single element makes the failure disappear *)
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) result in
      check_bool
        (Printf.sprintf "removing element %d breaks the reproduction" i)
        false (check without))
    result

let test_ddmin_determinism () =
  let input = List.init 50 (fun i -> i * 3) in
  let check xs = List.mem 21 xs && List.mem 99 xs && List.mem 141 xs in
  let a = Ddmin.run ~max_probes:512 ~check input in
  let b = Ddmin.run ~max_probes:512 ~check input in
  check_int_list "two runs agree" a b

let test_ddmin_edge_cases () =
  let passing_check xs = List.mem 999 xs in
  check_int_list "non-failing input returned unchanged" [ 1; 2; 3 ]
    (Ddmin.run ~max_probes:512 ~check:passing_check [ 1; 2; 3 ]);
  check_int_list "empty failing input minimizes to []" []
    (Ddmin.run ~max_probes:512 ~check:(fun _ -> true) [ 1; 2; 3 ]);
  check_int_list "empty input stays empty" []
    (Ddmin.run ~max_probes:512 ~check:(fun _ -> true) [])

let test_ddmin_probe_budget () =
  let input = List.init 80 (fun i -> i) in
  let check xs = List.mem 11 xs && List.mem 66 xs in
  let result, probes = Ddmin.run_stats ~max_probes:5 ~check input in
  check_bool "probes within budget" true (probes <= 5);
  check_bool "budget-exhausted result still fails" true (check result);
  let minimal, _ = Ddmin.run_stats ~max_probes:512 ~check input in
  check_int "unbounded run reaches the minimum" 2 (List.length minimal)

let test_ddmin_telemetry () =
  let tele = Telemetry.get () in
  let before = Telemetry.counter tele "triage.ddmin_probes" in
  let _, probes =
    Ddmin.run_stats ~max_probes:512 ~check:(fun xs -> List.mem 2 xs) [ 0; 1; 2; 3; 4; 5 ]
  in
  check_int "counter advanced by the reported probe count" probes
    (Telemetry.counter tele "triage.ddmin_probes" - before)

(* --- fingerprint ----------------------------------------------------------- *)

let test_normalize () =
  let n = Fingerprint.normalize in
  check_string "decimal run volatile" "port #" (n "port 3");
  check_string "identifier-embedded digits survive" "ipv4_table" (n "ipv4_table");
  check_string "0x literal volatile" "value #" (n "value 0xdeadbeef");
  check_string "long hex with digit volatile" "mac #" (n "mac 0a00270e");
  check_string "idempotent" (n (n "goal entry:ipv4_table:7 (port 2)"))
    (n "goal entry:ipv4_table:7 (port 2)")

let test_fingerprint_prefers_context () =
  let with_table =
    Fingerprint.make ~detector:"p4-fuzzer" ~kind:"status violation"
      ~table:"ipv4_table" ~detail:"volatile 0x123 stuff" ()
  in
  check_string "context fingerprint ignores detail"
    "p4-fuzzer|status violation|t=ipv4_table" with_table;
  let a =
    Fingerprint.make ~detector:"p4-symbolic" ~kind:"behavior divergence"
      ~detail:"switch sent to port 3" ()
  in
  let b =
    Fingerprint.make ~detector:"p4-symbolic" ~kind:"behavior divergence"
      ~detail:"switch sent to port 4" ()
  in
  check_string "volatile detail differences collapse" a b

let test_cluster () =
  let xs = [ ("a", 1); ("b", 2); ("a", 3); ("c", 4); ("a", 5) ] in
  let clusters = Fingerprint.cluster fst xs in
  check_int "three clusters" 3 (List.length clusters);
  let (rep, fp, count) = List.hd clusters in
  check_string "first-seen order" "a" fp;
  check_int "first member is representative" 1 (snd rep);
  check_int "duplicates counted" 3 count

(* Same fault, different campaign seeds: the structured fingerprint of the
   seeded fault's incidents must be identical across runs. *)
let l3_fault entries =
  List.find
    (fun (f : Fault.t) ->
      match f.kind with
      | Fault.Reject_valid_insert t -> String.equal t "l3_admit_table"
      | _ -> false)
    (Catalogue.pins Middleblock.program entries)

let campaign_fingerprints seed =
  let entries = Workload.generate ~seed:3 Middleblock.program Workload.small in
  let fault = l3_fault entries in
  let stack = Stack.create ~faults:[ fault ] Middleblock.program in
  let incidents, _ =
    Control_campaign.run stack
      { Control_campaign.default_config with batches = 1; seed }
  in
  List.map Report.fingerprint incidents

let test_fingerprint_stable_across_seeds () =
  let fp = "p4-fuzzer|status violation|t=l3_admit_table" in
  let run_a = campaign_fingerprints 11 in
  let run_b = campaign_fingerprints 12 in
  check_bool "seed 11 hits the stable fingerprint" true (List.mem fp run_a);
  check_bool "seed 12 hits the stable fingerprint" true (List.mem fp run_b)

let test_duplicates_collapse () =
  let fps = campaign_fingerprints 11 in
  let clusters = Fingerprint.cluster Fun.id fps in
  check_bool "more incidents than clusters" true
    (List.length clusters < List.length fps);
  check_bool "some cluster absorbed duplicates" true
    (List.exists (fun (_, _, count) -> count >= 2) clusters)

(* --- jsonp ----------------------------------------------------------------- *)

let test_jsonp () =
  (match Jsonp.parse {|{"a":[1,2.5,-3],"b":"x\n\"y\"","c":true,"d":null}|} with
  | Error e -> Alcotest.fail e
  | Ok j ->
      check_bool "array" true
        (Option.bind (Jsonp.member "a" j) Jsonp.to_arr
        |> Option.map List.length = Some 3);
      check_bool "escapes" true
        (Option.bind (Jsonp.member "b" j) Jsonp.to_str = Some "x\n\"y\"");
      check_bool "bool" true
        (Option.bind (Jsonp.member "c" j) Jsonp.to_bool = Some true);
      check_bool "null member present" true (Jsonp.member "d" j = Some Jsonp.Null));
  check_bool "trailing garbage rejected" true
    (Result.is_error (Jsonp.parse "{} x"));
  check_bool "unterminated string rejected" true
    (Result.is_error (Jsonp.parse {|{"a":"b|}))

(* --- repro / corpus round trip --------------------------------------------- *)

let sample_entries () =
  Workload.generate ~seed:3 Middleblock.program Workload.small

let sample_control entries =
  let e =
    List.find (fun (e : Entry.t) -> String.equal e.e_table "l3_admit_table") entries
  in
  Repro.Control { cr_seed = 7; cr_prefix = []; cr_batch = [ Request.insert e ] }

let sample_data entries =
  let bytes =
    Packet.to_bytes (Packet.simple_ipv4 ~src:"192.0.2.9" ~dst:"10.0.1.7" ())
  in
  Repro.Data { dr_entries = entries; dr_port = 2; dr_bytes = bytes }

let roundtrip name repro =
  match Jsonp.parse (Repro.to_json repro) with
  | Error e -> Alcotest.fail (name ^ ": " ^ e)
  | Ok j -> (
      match Repro.of_json j with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok back -> check_bool (name ^ " round trip") true (Repro.equal repro back))

let test_repro_roundtrip () =
  let entries = sample_entries () in
  roundtrip "control" (sample_control entries);
  roundtrip "data" (sample_data entries);
  (* wire-byte helpers *)
  let bytes = "\x00\xff\x42az" in
  check_bool "hex helpers invert" true
    (Repro.bytes_of_hex (Repro.hex_of_bytes bytes) = Ok bytes)

let test_corpus_save_load_replay () =
  let entries = sample_entries () in
  let fault = l3_fault entries in
  let record =
    { Corpus.c_program = "sai_middleblock"; c_detector = "p4-fuzzer";
      c_kind = "status violation";
      c_fingerprint = "p4-fuzzer|status violation|t=l3_admit_table";
      c_faults = [ fault.Fault.id ]; c_repro = sample_control entries }
  in
  let data_record =
    { record with
      Corpus.c_detector = "p4-symbolic"; c_kind = "behavior divergence";
      c_repro = sample_data entries }
  in
  let path = Filename.temp_file "switchv_corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Corpus.save ~append:false path [ record ];
      Corpus.save path [ data_record ];
      match Corpus.load path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          check_int "append-only save accumulates" 2 (List.length loaded);
          check_bool "records survive the disk round trip" true
            (List.for_all2
               (fun (a : Corpus.record) (b : Corpus.record) ->
                 String.equal a.c_fingerprint b.c_fingerprint
                 && Repro.equal a.c_repro b.c_repro)
               [ record; data_record ] loaded);
          (* replay against the seeded catalogue fault: the archived
             incident must reproduce *)
          let faulty () = Stack.create ~faults:[ fault ] Middleblock.program in
          let o = Corpus.replay ~mk_stack:faulty (List.hd loaded) in
          check_bool "archived incident reproduces on the faulty stack" true
            o.Corpus.o_reproduced;
          (* and must not reproduce on a clean stack *)
          let clean () = Stack.create Middleblock.program in
          List.iter
            (fun r ->
              let o = Corpus.replay ~mk_stack:clean r in
              check_bool "clean stack replays clean" false o.Corpus.o_reproduced)
            loaded)

(* A data reproducer replays through the campaign's verdict site. Under
   PINS-051 WCMP groups never reach the ASIC, so a routed packet drops
   while the model admits both members of its group; a clean stack
   replays the same reproducer clean. *)
let test_data_repro_replay () =
  let program = Middleblock.program in
  let entries =
    Workload.generate ~seed:1 program (Workload.scaled 0.1 Workload.inst1)
  in
  let faults = Result.get_ok (Catalogue.resolve program entries [ "PINS-051" ]) in
  let faulty () = Stack.create ~faults program in
  let incidents, _ =
    Data_campaign.run (faulty ()) (Data_campaign.default_config entries)
  in
  let repro =
    List.find_map
      (fun (i : Report.incident) ->
        match i.repro with Some (Repro.Data _ as r) -> Some r | _ -> None)
      incidents
    |> Option.get
  in
  let o = Corpus.replay_repro (faulty ()) repro in
  let count sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length o.o_detail then acc
      else go (i + 1) (if String.sub o.o_detail i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  check_bool "reproduces on the seeded stack" true o.o_reproduced;
  check_bool "divergence detail" true
    (String.starts_with ~prefix:"behavior divergence (port " o.o_detail
    && count "switch behaved drop, model admits {forward(port=17, " = 1);
  check_int "both members admitted" 2 (count "forward(port=17, ");
  check_int "nothing else admitted" 2 (count "forward(");
  let clean = Corpus.replay_repro (Stack.create program) repro in
  check_string "clean stack replays clean" "clean" clean.o_detail

let test_corpus_rejects_corrupt_line () =
  let path = Filename.temp_file "switchv_corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"not\": \"a record\"}\n";
      close_out oc;
      check_bool "corrupt corpus fails loudly" true
        (Result.is_error (Corpus.load path)))

(* --- minimization end to end ------------------------------------------------ *)

let test_minimize_shrinks_control_repro () =
  let entries = sample_entries () in
  let fault = l3_fault entries in
  let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
  let incidents, _ =
    Control_campaign.run (mk ())
      { Control_campaign.default_config with batches = 1; seed = 11 }
  in
  let incident =
    List.find
      (fun (i : Report.incident) ->
        String.equal i.kind "status violation" && i.repro <> None)
      incidents
  in
  let repro = Option.get incident.repro in
  check_bool "raw reproducer has slack" true (Repro.size repro > 1);
  let minimized = Harness.minimize_repro mk ~max_probes:256 repro in
  check_bool "minimized is strictly smaller" true
    (Repro.size minimized < Repro.size repro);
  check_bool "minimized still reproduces" true
    (Corpus.replay_repro (mk ()) minimized).Corpus.o_reproduced;
  check_bool "minimized does not fire on a clean stack" false
    (Corpus.replay_repro (Stack.create Middleblock.program) minimized)
      .Corpus.o_reproduced

let () =
  Alcotest.run "triage"
    [ ( "ddmin",
        [ Alcotest.test_case "hidden sets" `Quick test_ddmin_hidden_sets;
          Alcotest.test_case "still fails + subsequence" `Quick
            test_ddmin_still_fails_and_subsequence;
          Alcotest.test_case "1-minimality" `Quick test_ddmin_one_minimality;
          Alcotest.test_case "determinism" `Quick test_ddmin_determinism;
          Alcotest.test_case "edge cases" `Quick test_ddmin_edge_cases;
          Alcotest.test_case "probe budget" `Quick test_ddmin_probe_budget;
          Alcotest.test_case "telemetry" `Quick test_ddmin_telemetry ] );
      ( "fingerprint",
        [ Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "context preferred" `Quick
            test_fingerprint_prefers_context;
          Alcotest.test_case "cluster" `Quick test_cluster;
          Alcotest.test_case "stable across seeds" `Quick
            test_fingerprint_stable_across_seeds;
          Alcotest.test_case "duplicates collapse" `Quick test_duplicates_collapse ] );
      ( "corpus",
        [ Alcotest.test_case "jsonp" `Quick test_jsonp;
          Alcotest.test_case "repro round trip" `Quick test_repro_roundtrip;
          Alcotest.test_case "save/load/replay" `Quick test_corpus_save_load_replay;
          Alcotest.test_case "data repro replay" `Quick test_data_repro_replay;
          Alcotest.test_case "corrupt line" `Quick test_corpus_rejects_corrupt_line ] );
      ( "minimize",
        [ Alcotest.test_case "shrinks control repro" `Quick
            test_minimize_shrinks_control_repro ] ) ]
