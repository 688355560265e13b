(* Tests for lib/telemetry: counters, histogram quantiles at bucket
   boundaries, span nesting/ordering in the JSONL trace (with an injected
   fake clock), registry reset, and the hand-rolled JSON emitter/checker. *)

module Telemetry = Switchv_telemetry.Telemetry
module Report = Switchv_core.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_float name expected actual =
  Alcotest.(check (float 1e-12)) name expected actual

(* A clock that returns 0., 1., 2., ... on successive calls. *)
let fake_clock () =
  let now = ref 0. in
  fun () ->
    let v = !now in
    now := v +. 1.;
    v

(* --- counters ------------------------------------------------------------- *)

let test_counters () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  check_int "absent counter reads 0" 0 (Telemetry.counter t "x");
  Telemetry.incr t "x";
  Telemetry.incr t "x";
  Telemetry.incr ~n:40 t "x";
  check_int "incremented" 42 (Telemetry.counter t "x");
  check_int "other counters unaffected" 0 (Telemetry.counter t "y")

let test_disabled_is_noop () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  Telemetry.set_enabled t false;
  check_bool "disabled" false (Telemetry.enabled t);
  Telemetry.incr t "x";
  Telemetry.observe t "h" 0.5;
  let r = Telemetry.with_span t "span" (fun () -> 7) in
  check_int "with_span still runs the thunk" 7 r;
  check_int "no counter recorded" 0 (Telemetry.counter t "x");
  check_bool "no histogram recorded" true (Telemetry.quantile t "h" 0.5 = None);
  check_bool "no span histogram recorded" true (Telemetry.quantile t "span" 0.5 = None);
  Telemetry.set_enabled t true;
  Telemetry.incr t "x";
  check_int "re-enabled" 1 (Telemetry.counter t "x")

(* --- histogram quantiles ---------------------------------------------------- *)

let test_quantiles_at_bucket_boundaries () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  (* 50 observations in the first bucket (upper bound 1µs), 50 in the
     second (upper bound 2.5µs). Ranks landing exactly on a cumulative
     bucket edge must return that bucket's upper bound exactly. *)
  for _ = 1 to 50 do Telemetry.observe t "h" 1e-6 done;
  for _ = 1 to 50 do Telemetry.observe t "h" 2.5e-6 done;
  let q p = Option.get (Telemetry.quantile t "h" p) in
  check_float "p50 is the first bucket's upper bound" 1e-6 (q 0.5);
  check_float "p100 is the second bucket's upper bound" 2.5e-6 (q 1.0);
  (* Rank 90 falls 80% into the second bucket: linear interpolation. *)
  check_float "p90 interpolates inside the bucket" (1e-6 +. (1.5e-6 *. 0.8)) (q 0.9)

let test_quantile_overflow_and_absent () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  check_bool "absent histogram" true (Telemetry.quantile t "h" 0.5 = None);
  (* Above the last bound (10s): overflow bucket, upper edge = max observed. *)
  Telemetry.observe t "h" 50.;
  check_float "overflow quantile is the observed max" 50.
    (Option.get (Telemetry.quantile t "h" 1.0))

(* --- spans and the JSONL trace ----------------------------------------------- *)

let collect_sink () =
  let lines = ref [] in
  let sink line = lines := line :: !lines in
  ((fun () -> List.rev !lines), sink)

let test_span_nesting_and_ordering () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  let lines, sink = collect_sink () in
  Telemetry.set_sink t (Some sink);
  check_bool "tracing when sink installed" true (Telemetry.tracing t);
  Telemetry.with_span t "outer" (fun () ->
      Telemetry.with_span t "inner" (fun () -> ()));
  let lines = lines () in
  check_int "four events (two begins, two ends)" 4 (List.length lines);
  (* The fake clock ticks once per read: begin outer at 0, begin inner at 1,
     end inner at 2 (duration 1), end outer at 3 (duration 3). *)
  check_string "begin outer"
    {|{"ev":"b","span":"outer","ts":0,"sid":1,"psid":null,"depth":0,"parent":null,"seq":0}|}
    (List.nth lines 0);
  check_string "begin inner nests under outer"
    {|{"ev":"b","span":"inner","ts":1,"sid":2,"psid":1,"depth":1,"parent":"outer","seq":1}|}
    (List.nth lines 1);
  check_string "end inner"
    {|{"ev":"e","span":"inner","ts":2,"sid":2,"dur_s":1,"depth":1,"seq":2}|}
    (List.nth lines 2);
  check_string "end outer"
    {|{"ev":"e","span":"outer","ts":3,"sid":1,"dur_s":3,"depth":0,"seq":3}|}
    (List.nth lines 3);
  List.iteri
    (fun i line ->
      match Telemetry.Json.check line with
      | Ok () -> ()
      | Error m -> Alcotest.failf "event %d is not valid JSON (%s): %s" i m line)
    lines;
  (* Spans feed the histogram of the same name even while tracing. *)
  let snap = Telemetry.snapshot t in
  let outer = List.assoc "outer" snap.snap_histograms in
  check_int "outer span observed once" 1 outer.Telemetry.hs_count;
  check_float "outer span duration recorded" 3. outer.Telemetry.hs_max

let test_span_attrs_and_events () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  let lines, sink = collect_sink () in
  Telemetry.set_sink t (Some sink);
  Telemetry.with_span ~attrs:[ ("goal", "entry:t1:a") ] t "solve" (fun () ->
      Telemetry.event ~attrs:[ ("n", "3") ] t "restart");
  (match lines () with
  | [ b; i; _e ] ->
      check_string "begin event carries attrs"
        {|{"ev":"b","span":"solve","ts":0,"sid":1,"psid":null,"depth":0,"parent":null,"seq":0,"attrs":{"goal":"entry:t1:a"}}|}
        b;
      check_string "instant event inside the span"
        {|{"ev":"i","span":"restart","ts":1,"sid":2,"psid":1,"depth":1,"parent":"solve","seq":1,"attrs":{"n":"3"}}|}
        i
  | other -> Alcotest.failf "expected 3 events, got %d" (List.length other))

let test_span_exception_safety () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  let lines, sink = collect_sink () in
  Telemetry.set_sink t (Some sink);
  (try Telemetry.with_span t "boom" (fun () -> failwith "kaboom") with
  | Failure _ -> ());
  (match lines () with
  | [ _b; e ] ->
      check_bool "end event emitted on raise" true
        (String.length e > 10 && String.sub e 0 10 = {|{"ev":"e",|})
  | other -> Alcotest.failf "expected 2 events, got %d" (List.length other));
  (* The stack unwound: a new top-level span is back at depth 0. *)
  Telemetry.with_span t "after" (fun () -> ());
  let last_begin = List.nth (lines ()) 2 in
  check_bool "stack unwound after exception" true
    (String.length last_begin > 0
    && Telemetry.Json.check last_begin = Ok ()
    &&
    let contains sub =
      let ls = String.length sub and lm = String.length last_begin in
      let rec go i = i + ls <= lm && (String.sub last_begin i ls = sub || go (i + 1)) in
      go 0
    in
    contains {|"depth":0|} && contains {|"parent":null|})

let test_registry_injection_and_reset () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  let seen = Telemetry.with_registry t (fun () -> Telemetry.get () == t) in
  check_bool "with_registry installs the registry" true seen;
  check_bool "previous registry restored" true (Telemetry.get () == Telemetry.default);
  Telemetry.incr t "c";
  Telemetry.observe t "h" 1e-6;
  let _, sink = collect_sink () in
  Telemetry.set_sink t (Some sink);
  Telemetry.reset t;
  check_int "reset drops counters" 0 (Telemetry.counter t "c");
  check_bool "reset drops histograms" true (Telemetry.quantile t "h" 0.5 = None);
  check_bool "reset keeps the sink" true (Telemetry.tracing t);
  let snap = Telemetry.snapshot t in
  check_bool "snapshot empty after reset" true
    (snap.Telemetry.snap_counters = [] && snap.Telemetry.snap_histograms = [])

(* --- JSON ---------------------------------------------------------------------- *)

let test_json_check () =
  let ok s = check_bool ("valid: " ^ s) true (Telemetry.Json.check s = Ok ()) in
  let bad s =
    check_bool ("invalid: " ^ s) true
      (match Telemetry.Json.check s with Error _ -> true | Ok () -> false)
  in
  ok {|{}|};
  ok {|[]|};
  ok {|{"a":1,"b":[true,false,null],"c":{"d":"e\n"},"f":-1.5e-3}|};
  ok {|"plain string"|};
  ok "  42  ";
  bad "{";
  bad "1 2";
  bad {|{"a":}|};
  bad {|{"a":1,}|};
  bad {|[1,2|};
  bad {|"unterminated|};
  bad "01e";
  bad "";
  ok {|"\uD83D\uDE00"|};
  ok "[0,-0.5e+3,1E2]";
  bad {|"\uZZZZ"|};
  bad {|"\u_1_2"|};
  bad {|"\uD800\u0041"|};
  bad "1.";
  bad "01";
  bad "[1.]"

let test_json_emitter () =
  check_string "string escaping" {|"a\"b\\c\nd"|} (Telemetry.Json.str "a\"b\\c\nd");
  check_string "nan renders as null" "null" (Telemetry.Json.num Float.nan);
  check_string "infinity renders as null" "null" (Telemetry.Json.num Float.infinity);
  List.iter
    (fun v ->
      let s = Telemetry.Json.num v in
      check_bool (Printf.sprintf "num %g is valid JSON (%s)" v s) true
        (Telemetry.Json.check s = Ok ()))
    [ 0.; 1.; -1.; 1e-6; 2.5e-6; 1e9; 0.1; 3.14159265358979 ];
  let doc =
    Telemetry.Json.obj
      [ ("a", Telemetry.Json.int 1);
        ("b", Telemetry.Json.arr [ Telemetry.Json.bool true; Telemetry.Json.str "x" ]) ]
  in
  check_string "object assembly" {|{"a":1,"b":[true,"x"]}|} doc

let test_snapshot_json () =
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  Telemetry.incr ~n:3 t "smt.checks";
  Telemetry.with_span t "smt.check" (fun () -> ());
  let json = Telemetry.snapshot_to_json (Telemetry.snapshot t) in
  check_bool "snapshot JSON is well-formed" true (Telemetry.Json.check json = Ok ())

(* Round-trip smoke for Report.to_json: every shape of report must emit a
   document the checker accepts. *)
let test_report_to_json () =
  let empty = Report.empty "smoke" in
  check_bool "empty report JSON well-formed" true
    (Telemetry.Json.check (Report.to_json empty) = Ok ());
  let t = Telemetry.create ~clock:(fake_clock ()) () in
  Telemetry.incr t "oracle.incidents.status_violation";
  Telemetry.with_span t "campaign.testing" (fun () -> ());
  let full =
    { Report.program_name = "smoke \"quoted\"";
      control_incidents =
        [ Report.incident Report.Fuzzer ~kind:"status violation"
            ~detail:"newline\nand \"quotes\"" ];
      data_incidents =
        [ Report.incident Report.Symbolic ~kind:"behavior divergence" ~detail:"d" ];
      fabric_incidents =
        [ Report.incident
            ~context:(Report.context ~goal:"fabric:std:0->2" ~hop:"sw1" ())
            Report.Fabric ~kind:"fabric behavior divergence" ~detail:"f" ];
      control_stats =
        Some
          { Report.cs_batches = 2; cs_updates = 10; cs_valid_updates = 7;
            cs_invalid_updates = 3; cs_novel_edges = 4; cs_corpus_seeds = 2;
            cs_duration = 0.25 };
      data_stats =
        Some
          { Report.ds_entries_installed = 5; ds_goals = 9; ds_covered = 8;
            ds_uncoverable = 1; ds_tainted_goals = 0; ds_packets_tested = 8;
            ds_generation_time = 1.5;
            ds_testing_time = 0.5; ds_cache_hits = 0; ds_cache_misses = 9 };
      fabric_stats =
        Some
          { Report.fs_shape = "line"; fs_switches = 3; fs_links = 2;
            fs_flows = 48; fs_delivered = 33; fs_dropped = 15; fs_hops = 87;
            fs_localized = 1; fs_duration = 0.02;
            fs_switch_coverage = [ (0, 26, 54); (1, 26, 54); (2, 26, 54) ] };
      clusters =
        Some
          [ { Report.cl_fingerprint = "p4-fuzzer|status violation|d=x";
              cl_count = 3;
              cl_example =
                Report.incident Report.Fuzzer ~kind:"status violation" ~detail:"x" } ];
      telemetry = Some (Telemetry.snapshot t);
      coverage =
        Some
          { Switchv_obs.Coverage.entries =
              [ ("cov.branch.1.then", 2); ("cov.branch.1.else", 0) ];
            covered = 1; total = 2 } }
  in
  check_bool "full report JSON well-formed" true
    (Telemetry.Json.check (Report.to_json full) = Ok ())

let () =
  Alcotest.run "telemetry"
    [ ( "counters",
        [ Alcotest.test_case "incr and read" `Quick test_counters;
          Alcotest.test_case "disabled registry" `Quick test_disabled_is_noop ] );
      ( "histograms",
        [ Alcotest.test_case "bucket-boundary quantiles" `Quick
            test_quantiles_at_bucket_boundaries;
          Alcotest.test_case "overflow and absent" `Quick
            test_quantile_overflow_and_absent ] );
      ( "spans",
        [ Alcotest.test_case "nesting and ordering" `Quick
            test_span_nesting_and_ordering;
          Alcotest.test_case "attrs and instant events" `Quick
            test_span_attrs_and_events;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety ] );
      ( "registry",
        [ Alcotest.test_case "injection and reset" `Quick
            test_registry_injection_and_reset ] );
      ( "json",
        [ Alcotest.test_case "checker" `Quick test_json_check;
          Alcotest.test_case "emitter" `Quick test_json_emitter;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
          Alcotest.test_case "report to_json" `Quick test_report_to_json ] ) ]
