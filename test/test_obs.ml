(* Tests for lib/obs: coverage accounting against the interpreter's edge
   counters, Prometheus rendering + linting, metric-documentation hygiene,
   trace-file atomicity, cross-fork trace stitching + the Chrome
   converter, the HTTP exposition endpoint, and the progress line. *)

module Telemetry = Switchv_telemetry.Telemetry
module Jsonp = Switchv_telemetry.Jsonp
module Coverage = Switchv_obs.Coverage
module Prom = Switchv_obs.Prom
module Docs = Switchv_obs.Docs
module Trace = Switchv_obs.Trace
module Serve = Switchv_obs.Serve
module Progress = Switchv_obs.Progress
module Pool = Switchv_parallel.Pool
module Middleblock = Switchv_sai.Middleblock
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Data_campaign = Switchv_core.Data_campaign
module Control_campaign = Switchv_core.Control_campaign

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let entries = Workload.generate ~seed:3 Middleblock.program Workload.small

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "swv_obs_%d_%s" (Unix.getpid ()) name)

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- coverage --------------------------------------------------------------- *)

let test_edge_keys_shape () =
  let keys = Coverage.edge_keys Middleblock.program in
  check_bool "edge space is non-empty" true (keys <> []);
  check_bool "sorted and deduplicated" true
    (List.sort_uniq String.compare keys = keys);
  List.iter
    (fun k ->
      check_bool ("coverage key namespace: " ^ k) true
        (has_prefix ~prefix:"cov.branch." k || has_prefix ~prefix:"cov.action." k))
    keys;
  (* A fresh registry covers nothing but still enumerates every edge. *)
  let cov = Coverage.of_registry (Telemetry.create ()) Middleblock.program in
  check_int "nothing covered" 0 cov.Coverage.covered;
  check_int "total = edge space" (List.length keys) cov.Coverage.total

let test_edge_keys_memoized () =
  (* The greybox loop snapshots the key list around every injection;
     repeated calls on the same program value must not rebuild the CFG. *)
  let a = Coverage.edge_keys Middleblock.program in
  let b = Coverage.edge_keys Middleblock.program in
  check_bool "same program value returns the cached list" true (a == b);
  (* A structurally-equal-but-distinct program value recomputes — and the
     recomputation must agree exactly with the cached result. *)
  let copy =
    { Middleblock.program with
      Switchv_p4ir.Ast.p_name = Middleblock.program.Switchv_p4ir.Ast.p_name }
  in
  let c = Coverage.edge_keys copy in
  check_bool "distinct value recomputes" true (not (c == a));
  check_bool "recomputation identical" true (c = a);
  (* The copy is now cached too. *)
  check_bool "copy cached on second call" true (Coverage.edge_keys copy == c)

let test_coverage_write_pid_unique_tmp () =
  (* Regression: the temp file used to be the fixed [path ^ ".tmp"], so
     two processes writing the same --coverage-out could clobber each
     other's half-written temp. The pid-suffixed temp must leave a
     stranger's ".tmp" sibling untouched. *)
  let path = tmp_path "cov_pid.txt" in
  let stale = path ^ ".tmp" in
  let oc = open_out stale in
  output_string oc "sentinel-from-another-process";
  close_out oc;
  let cov = Coverage.of_registry (Telemetry.create ()) Middleblock.program in
  Coverage.write_file cov path;
  check_bool "output published" true (Sys.file_exists path);
  check_string "foreign .tmp sibling untouched" "sentinel-from-another-process"
    (read_all stale);
  check_bool "pid temp cleaned up" false
    (Sys.file_exists (Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())));
  Sys.remove stale;
  Sys.remove path

let campaign_registry =
  (* One campaign run, shared by the coverage and hygiene tests. *)
  lazy
    (let tele = Telemetry.create () in
     Telemetry.with_registry tele (fun () ->
         let stack = Stack.create Middleblock.program in
         let config =
           { (Data_campaign.default_config entries) with test_packet_io = false }
         in
         ignore (Data_campaign.run stack config));
     tele)

let test_interp_counters_within_edge_space () =
  let tele = Lazy.force campaign_registry in
  let keys = Coverage.edge_keys Middleblock.program in
  let snap = Telemetry.snapshot tele in
  List.iter
    (fun (name, _) ->
      if has_prefix ~prefix:"cov." name then
        check_bool ("interpreter key in edge space: " ^ name) true
          (List.mem name keys))
    snap.Telemetry.snap_counters;
  let cov = Coverage.of_registry tele Middleblock.program in
  check_bool "campaign covered some edges" true (cov.Coverage.covered > 0);
  check_bool "covered within total" true (cov.Coverage.covered <= cov.Coverage.total);
  let pct = Coverage.percent cov in
  check_bool "percent in range" true (pct > 0. && pct <= 100.)

let test_coverage_text_and_json () =
  let tele = Lazy.force campaign_registry in
  let cov = Coverage.of_registry tele Middleblock.program in
  let text = Coverage.to_string cov in
  check_bool "header line" true (has_prefix ~prefix:"# switchv coverage map v1\n" text);
  check_bool "trailing newline" true (text.[String.length text - 1] = '\n');
  (* Rendering is a pure function of the registry. *)
  check_string "stable rendering"
    text
    (Coverage.to_string (Coverage.of_registry tele Middleblock.program));
  check_bool "JSON well-formed" true
    (Telemetry.Json.check (Coverage.to_json cov) = Ok ());
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "swv_cov_%d.txt" (Unix.getpid ()))
  in
  Coverage.write_file cov tmp;
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  check_string "file round-trips" text body

(* --- documentation hygiene --------------------------------------------------- *)

let test_campaign_metrics_documented () =
  let tele = Lazy.force campaign_registry in
  match Docs.undocumented (Telemetry.snapshot tele) with
  | [] -> ()
  | names ->
      Alcotest.failf
        "undocumented metrics (add to Docs.catalog): %s"
        (String.concat ", " names)

(* --- Prometheus exposition --------------------------------------------------- *)

let test_metric_name_mapping () =
  check_string "dots become underscores" "switchv_smt_checks"
    (Prom.metric_name "smt.checks");
  check_string "hostile characters sanitized" "switchv_cov_branch_3_then"
    (Prom.metric_name "cov.branch.3.then")

let test_render_and_lint () =
  let tele = Lazy.force campaign_registry in
  let gauges =
    [ { Prom.g_name = "switchv_edges_covered"; g_help = "Edges covered."; g_value = 3. };
      { Prom.g_name = "switchv_edges_total"; g_help = "Edge space size."; g_value = 9. } ]
  in
  let text = Prom.render ~gauges tele in
  check_bool "gauges rendered" true (contains ~needle:"switchv_edges_covered 3" text);
  check_bool "help rendered" true (contains ~needle:"# HELP" text);
  check_bool "histogram buckets rendered" true (contains ~needle:"_bucket{le=\"" text);
  check_bool "+Inf bucket rendered" true (contains ~needle:"le=\"+Inf\"" text);
  (match Prom.lint text with
  | [] -> ()
  | errs -> Alcotest.failf "lint errors: %s" (String.concat " | " errs));
  (* The linter is not a rubber stamp. *)
  check_bool "lint catches missing TYPE" true
    (Prom.lint "switchv_x 1\n" <> []);
  check_bool "lint catches bad name" true
    (Prom.lint "# TYPE 9bad counter\n9bad 1\n" <> []);
  check_bool "lint catches missing trailing newline" true
    (Prom.lint "# TYPE switchv_x counter\nswitchv_x 1" <> [])

let test_undocumented_render_marker () =
  let tele = Telemetry.create () in
  Telemetry.incr tele "made.up.metric";
  let text = Prom.render tele in
  check_bool "undocumented metric flagged in HELP" true
    (contains ~needle:"(undocumented)" text)

(* --- trace file plumbing ------------------------------------------------------ *)

let test_truncate_to_last_newline () =
  let path = tmp_path "torn.jsonl" in
  let oc = open_out_bin path in
  output_string oc "{\"a\":1}\n{\"b\":2}\n{\"tor";
  close_out oc;
  Trace.truncate_to_last_newline path;
  check_string "torn tail dropped" "{\"a\":1}\n{\"b\":2}\n" (read_all path);
  (* Idempotent on a clean file; total on a missing one. *)
  Trace.truncate_to_last_newline path;
  check_string "clean file untouched" "{\"a\":1}\n{\"b\":2}\n" (read_all path);
  Sys.remove path;
  Trace.truncate_to_last_newline path

let test_file_sink_atomic () =
  let path = tmp_path "trace.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (* A stale fixed-name ".tmp" left by another process must survive: the
     sink writes to a pid-suffixed temp, not [path ^ ".tmp"]. *)
  let stale = path ^ ".tmp" in
  let oc = open_out stale in
  output_string oc "foreign";
  close_out oc;
  let tele = Telemetry.create () in
  (* Normal completion publishes the file and removes the temp. *)
  Trace.with_file_sink tele path (fun () ->
      Telemetry.with_span tele "outer" (fun () ->
          Telemetry.event tele "tick"));
  check_bool "trace file published" true (Sys.file_exists path);
  check_bool "pid temp removed" false
    (Sys.file_exists (Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())));
  check_string "foreign .tmp sibling untouched" "foreign" (read_all stale);
  Sys.remove stale;
  let events, skipped = Trace.read_file path in
  check_int "no unparseable lines" 0 skipped;
  check_int "begin + instant + end" 3 (List.length events);
  Sys.remove path;
  (* An exception mid-campaign (Sys.Break included) still publishes. *)
  (try
     Trace.with_file_sink tele path (fun () ->
         Telemetry.with_span tele "outer" (fun () -> ());
         raise Sys.Break)
   with Sys.Break -> ());
  check_bool "published on exception" true (Sys.file_exists path);
  let _, skipped = Trace.read_file path in
  check_int "no torn line after exception" 0 skipped;
  Sys.remove path

(* --- cross-fork stitching ------------------------------------------------------ *)

let test_pool_trace_stitches () =
  let tele = Telemetry.create () in
  let buf = Buffer.create 4096 in
  Telemetry.set_sink tele (Some (fun line -> Buffer.add_string buf (line ^ "\n")));
  let results =
    Telemetry.with_registry tele (fun () ->
        Pool.map ~jobs:2 ~shards:4 ~encode:Fun.id ~decode:Result.ok (fun s ->
            Telemetry.with_span (Telemetry.get ()) "work"
              ~attrs:[ ("shard", string_of_int s) ]
              (fun () -> ());
            Printf.sprintf "ok-%d" s))
  in
  Telemetry.set_sink tele None;
  check_int "no failures" 0 (Telemetry.counter tele "parallel.workers_failed");
  check_int "every shard delivered" 4 (List.length results);
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let events = List.filter_map Trace.parse_line lines in
  check_bool "events captured" true (events <> []);
  let st = Trace.stitch events in
  check_int "one causal root (parallel.pool)" 1 st.Trace.st_roots;
  check_int "no orphan spans" 0 st.Trace.st_orphans;
  check_int "parent block + one per worker" 3 st.Trace.st_blocks;
  (* Every worker span must hang (transitively) under the campaign root. *)
  let begins =
    List.filter_map
      (fun (e : Trace.event) ->
        match (e.e_ev, e.e_sid) with
        | "b", Some sid -> Some (sid, e.e_psid)
        | _ -> None)
      events
  in
  let root_sid =
    match
      List.filter_map
        (fun (sid, psid) -> if psid = None then Some sid else None)
        begins
    with
    | [ sid ] -> sid
    | other -> Alcotest.failf "expected 1 root, found %d" (List.length other)
  in
  check_int "root lives in the parent block" 0 (Telemetry.sid_block root_sid);
  let rec reaches_root sid =
    sid = root_sid
    || match List.assoc_opt sid begins with
       | Some (Some psid) -> reaches_root psid
       | _ -> false
  in
  List.iter
    (fun (sid, _) ->
      if Telemetry.sid_block sid > 0 then
        check_bool
          (Printf.sprintf "worker span %d parented under root" sid)
          true (reaches_root sid))
    begins;
  (* Chrome conversion: valid JSON, one thread lane per block. *)
  let chrome = Trace.to_chrome events in
  check_bool "chrome JSON well-formed" true (Telemetry.Json.check chrome = Ok ());
  check_bool "worker lane present" true (contains ~needle:"\"tid\":1" chrome);
  check_bool "parent lane present" true (contains ~needle:"\"tid\":0" chrome)

(* The control loop's batch-level boundaries are library spans, so a
   campaign's own trace shows where its control phase went; every metric
   the campaign records is documented. *)
let test_control_campaign_spans () =
  let tele = Telemetry.create () in
  let buf = Buffer.create 4096 in
  Telemetry.set_sink tele (Some (fun line -> Buffer.add_string buf (line ^ "\n")));
  Telemetry.with_registry tele (fun () ->
      ignore
        (Control_campaign.run (Stack.create Middleblock.program)
           { Control_campaign.default_config with batches = 3 }));
  Telemetry.set_sink tele None;
  let events = List.filter_map Trace.parse_line (String.split_on_char '\n' (Buffer.contents buf)) in
  List.iter
    (fun name ->
      check_bool (name ^ " traced") true
        (List.exists
           (fun (e : Trace.event) -> e.e_ev = "b" && String.equal e.e_span name)
           events))
    [ "fuzzer.sweep"; "fuzzer.next_batch"; "switch.read"; "oracle.judge_batch" ];
  Alcotest.(check (list string)) "documented" [] (Docs.undocumented (Telemetry.snapshot tele))

(* --- HTTP exposition ----------------------------------------------------------- *)

let test_serve_and_fetch () =
  let tele = Lazy.force campaign_registry in
  let srv =
    Serve.start ~port:0
      [ ("/metrics", fun () -> ("text/plain; version=0.0.4", Prom.render tele));
        ("/healthz", fun () -> ("text/plain", "ok\n"));
        ("/boom", fun () -> failwith "handler crash") ]
  in
  let port = Serve.port srv in
  check_bool "ephemeral port bound" true (port > 0);
  (match Serve.fetch ~port "/metrics" with
  | Ok body ->
      check_bool "live metrics parse clean" true (Prom.lint body = []);
      check_bool "campaign counters exposed" true
        (contains ~needle:"switchv_" body)
  | Error e -> Alcotest.failf "/metrics fetch failed: %s" e);
  (match Serve.fetch ~port "/healthz" with
  | Ok body -> check_string "healthz body" "ok\n" body
  | Error e -> Alcotest.failf "/healthz fetch failed: %s" e);
  check_bool "unknown path is an error" true
    (Result.is_error (Serve.fetch ~port "/nope"));
  check_bool "handler crash is a 500, not a hang" true
    (Result.is_error (Serve.fetch ~port "/boom"));
  Serve.stop srv;
  check_bool "fetch after stop fails" true
    (Result.is_error (Serve.fetch ~port "/metrics"))

(* Regression: a campaign worker forked while a request is answered keeps a
   copy of the connection; the answer must still end it for the client,
   which otherwise waited until that worker exited (make check-obs hung). *)
let test_fetch_with_forked_holder () =
  let child = ref None in
  let srv =
    Serve.start ~port:0
      [ ( "/fork",
          fun () ->
            (match Unix.fork () with
            | 0 ->
                Unix.sleepf 20.;
                Unix._exit 0
            | pid -> child := Some pid);
            ("text/plain", "ok\n") ) ]
  in
  let t0 = Unix.gettimeofday () in
  let r = Serve.fetch ~port:(Serve.port srv) "/fork" in
  let waited = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun pid ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid))
    !child;
  Serve.stop srv;
  check_bool "answered" true (r = Ok "ok\n");
  check_bool "not held open by the forked copy" true (waited < 10.)

(* --- progress line -------------------------------------------------------------- *)

let test_progress_render () =
  let tele = Telemetry.create () in
  Telemetry.incr tele "goals.total" ~n:10;
  Telemetry.incr tele "symbolic.goals_covered" ~n:4;
  Telemetry.incr tele "symbolic.goals_uncoverable" ~n:1;
  Telemetry.incr tele "switch.packets_injected" ~n:42;
  Telemetry.incr tele "campaign.incidents" ~n:3;
  Telemetry.incr tele "oracle.incidents.status_violation" ~n:2;
  let line =
    Progress.render tele ~coverage:(fun () -> Some (5, 20)) ~elapsed:10.
  in
  check_bool "goals" true (contains ~needle:"goals 5/10" line);
  check_bool "packets" true (contains ~needle:"packets 42" line);
  (* campaign.incidents already includes oracle-flagged ones — no
     double count. *)
  check_bool "incidents" true (contains ~needle:"incidents 3" line);
  check_bool "coverage" true (contains ~needle:"coverage 5/20 (25.0%)" line);
  check_bool "eta extrapolated" true (contains ~needle:"eta 10s" line)

(* --- Jsonp serializer ------------------------------------------------------------ *)

let test_jsonp_to_string_round_trip () =
  let src =
    "{\"a\":[1,2.5,null,true],\"s\":\"q\\\"uote\\n\",\"o\":{\"n\":-3}}"
  in
  match Jsonp.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v -> (
      let printed = Telemetry.Json.to_string v in
      check_bool "printed form is valid JSON" true
        (Telemetry.Json.check printed = Ok ());
      match Jsonp.parse printed with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok v2 -> check_bool "round-trips structurally" true (v = v2))

let () =
  Alcotest.run "obs"
    [ ( "coverage",
        [ Alcotest.test_case "edge key space" `Quick test_edge_keys_shape;
          Alcotest.test_case "edge keys memoized" `Quick test_edge_keys_memoized;
          Alcotest.test_case "pid-unique write temp" `Quick
            test_coverage_write_pid_unique_tmp;
          Alcotest.test_case "interpreter counters within edge space" `Quick
            test_interp_counters_within_edge_space;
          Alcotest.test_case "text + json rendering" `Quick
            test_coverage_text_and_json ] );
      ( "docs",
        [ Alcotest.test_case "campaign metrics documented" `Quick
            test_campaign_metrics_documented ] );
      ( "prometheus",
        [ Alcotest.test_case "name mapping" `Quick test_metric_name_mapping;
          Alcotest.test_case "render + lint" `Quick test_render_and_lint;
          Alcotest.test_case "undocumented marker" `Quick
            test_undocumented_render_marker ] );
      ( "trace",
        [ Alcotest.test_case "torn-line truncation" `Quick
            test_truncate_to_last_newline;
          Alcotest.test_case "atomic file sink" `Quick test_file_sink_atomic;
          Alcotest.test_case "cross-fork stitching + chrome" `Quick
            test_pool_trace_stitches;
          Alcotest.test_case "control campaign library spans" `Quick
            test_control_campaign_spans ] );
      ( "serve",
        [ Alcotest.test_case "endpoint + client" `Quick test_serve_and_fetch;
          Alcotest.test_case "fork during an answer" `Quick test_fetch_with_forked_holder ] );
      ( "progress",
        [ Alcotest.test_case "render" `Quick test_progress_render ] );
      ( "jsonp",
        [ Alcotest.test_case "to_string round-trip" `Quick
            test_jsonp_to_string_round_trip ] ) ]
