(* Tests for lib/parallel and the sharded campaigns: shard decomposition
   invariants, IPC frame decoding across split reads, fork-pool ordering +
   crash degradation, cache crash-safety (corrupt entries as misses, atomic
   stores, racy directory creation), the monotonic-ish clock, the
   incident cap under sharding, and the determinism matrix — campaign
   output byte-identical at any [jobs] and with every reference path
   (interpreter, scratch SMT, taint-free enumeration) standing in for its
   fast counterpart. *)

module Shard = Switchv_parallel.Shard
module Ipc = Switchv_parallel.Ipc
module Pool = Switchv_parallel.Pool
module Cache = Switchv_symbolic.Cache
module Telemetry = Switchv_telemetry.Telemetry
module Middleblock = Switchv_sai.Middleblock
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Report = Switchv_core.Report
module Harness = Switchv_core.Harness
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign
module Fabric_campaign = Switchv_core.Fabric_campaign
module Corpus = Switchv_triage.Corpus
module Topo = Switchv_topo.Topo
module Routes = Switchv_topo.Routes

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_int_list = Alcotest.(check (list int))
let check_string_list = Alcotest.(check (list string))

(* --- shard decomposition --------------------------------------------------- *)

let test_shard_counts () =
  check_int_list "even split" [ 3; 3; 3 ]
    (Array.to_list (Shard.counts ~total:9 ~shards:3));
  check_int_list "remainder goes to earlier shards" [ 3; 3; 2; 2 ]
    (Array.to_list (Shard.counts ~total:10 ~shards:4));
  check_int_list "more shards than items" [ 1; 1; 0 ]
    (Array.to_list (Shard.counts ~total:2 ~shards:3));
  check_int_list "shards clamped to 1" [ 5 ]
    (Array.to_list (Shard.counts ~total:5 ~shards:0))

let test_shard_partition () =
  let xs = List.init 11 (fun i -> i) in
  let slices = Shard.partition ~shards:4 xs in
  (* Concatenating slices in shard order rebuilds the input. *)
  check_int_list "concatenation rebuilds input" xs
    (List.concat_map snd (Array.to_list slices));
  (* Each slice's offset is its global start index. *)
  Array.iter
    (fun (off, slice) ->
      match slice with
      | x :: _ -> check_int "offset is global index of slice head" x off
      | [] -> ())
    slices

let test_shard_assignment () =
  let plan = Shard.assignment ~jobs:3 ~shards:8 in
  check_int "one slot per worker" 3 (Array.length plan);
  (* Every shard appears exactly once, ascending within each worker. *)
  let all = List.sort compare (List.concat (Array.to_list plan)) in
  check_int_list "every shard assigned once" [ 0; 1; 2; 3; 4; 5; 6; 7 ] all;
  Array.iter
    (fun shards -> check_bool "ascending" true (List.sort compare shards = shards))
    plan;
  check_int "jobs capped by shards" 2 (Array.length (Shard.assignment ~jobs:9 ~shards:2))

(* --- IPC framing ----------------------------------------------------------- *)

let test_ipc_split_frames () =
  (* Two frames fed one byte at a time must decode to the original
     payloads, in order — the parent never sees aligned reads. *)
  let payloads = [ "hello"; String.make 300 'x'; "" ] in
  let rfd, wfd = Unix.pipe () in
  List.iter (Ipc.write_frame wfd) payloads;
  Unix.close wfd;
  let dec = Ipc.decoder () in
  let out = ref [] in
  let byte = Bytes.create 1 in
  let rec pump () =
    match Unix.read rfd byte 0 1 with
    | 0 -> ()
    | _ ->
        Ipc.feed dec byte 1;
        let rec drain () =
          match Ipc.next dec with
          | Some p ->
              out := p :: !out;
              drain ()
          | None -> ()
        in
        drain ();
        pump ()
  in
  pump ();
  Unix.close rfd;
  check_string_list "frames round-trip across split reads" payloads
    (List.rev !out);
  check_bool "no torn tail" false (Ipc.pending dec)

(* --- clock ------------------------------------------------------------------ *)

let test_clock_clamps () =
  let t = Telemetry.Clock.now () in
  check_bool "duration from the future clamps to zero" true
    (Telemetry.Clock.duration ~since:(t +. 1000.) = 0.);
  check_bool "now never decreases" true (Telemetry.Clock.now () >= t)

(* --- telemetry export / absorb ---------------------------------------------- *)

let test_export_absorb () =
  let a = Telemetry.create () in
  let b = Telemetry.create () in
  Telemetry.incr a "c" ~n:2;
  Telemetry.observe a "h" 0.001;
  Telemetry.incr b "c" ~n:3;
  Telemetry.observe b "h" 0.002;
  Telemetry.observe b "h" 0.004;
  Telemetry.absorb a (Telemetry.export b);
  check_int "counters add" 5 (Telemetry.counter a "c");
  let snap = Telemetry.snapshot a in
  let h = List.assoc "h" snap.Telemetry.snap_histograms in
  check_int "histogram counts add" 3 h.Telemetry.hs_count

(* --- cache crash-safety ----------------------------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "swv_cache_test_%d_%d" (Unix.getpid ()) !n)
    in
    d

let cache_file dir key = Filename.concat dir (key ^ ".cache")

let test_cache_corrupt_entry_is_miss () =
  let dir = fresh_dir () in
  let c = Cache.on_disk dir in
  Cache.store c ~key:"k" "payload";
  check_bool "stored entry found" true (Cache.find c ~key:"k" = Some "payload");
  (* Corrupt the file in place: a torn write truncates the payload below
     the length the header promises. *)
  let file = cache_file dir "k" in
  let oc = open_out_bin file in
  output_string oc "swvc1 7\npay";
  close_out oc;
  (* A fresh handle forces the read through the disk layer — [c] still
     holds the payload in its in-memory table, as it should. *)
  let c2 = Cache.on_disk dir in
  let tele = Telemetry.create () in
  let dropped, recovered =
    Telemetry.with_registry tele (fun () ->
        let miss = Cache.find c2 ~key:"k" in
        (* Recovery: re-store overwrites the corrupt entry atomically. *)
        Cache.store c2 ~key:"k" "payload2";
        (miss, Cache.find (Cache.on_disk dir) ~key:"k"))
  in
  check_bool "corrupt entry is a miss" true (dropped = None);
  check_int "corrupt_dropped counted" 1 (Telemetry.counter tele "cache.corrupt_dropped");
  check_bool "re-store recovers" true (recovered = Some "payload2");
  (* Old-format files (no header) are also treated as corrupt. *)
  let oc = open_out_bin (cache_file dir "old") in
  output_string oc "raw-legacy-payload";
  close_out oc;
  check_bool "headerless entry is a miss" true (Cache.find c ~key:"old" = None)

let test_cache_atomic_store () =
  let dir = Filename.concat (fresh_dir ()) "nested/deeper" in
  let c = Cache.on_disk dir in
  Cache.store c ~key:"k" "v";
  check_bool "recursive directory creation" true (Sys.is_directory dir);
  (* No temporary files survive a successful store. *)
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> not (Filename.check_suffix f ".cache"))
  in
  check_string_list "no temp files left behind" [] leftovers;
  (* Directory creation is race-tolerant: a second cache on the same path
     must not fail. *)
  let c2 = Cache.on_disk dir in
  Cache.store c2 ~key:"k2" "v2";
  check_bool "second writer shares the directory" true
    (Cache.find c ~key:"k2" = Some "v2")

(* --- pool -------------------------------------------------------------------- *)

let map_strings ?parent_shards ~jobs ~shards task =
  Pool.map ?parent_shards ~jobs ~shards ~encode:Fun.id ~decode:Result.ok task

let workers_failed tele = Telemetry.counter tele "parallel.workers_failed"

let test_pool_orders_results () =
  let tele = Telemetry.create () in
  let results =
    Telemetry.with_registry tele (fun () ->
        map_strings ~jobs:3 ~shards:7 (Printf.sprintf "shard-%d"))
  in
  check_int "no failures" 0 (workers_failed tele);
  check_string_list "results in shard order"
    (List.init 7 (Printf.sprintf "shard-%d"))
    results

let test_pool_worker_crash_degrades () =
  let tele = Telemetry.create () in
  let results =
    Telemetry.with_registry tele (fun () ->
        map_strings ~jobs:4 ~shards:4 (fun s ->
            if s = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
            Printf.sprintf "ok-%d" s))
  in
  check_int "failure counted" 1 (workers_failed tele);
  check_string_list "crashed shard dropped, survivors intact and ordered"
    [ "ok-0"; "ok-1"; "ok-3" ] results

let test_pool_drops_undecodable () =
  let tele = Telemetry.create () in
  let results =
    Telemetry.with_registry tele (fun () ->
        Pool.map ~jobs:2 ~shards:4 ~encode:string_of_int
          ~decode:(fun p -> if p = "1" then Error "bad payload" else Ok (int_of_string p))
          Fun.id)
  in
  check_int "undecodable payload counted" 1 (workers_failed tele);
  check_int_list "undecodable shard dropped" [ 0; 2; 3 ] results

let test_pool_in_process_skips_encoding () =
  (* One job or one shard: no fork, no payloads — the single-process
     campaigns pay nothing for the pool. *)
  let encode _ = Alcotest.fail "in-process path encoded a payload" in
  let decode _ = Alcotest.fail "in-process path decoded a payload" in
  check_int_list "jobs=1 runs every shard in order" [ 0; 1; 2 ]
    (Pool.map ~jobs:1 ~shards:3 ~encode ~decode Fun.id);
  check_int_list "shards=1 runs in this process" [ Unix.getpid () ]
    (Pool.map ~jobs:4 ~shards:1 ~encode ~decode (fun _ -> Unix.getpid ()))

let test_pool_parent_shard_interrupted () =
  (* Ctrl-C while a parent shard runs ends the whole pool: the workers are
     killed and reaped rather than waited for, and [Sys.Break] reaches the
     caller instead of costing one shard. *)
  let tele = Telemetry.create () in
  let t0 = Unix.gettimeofday () in
  match
    Telemetry.with_registry tele (fun () ->
        map_strings ~parent_shards:[ 0 ] ~jobs:2 ~shards:3 (fun s ->
            if s = 0 then raise Sys.Break;
            Unix.sleepf 2.;
            "late"))
  with
  | _ -> Alcotest.fail "the parent shard's Sys.Break was swallowed"
  | exception Sys.Break ->
      check_int "no shard counted as lost" 0 (workers_failed tele);
      check_bool "workers not waited for" true (Unix.gettimeofday () -. t0 < 1.5)

let test_pool_merges_histogram_buckets () =
  (* Sharded quantiles must match single-process: workers export full
     bucket contents (as deltas), not summaries, so the merged histogram
     is the one a sequential run would have built. *)
  let samples s = List.init 5 (fun i -> float_of_int ((s * 5) + i + 1) *. 1e-4) in
  let single = Telemetry.create () in
  List.iter
    (fun s -> List.iter (Telemetry.observe single "task.latency") (samples s))
    [ 0; 1; 2; 3 ];
  let tele = Telemetry.create () in
  let results =
    Telemetry.with_registry tele (fun () ->
        map_strings ~jobs:4 ~shards:4 (fun s ->
            List.iter
              (Telemetry.observe (Telemetry.get ()) "task.latency")
              (samples s);
            "ok"))
  in
  check_int "no failures" 0 (workers_failed tele);
  check_int "every shard delivered" 4 (List.length results);
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "p%02.0f matches single-process" (100. *. p))
        true
        (Telemetry.quantile tele "task.latency" p
        = Telemetry.quantile single "task.latency" p))
    [ 0.5; 0.9; 0.99 ];
  let summary t =
    List.assoc "task.latency" (Telemetry.snapshot t).Telemetry.snap_histograms
  in
  check_int "observation counts match" (summary single).Telemetry.hs_count
    (summary tele).Telemetry.hs_count

let test_pool_merges_worker_telemetry () =
  let tele = Telemetry.create () in
  let results =
    Telemetry.with_registry tele (fun () ->
        map_strings ~jobs:2 ~shards:4 (fun s ->
            Telemetry.incr (Telemetry.get ()) "task.ticks" ~n:(s + 1);
            "ok"))
  in
  check_int "no failures" 0 (workers_failed tele);
  check_int "every shard delivered" 4 (List.length results);
  (* 1 + 2 + 3 + 4, accumulated across worker processes. *)
  check_int "worker counters absorbed" 10 (Telemetry.counter tele "task.ticks")

(* --- campaign determinism ----------------------------------------------------- *)

let entries = Workload.generate ~seed:3 Middleblock.program Workload.small

let fault_where pred =
  List.find (fun (f : Fault.t) -> pred f.Fault.kind)
    (Catalogue.pins Middleblock.program entries)

let incident_json incidents = List.map Report.incident_ipc_to_json incidents

let test_control_sharded_matches_sequential () =
  let fault =
    fault_where (function Fault.Reject_valid_insert _ -> true | _ -> false)
  in
  let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
  let config =
    { Control_campaign.default_config with batches = 6; seed = 11; shards = 4 }
  in
  let run jobs = Control_campaign.run_sharded ~jobs mk config in
  let i1, s1 = run 1 in
  let i2, s2 = run 2 in
  let i4, s4 = run 4 in
  check_bool "found something to compare" true (i1 <> []);
  check_string_list "jobs=2 incidents identical" (incident_json i1) (incident_json i2);
  check_string_list "jobs=4 incidents identical" (incident_json i1) (incident_json i4);
  check_int "batch counts identical" s1.Report.cs_batches s4.Report.cs_batches;
  check_int "update counts identical" s1.Report.cs_updates s2.Report.cs_updates

let test_data_sharded_matches_sequential () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let config =
    { (Data_campaign.default_config entries) with shards = 4; test_packet_io = false }
  in
  let run jobs =
    let stack = Stack.create ~faults:[ fault ] Middleblock.program in
    Data_campaign.run ~jobs stack config
  in
  let i1, s1 = run 1 in
  let i4, s4 = run 4 in
  check_bool "found something to compare" true (i1 <> []);
  check_string_list "jobs=4 incidents identical" (incident_json i1) (incident_json i4);
  check_int "packets tested identical" s1.Report.ds_packets_tested
    s4.Report.ds_packets_tested;
  check_int "coverage identical" s1.Report.ds_covered s4.Report.ds_covered

(* The coverage map is built from plain counters absorbed across workers,
   and shard decomposition is jobs-invariant, so the canonical text form
   must be byte-identical for any [--jobs]. [make check-obs] re-checks the
   same property end-to-end through the CLI with [cmp]. *)
let test_coverage_map_identical_across_jobs () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
  let run jobs =
    let config =
      { (Harness.default_config entries) with
        control =
          { Control_campaign.default_config with batches = 2; seed = 7; shards = 4 };
        jobs;
        data_shards = 4 }
    in
    let tele = Telemetry.create () in
    Telemetry.with_registry tele (fun () -> Harness.validate mk config)
  in
  let cov_text r =
    match r.Report.coverage with
    | Some c -> Switchv_obs.Coverage.to_string c
    | None -> Alcotest.fail "report carries no coverage map"
  in
  let r1 = run 1 in
  let r4 = run 4 in
  (match r1.Report.coverage with
  | Some c -> check_bool "edges covered" true (c.Switchv_obs.Coverage.covered > 0)
  | None -> Alcotest.fail "report carries no coverage map");
  check_string "coverage map byte-identical jobs=1 vs jobs=4" (cov_text r1)
    (cov_text r4)

(* --- the cap rule ------------------------------------------------------------------

   [Campaign.run]'s budget rule: each shard counts from the parent's count
   with the whole budget, and the merge truncates the in-order concatenation
   to what the parent had left. So a capped data or fabric campaign keeps
   the same incidents at any shard split and jobs count, and a one-shard
   control run keeps its last batch whole. *)

(* [run ~cap ~shards ~jobs] keeps exactly [cap] incidents, the same ones at
   shards 1 and 4, with jobs 1 and 4. *)
let cap_binds_at_every_split caps run =
  List.iter
    (fun cap ->
      let reference = incident_json (run ~cap ~shards:1 ~jobs:1) in
      check_int (Printf.sprintf "cap %d binds" cap) cap (List.length reference);
      List.iter
        (fun (shards, jobs) ->
          check_string_list
            (Printf.sprintf "cap %d: shards %d, jobs %d = shards 1, jobs 1" cap
               shards jobs)
            reference
            (incident_json (run ~cap ~shards ~jobs)))
        [ (1, 4); (4, 1); (4, 4) ])
    caps

let test_data_cap_any_split () =
  let fault =
    fault_where (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  cap_binds_at_every_split [ 1; 3; 25 ] (fun ~cap ~shards ~jobs ->
      fst
        (Data_campaign.run ~jobs
           (Stack.create ~faults:[ fault ] Middleblock.program)
           { (Data_campaign.default_config entries) with max_incidents = cap; shards }))

let test_fabric_cap_any_split () =
  let program = Middleblock.program in
  let topo = Topo.build Topo.Line 3 in
  let faults =
    Result.get_ok
      (Catalogue.resolve program (Routes.entries topo program ~switch:1) [ "TOPO-001" ])
  in
  cap_binds_at_every_split [ 1; 3; 7 ] (fun ~cap ~shards ~jobs ->
      fst
        (Fabric_campaign.run ~jobs program
           { (Fabric_campaign.default_config Topo.Line 3) with
             Fabric_campaign.shards; max_incidents = cap; faults = [ (1, faults) ] }))

(* [switchv fuzz --fault PINS-028] under the CLI defaults: the batch that
   crosses the 25-incident cap brings 31 incidents of its own. *)
let test_control_one_shard_keeps_overshoot () =
  let program = Middleblock.program in
  let entries = Workload.generate ~seed:1 program (Workload.scaled 0.1 Workload.inst1) in
  let faults = Result.get_ok (Catalogue.resolve program entries [ "PINS-028" ]) in
  let mk () = Stack.create ~faults program in
  let config = { Control_campaign.default_config with batches = 10; seed = 1 } in
  let sequential, _ = Control_campaign.run (mk ()) config in
  check_int "cap" 25 config.max_incidents;
  check_int "the last batch is kept whole" 41 (List.length sequential);
  List.iter
    (fun jobs ->
      check_string_list
        (Printf.sprintf "shards 1, jobs %d = Control_campaign.run" jobs)
        (incident_json sequential)
        (incident_json
           (fst (Control_campaign.run_sharded ~jobs mk { config with shards = 1 }))))
    [ 1; 4 ]

(* --- the determinism matrix ----------------------------------------------------

   Every reference path the library keeps — the tree-walking interpreter
   ([compile = false]), per-goal scratch SMT ([incremental = false]),
   taint-free hash enumeration ([taint = false]) — and every scheduling
   knob ([jobs]) must leave a campaign's output unchanged, byte for byte.
   Each row runs the CLI's defaults (entries from [Workload.generate
   ~seed:1] at scale 0.1, seed 1, batches 4) through the library configs
   and compares what [--save-corpus] archives plus the rest of the report
   (every incident in full, clusters, stats with timings zeroed). *)

type outcome = { corpus : string list; report : string; clean : bool }

let outcome ~faults (r : Report.t) =
  let untimed =
    { r with
      Report.control_stats =
        Option.map (fun s -> { s with Report.cs_duration = 0. }) r.control_stats;
      data_stats =
        Option.map
          (fun s -> { s with Report.ds_generation_time = 0.; ds_testing_time = 0. })
          r.data_stats;
      fabric_stats =
        Option.map (fun s -> { s with Report.fs_duration = 0. }) r.fabric_stats;
      telemetry = None;
      coverage = None }
  in
  { corpus =
      List.map Corpus.record_to_json
        (Report.corpus_records ~faults:(List.map (fun (f : Fault.t) -> f.id) faults) r);
    report = Report.to_json untimed;
    clean = Report.clean r }

(* [switchv validate --batches 4 --shards K --jobs J --fault ...]. *)
let validate ?(model = Middleblock.program) ?(faults = [ "PINS-019" ]) ?(shards = 4)
    ?(jobs = 1) ?(compile = true) ?(incremental = true) ?(taint = true)
    ?(greybox = true) ?(fuzzed_data_pass = false) () =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  let entries = Workload.generate ~seed:1 model (Workload.scaled 0.1 Workload.inst1) in
  let faults = Result.get_ok (Catalogue.resolve model entries faults) in
  let config =
    { (Harness.default_config entries) with
      control = { Control_campaign.default_config with batches = 4; seed = 1; shards };
      jobs; data_shards = shards; fuzzed_data_pass; incremental; taint; greybox;
      compile }
  in
  outcome ~faults (Harness.validate (fun () -> Stack.create ~faults ~compile model) config)

(* [switchv fabric --topo line --switches 3 --fault TOPO-001 --fault-switch 1
   --shards 4 --jobs J]. The TTL trap sits on sw1, so hop attribution must
   name sw1 and never a neighbour that merely forwarded the packet. *)
let fabric ~jobs =
  Telemetry.with_registry (Telemetry.create ()) @@ fun () ->
  let program = Middleblock.program in
  let topo = Topo.build Topo.Line 3 in
  let faults =
    Result.get_ok
      (Catalogue.resolve program (Routes.entries topo program ~switch:1) [ "TOPO-001" ])
  in
  let cfg =
    { (Fabric_campaign.default_config Topo.Line 3) with
      Fabric_campaign.seed = 1; shards = 4; faults = [ (1, faults) ] }
  in
  let incidents, stats = Fabric_campaign.run ~jobs program cfg in
  let blamed sw =
    List.exists
      (fun i -> List.mem ("h=" ^ sw) (String.split_on_char '|' (Report.fingerprint i)))
      incidents
  in
  check_bool "TOPO-001: a fingerprint carries h=sw1" true (blamed "sw1");
  check_bool "TOPO-001: no fingerprint carries h=sw0 or h=sw2" false
    (blamed "sw0" || blamed "sw2");
  let reps, clusters = Report.cluster incidents in
  outcome ~faults
    { (Report.empty program.p_name) with
      Report.fabric_incidents = reps; fabric_stats = Some stats;
      clusters = Some clusters }

let same label expected actual =
  check_bool (label ^ ": incidents to compare") true (expected.corpus <> []);
  check_string_list (label ^ ": corpus") expected.corpus actual.corpus;
  check_string (label ^ ": report") expected.report actual.report

let fixture_lines name =
  let local = Filename.concat "fixtures" name in
  let path = if Sys.file_exists local then local else Filename.concat "test/fixtures" name in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Middleblock + PINS-019, shards 4, jobs 1: the reference most rows
   compare against. *)
let pins019 = lazy (validate ())

(* The whole harness with the fuzzed-data pass on, jobs 4 against jobs 1:
   control and data incidents, clusters, stats and corpus. *)
let test_harness_report_identical_across_jobs () =
  same "fuzzed_data_pass jobs=4"
    (validate ~fuzzed_data_pass:true ())
    (validate ~fuzzed_data_pass:true ~jobs:4 ())

let matrix =
  [ ("jobs 4 = jobs 1", fun () -> same "jobs=4" (Lazy.force pins019) (validate ~jobs:4 ()));
    ( "compile off = on",
      fun () ->
        List.iter
          (fun jobs ->
            same (Printf.sprintf "compile=false jobs=%d" jobs) (Lazy.force pins019)
              (validate ~compile:false ~jobs ()))
          [ 1; 4 ] );
    ( "incremental off = on",
      fun () ->
        same "shards=1 incremental=false" (validate ~shards:1 ())
          (validate ~shards:1 ~incremental:false ());
        List.iter
          (fun jobs ->
            same (Printf.sprintf "shards=4 incremental=false jobs=%d" jobs)
              (Lazy.force pins019)
              (validate ~incremental:false ~jobs ()))
          [ 1; 4 ] );
    ( "taint off = on",
      fun () ->
        let run taint =
          validate ~model:Switchv_sai.Figure2.program ~faults:[] ~shards:1 ~taint ()
        in
        same "figure2 taint=false" (run true) (run false) );
    ( "blind = golden",
      fun () ->
        check_string_list "greybox=false jobs=4 corpus"
          (fixture_lines "greybox_blind.golden.jsonl")
          (validate ~greybox:false ~jobs:4 ()).corpus );
    ( "fabric jobs 4 = jobs 1",
      fun () -> same "fabric jobs=4" (fabric ~jobs:1) (fabric ~jobs:4) );
    ( "clean run",
      fun () ->
        check_bool "no fault, jobs=4: no incident" true
          (validate ~faults:[] ~jobs:4 ()).clean ) ]

let () =
  Alcotest.run "parallel"
    [ ( "shard",
        [ Alcotest.test_case "counts" `Quick test_shard_counts;
          Alcotest.test_case "partition" `Quick test_shard_partition;
          Alcotest.test_case "assignment" `Quick test_shard_assignment ] );
      ( "ipc",
        [ Alcotest.test_case "split frames" `Quick test_ipc_split_frames ] );
      ( "clock",
        [ Alcotest.test_case "clamps" `Quick test_clock_clamps ] );
      ( "telemetry merge",
        [ Alcotest.test_case "export/absorb" `Quick test_export_absorb ] );
      ( "cache",
        [ Alcotest.test_case "corrupt entry is a miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "atomic store + racy mkdir" `Quick
            test_cache_atomic_store ] );
      ( "pool",
        [ Alcotest.test_case "results ordered by shard" `Quick
            test_pool_orders_results;
          Alcotest.test_case "worker crash degrades" `Quick
            test_pool_worker_crash_degrades;
          Alcotest.test_case "undecodable payload dropped" `Quick
            test_pool_drops_undecodable;
          Alcotest.test_case "in-process path skips encoding" `Quick
            test_pool_in_process_skips_encoding;
          Alcotest.test_case "interrupted parent shard ends the pool" `Quick
            test_pool_parent_shard_interrupted;
          Alcotest.test_case "worker telemetry absorbed" `Quick
            test_pool_merges_worker_telemetry;
          Alcotest.test_case "sharded quantiles match single-process" `Quick
            test_pool_merges_histogram_buckets ] );
      ( "determinism",
        [ Alcotest.test_case "control campaign" `Quick
            test_control_sharded_matches_sequential;
          Alcotest.test_case "data campaign" `Quick
            test_data_sharded_matches_sequential;
          Alcotest.test_case "harness report" `Quick
            test_harness_report_identical_across_jobs;
          Alcotest.test_case "coverage map" `Quick
            test_coverage_map_identical_across_jobs ] );
      ( "cap rule",
        [ Alcotest.test_case "data campaign at any split" `Quick
            test_data_cap_any_split;
          Alcotest.test_case "fabric campaign at any split" `Quick
            test_fabric_cap_any_split;
          Alcotest.test_case "one control shard keeps a batch whole" `Quick
            test_control_one_shard_keeps_overshoot ] );
      ( "matrix",
        List.map (fun (name, f) -> Alcotest.test_case name `Quick f) matrix ) ]
