(* The SwitchV command-line interface.

   Subcommands:
     validate     — full nightly validation (fuzzer + oracle, symbolic + diff)
     fabric       — multi-switch fabric campaign with hop-localized triage
     replay       — re-run a regression corpus against a (fresh) switch stack
     fuzz         — control-plane campaign only
     genpackets   — p4-symbolic packet generation only
     lint         — static analysis diagnostics (CFG + dataflow + BDD)
     trivial      — the §6.2 trivial integration-test suite
     model        — print a P4 model or its P4Info ("living documentation")
     catalogue    — list the seeded-bug catalogue
     top          — poll a running campaign's /metrics endpoint
     trace-export — stitch a campaign trace / convert to Chrome format

   Switches under test are the simulated stacks; --fault seeds catalogue
   bugs by id so every paper experiment is reproducible from the shell. *)

module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Pretty = Switchv_p4ir.Pretty
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Workload = Switchv_sai.Workload
module Harness = Switchv_core.Harness
module Report = Switchv_core.Report
module Fabric_campaign = Switchv_core.Fabric_campaign
module Topo = Switchv_topo.Topo
module Routes = Switchv_topo.Routes
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign
module Trivial_suite = Switchv_core.Trivial_suite
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Cache = Switchv_symbolic.Cache
module Telemetry = Switchv_telemetry.Telemetry
module Analysis = Switchv_analysis.Analysis
module Diagnostics = Switchv_analysis.Diagnostics
module Corpus = Switchv_triage.Corpus
module Coverage = Switchv_obs.Coverage
module Prom = Switchv_obs.Prom
module Serve = Switchv_obs.Serve
module Progress = Switchv_obs.Progress
module Obs_trace = Switchv_obs.Trace

open Cmdliner

let ( let* ) = Result.bind

(* --- shared arguments ---------------------------------------------------- *)

let program_of_name = function
  | "middleblock" -> Ok Switchv_sai.Middleblock.program
  | "tor" -> Ok Switchv_sai.Tor.program
  | "wan" -> Ok Switchv_sai.Wan.program
  | "cerberus" -> Ok Switchv_sai.Cerberus.program
  | "figure2" -> Ok Switchv_sai.Figure2.program
  | other -> Error (Printf.sprintf "unknown model %S" other)

let model_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (program_of_name s) in
  let print fmt (p : Ast.program) = Format.pp_print_string fmt p.p_name in
  Arg.conv (parse, print)

let builtin_model_arg =
  let doc =
    "P4 model / switch role: $(b,middleblock), $(b,tor), $(b,wan), \
     $(b,cerberus), or $(b,figure2)."
  in
  Arg.(
    value
    & opt model_conv Switchv_sai.Middleblock.program
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let model_file_arg =
  let doc =
    "Load the P4 model from a source file in the dialect printed by \
     $(b,switchv model) instead of using a built-in role."
  in
  Arg.(value & opt (some file) None & info [ "f"; "model-file" ] ~docv:"FILE" ~doc)

(* A model file that fails to parse or typecheck is a user error, reported
   in one line like every other bad input. *)
let load_model builtin = function
  | None -> Ok builtin
  | Some path ->
      Result.map_error (Printf.sprintf "%s: %s" path)
        (let* program =
           Switchv_p4ir.P4parser.parse
             ~name:(Filename.remove_extension (Filename.basename path))
             (In_channel.with_open_bin path In_channel.input_all)
         in
         match Switchv_p4ir.Typecheck.check program with
         | Ok () -> Ok program
         | Error msgs -> Error (String.concat "; " msgs))

let model_arg =
  Term.(term_result' ~usage:false (const load_model $ builtin_model_arg $ model_file_arg))

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

(* A factor scales every Inst1 count, each at most the profile's total,
   and a scaled count must still be an int. *)
let scale_conv =
  let limit = float_of_int max_int /. float_of_int (Workload.total Workload.inst1) in
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0. && f < limit -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%S is not a scale (need 0 <= F < %g)" s limit))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  let doc = "Workload scale factor relative to the Inst1 profile (798 entries at 1.0)." in
  Arg.(value & opt scale_conv 0.1 & info [ "scale" ] ~docv:"F" ~doc)

let faults_arg =
  let doc =
    "Seed the switch with this catalogue fault id (e.g. PINS-042, CERB-003); \
     repeatable."
  in
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"ID" ~doc)

let batches_arg =
  Arg.(
    value & opt int 10
    & info [ "batches" ] ~docv:"N" ~doc:"Random fuzz batches after the directed sweep.")

let cache_dir_arg =
  let doc = "Directory for the p4-symbolic packet cache (omit for no caching)." in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let trace_file_arg =
  let doc =
    "Write a JSONL span trace of the run to $(docv) (one event per line; see \
     the Observability section of the README for the schema). The file is \
     staged as $(docv).tmp and renamed on completion — including on Ctrl-C — \
     so a published trace never ends in a torn line."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] with telemetry trace events mirrored to [file], if given. *)
let with_trace file f =
  match file with
  | None -> f ()
  | Some path -> Obs_trace.with_file_sink (Telemetry.get ()) path f

let workload program scale seed =
  Workload.generate ~seed program (Workload.scaled scale Workload.inst1)

(* The switch under test: the workload the command installs, the --fault
   ids resolved against it, and a factory for fresh stacks seeded with
   those faults. *)
let faulted program ~scale ~seed fault_ids =
  let entries = workload program scale seed in
  let* faults = Catalogue.resolve program entries fault_ids in
  Ok (entries, faults, fun () -> Stack.create ~faults program)

let save_corpus ~faults report path =
  let records =
    Report.corpus_records ~faults:(List.map (fun (f : Fault.t) -> f.id) faults) report
  in
  Corpus.save path records;
  Printf.printf "archived %d reproducer(s) to %s\n" (List.length records) path

(* --- validate ------------------------------------------------------------- *)

let save_corpus_arg =
  let doc =
    "Append every incident's reproducer to the JSONL regression corpus \
     $(docv) (replay it later with $(b,switchv replay))."
  in
  Arg.(value & opt (some string) None & info [ "save-corpus" ] ~docv:"FILE" ~doc)

let minimize_arg =
  let doc =
    "Delta-debug each reported reproducer to a 1-minimal input before \
     reporting/archiving (replays against fresh stacks; slower)."
  in
  Arg.(value & flag & info [ "minimize" ] ~doc)

let jobs_arg =
  let doc =
    "Worker processes for campaign execution. Shard decomposition is fixed \
     by $(b,--shards), so the reported incidents are identical at any jobs \
     count; 1 (the default) forks nothing."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Shard count for both campaigns: control-plane seed-range shards and \
     data-plane coverage-goal slices. Changing it changes what the \
     campaigns fuzz/generate (unlike $(b,--jobs), which never does); \
     useful values are the jobs count you plan to run with."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

(* Live exposition for a running validate: the three HTTP routes every
   scraper/operator tool needs. Coverage is recomputed per request from
   the ambient registry — counters absorbed from workers are already in
   it, so the gauges move while the campaign runs. *)
let exposition_routes tele program =
  let coverage () = Coverage.of_registry tele program in
  let metrics () =
    let cov = coverage () in
    let gauge name help v =
      { Prom.g_name = name; g_help = help; g_value = float_of_int v }
    in
    ( "text/plain; version=0.0.4",
      Prom.render
        ~gauges:
          [ gauge "switchv_edges_covered"
              "CFG edges executed so far (live coverage numerator)."
              cov.Coverage.covered;
            gauge "switchv_edges_total"
              "CFG edge space of the model under test." cov.Coverage.total ]
        tele )
  in
  let snapshot () =
    let cov = coverage () in
    ( "application/json",
      Telemetry.Json.obj
        [ ("telemetry", Telemetry.snapshot_to_json (Telemetry.snapshot tele));
          ("coverage", Coverage.to_json cov) ]
      ^ "\n" )
  in
  [ ("/metrics", metrics); ("/healthz", fun () -> ("text/plain", "ok\n"));
    ("/snapshot.json", snapshot) ]

let validate_cmd =
  let run program seed scale fault_ids batches cache_dir trace_file corpus_file
      minimize jobs shards metrics_port coverage_out progress =
    let* entries, faults, mk = faulted program ~scale ~seed fault_ids in
    let config =
      { (Harness.default_config entries) with
        control = { Control_campaign.default_config with batches; seed; shards };
        cache = Option.map Cache.on_disk cache_dir;
        triage = Some { Harness.default_triage with minimize };
        jobs;
        data_shards = shards }
    in
    let tele = Telemetry.get () in
    let server =
      Option.map
        (fun port ->
          let srv = Serve.start ~port (exposition_routes tele program) in
          Printf.eprintf "[switchv] serving http://127.0.0.1:%d/metrics\n%!"
            (Serve.port srv);
          srv)
        metrics_port
    in
    let ticker =
      if progress then
        Some
          (Progress.start tele
             ~coverage:(fun () ->
               let c = Coverage.of_registry tele program in
               Some (c.Coverage.covered, c.Coverage.total)))
      else None
    in
    let report =
      Fun.protect
        ~finally:(fun () ->
          Option.iter Progress.stop ticker;
          Option.iter Serve.stop server)
        (fun () -> with_trace trace_file (fun () -> Harness.validate mk config))
    in
    Format.printf "%a@." Report.pp report;
    (match (coverage_out, report.Report.coverage) with
    | Some path, Some cov ->
        Coverage.write_file cov path;
        Printf.printf "coverage map (%d/%d edges) written to %s\n"
          cov.Coverage.covered cov.Coverage.total path
    | Some path, None ->
        Printf.printf "no coverage map collected; %s not written\n" path
    | None, _ -> ());
    Option.iter (save_corpus ~faults report) corpus_file;
    if Report.clean report then Ok () else Error "incidents reported"
  in
  let metrics_port_arg =
    let doc =
      "Serve live campaign metrics over HTTP on 127.0.0.1:$(docv) while the \
       run is in flight: $(b,/metrics) (Prometheus text format, with live \
       $(b,switchv_edges_covered)/$(b,switchv_edges_total) coverage gauges), \
       $(b,/healthz), and $(b,/snapshot.json). Port 0 picks an ephemeral \
       port (printed to stderr). Poll it with $(b,switchv top)."
    in
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let coverage_out_arg =
    let doc =
      "Write the final coverage map to $(docv) (canonical text form, written \
       atomically; byte-identical at any $(b,--jobs) count)."
    in
    Arg.(value & opt (some string) None & info [ "coverage-out" ] ~docv:"FILE" ~doc)
  in
  let progress_arg =
    let doc =
      "Print a one-line progress heartbeat to stderr every 2s: goals solved, \
       packets injected, incidents, live coverage, and an ETA."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let doc = "Run a full SwitchV validation (control plane + data plane)." in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ model_arg $ seed_arg $ scale_arg $ faults_arg $ batches_arg
        $ cache_dir_arg $ trace_file_arg $ save_corpus_arg $ minimize_arg $ jobs_arg
        $ shards_arg $ metrics_port_arg $ coverage_out_arg
        $ progress_arg))

(* --- replay ---------------------------------------------------------------- *)

let replay_cmd =
  let run program seed scale fault_ids corpus_path expect_reproduce =
    let* _, _, mk = faulted program ~scale ~seed fault_ids in
    let* records = Corpus.load corpus_path in
    let reproduced = ref 0 in
    List.iteri
      (fun idx (r : Corpus.record) ->
        if not (String.equal r.c_program program.Ast.p_name) then
          Printf.printf
            "warning: record %d captured on model %s, replaying on %s\n"
            (idx + 1) r.c_program program.Ast.p_name;
        let o = Corpus.replay ~mk_stack:mk r in
        if o.Corpus.o_reproduced then incr reproduced;
        Printf.printf "%3d %-11s %-48s %s\n" (idx + 1)
          (if o.Corpus.o_reproduced then "REPRODUCED" else "clean")
          r.c_fingerprint
          (if o.Corpus.o_reproduced then o.Corpus.o_detail else ""))
      records;
    let total = List.length records in
    Printf.printf "%d/%d archived incident(s) reproduced\n" !reproduced total;
    if expect_reproduce then
      if !reproduced = total then Ok ()
      else
        Error
          (Printf.sprintf "%d archived incident(s) did not reproduce"
             (total - !reproduced))
    else if !reproduced = 0 then Ok ()
    else Error (Printf.sprintf "%d regression(s) reproduced" !reproduced)
  in
  let corpus_arg =
    let doc = "The JSONL regression corpus to replay." in
    Arg.(
      required & opt (some file) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let expect_reproduce_arg =
    let doc =
      "Invert the exit contract: succeed only if $(i,every) archived \
       incident still reproduces (corpus self-check against a seeded \
       stack), instead of succeeding only when none does."
    in
    Arg.(value & flag & info [ "expect-reproduce" ] ~doc)
  in
  let doc =
    "Replay a regression corpus against a freshly provisioned stack. Exits \
     non-zero when an archived divergence reproduces (or, with \
     $(b,--expect-reproduce), when one fails to)."
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ model_arg $ seed_arg $ scale_arg $ faults_arg $ corpus_arg
        $ expect_reproduce_arg))

(* --- fabric ---------------------------------------------------------------- *)

let fabric_cmd =
  let run program shape switches spines seed fault_ids fault_switch budget
      no_packet_out jobs shards minimize trace_file corpus_file =
    let* topo =
      try Ok (Topo.build ?spines shape switches) with Invalid_argument m -> Error m
    in
    if fault_switch < 0 || fault_switch >= Topo.switches topo then
      Error (Printf.sprintf "--fault-switch %d out of range" fault_switch)
    else begin
      (* Resolve fault ids against the seeded switch's own route plan
         (catalogue constructors that need entries, e.g. table names, see
         what that switch will be programmed with). *)
      let* faults =
        Catalogue.resolve program
          (Routes.entries topo program ~switch:fault_switch)
          fault_ids
      in
      let cfg =
        { (Fabric_campaign.default_config shape switches) with
          Fabric_campaign.spines;
          seed;
          budget;
          shards;
          packet_out = not no_packet_out;
          faults = (if faults = [] then [] else [ (fault_switch, faults) ]);
          minimize }
      in
      let tele = Telemetry.get () in
      let incidents, stats =
        with_trace trace_file (fun () -> Fabric_campaign.run ~jobs program cfg)
      in
      let reps, clusters = Report.cluster incidents in
      let report =
        { (Report.empty program.Ast.p_name) with
          Report.fabric_incidents = reps;
          fabric_stats = Some stats;
          clusters = Some clusters;
          telemetry = Some (Telemetry.snapshot tele);
          coverage = Some (Coverage.of_registry tele program) }
      in
      Format.printf "%a@." Report.pp report;
      Option.iter (save_corpus ~faults report) corpus_file;
      if Report.clean report then Ok () else Error "incidents reported"
    end
  in
  let shape_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Topo.shape_of_string s) in
    let print fmt s = Format.pp_print_string fmt (Topo.shape_to_string s) in
    Arg.conv (parse, print)
  in
  let topo_arg =
    let doc =
      "Fabric topology: $(b,line), $(b,star), $(b,mesh), or $(b,leaf-spine)."
    in
    Arg.(value & opt shape_conv Switchv_topo.Topo.Line & info [ "topo" ] ~docv:"SHAPE" ~doc)
  in
  let switches_arg =
    Arg.(
      value & opt int 4
      & info [ "switches" ] ~docv:"N" ~doc:"Number of switches in the fabric.")
  in
  let spines_arg =
    let doc = "Spine count for $(b,--topo leaf-spine) (default 2 when N >= 4)." in
    Arg.(value & opt (some int) None & info [ "spines" ] ~docv:"S" ~doc)
  in
  let fault_switch_arg =
    let doc = "Switch index the $(b,--fault) ids are seeded into (default 0)." in
    Arg.(value & opt int 0 & info [ "fault-switch" ] ~docv:"K" ~doc)
  in
  let budget_arg =
    let doc =
      "Hop budget per flow (default 4*N+8); forwarding loops are cut and \
       reported when it runs out."
    in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"H" ~doc)
  in
  let no_packet_out_arg =
    let doc = "Skip the per-switch packet-out injection flows." in
    Arg.(value & flag & info [ "no-packet-out" ] ~doc)
  in
  let doc =
    "Run a multi-switch fabric campaign: wire N simulated stacks into a \
     topology, program routes on every switch, drive end-to-end flows \
     through both the stack fabric and a reference-model fabric, and \
     report divergences localized to the introducing switch (hop \
     fingerprints, per-switch coverage)."
  in
  Cmd.v
    (Cmd.info "fabric" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ model_arg $ topo_arg $ switches_arg $ spines_arg $ seed_arg
        $ faults_arg $ fault_switch_arg $ budget_arg $ no_packet_out_arg $ jobs_arg
        $ shards_arg $ minimize_arg $ trace_file_arg $ save_corpus_arg))

(* --- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let run program seed fault_ids batches =
    let* _, _, mk = faulted program ~scale:0.1 ~seed fault_ids in
    let incidents, stats =
      Control_campaign.run (mk ())
        { Control_campaign.default_config with batches; seed }
    in
    Printf.printf "%d batches, %d updates (%d valid / %d invalid) in %.2fs\n"
      stats.cs_batches stats.cs_updates stats.cs_valid_updates stats.cs_invalid_updates
      stats.cs_duration;
    if stats.cs_novel_edges > 0 || stats.cs_corpus_seeds > 0 then
      Printf.printf "greybox: %d novel edges, %d corpus seeds\n"
        stats.cs_novel_edges stats.cs_corpus_seeds;
    List.iter (fun i -> Format.printf "%a@." Report.pp_incident i) incidents;
    Printf.printf "%d incident(s)\n" (List.length incidents);
    Ok ()
  in
  let doc = "Run the control-plane fuzzing campaign only (p4-fuzzer + oracle)." in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ model_arg $ seed_arg $ faults_arg $ batches_arg))

(* --- genpackets ---------------------------------------------------------------- *)

let genpackets_cmd =
  let run program seed scale cache_dir verbose trace_tables =
    let has_table name =
      List.exists (fun (t : Ast.table) -> t.t_name = name) program.Ast.p_tables
    in
    let* () =
      match List.filter (fun t -> not (has_table t)) trace_tables with
      | [] -> Ok ()
      | missing ->
          Error
            (Printf.sprintf "--trace: model %s has no table %s" program.Ast.p_name
               (String.concat ", " missing))
    in
    let entries = workload program scale seed in
    let t0 = Telemetry.Clock.now () in
    let encoding = Symexec.encode program entries in
    let goals =
      match trace_tables with
      | [] -> Packetgen.entry_coverage_goals encoding
      | tables -> Packetgen.trace_coverage_goals encoding ~tables
    in
    let goals =
      let facts = Analysis.facts ~check_restrictions:false program in
      Packetgen.prune_tainted_goals facts.Analysis.f_taint
        (Packetgen.prune_goals facts goals)
    in
    let cache = Option.map Cache.on_disk cache_dir in
    let result = Packetgen.generate ?cache encoding goals in
    Printf.printf "%d entries, %d goals: %d covered, %d uncoverable in %.2fs%s\n"
      (List.length entries) (List.length goals) result.covered result.uncoverable
      (Telemetry.Clock.duration ~since:t0)
      (if result.from_cache then " (cached)" else "");
    if verbose then
      List.iter
        (fun (tp : Packetgen.test_packet) ->
          match tp.tp_bytes with
          | Some bytes ->
              Printf.printf "%-70s port %d, %d bytes\n" tp.tp_goal tp.tp_port
                (String.length bytes)
          | None -> Printf.printf "%-70s UNSAT\n" tp.tp_goal)
        result.packets;
    Ok ()
  in
  let doc = "Generate test packets with p4-symbolic (entry coverage)." in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print one line per goal.")
  in
  let trace_tables =
    Arg.(
      value
      & opt (list string) []
      & info [ "trace" ] ~docv:"TABLES"
          ~doc:
            "Comma-separated table names: cover the cross-product of their \
             trace points instead of per-entry coverage (§5's selective \
             trace coverage).")
  in
  Cmd.v
    (Cmd.info "genpackets" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ model_arg $ seed_arg $ scale_arg $ cache_dir_arg $ verbose
       $ trace_tables))

(* --- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let run program min_severity no_restrictions json =
    let report =
      Analysis.run ~check_restrictions:(not no_restrictions) program
    in
    let all = report.Analysis.r_diagnostics in
    if json then print_endline (Analysis.to_json ~min_severity program report)
    else begin
      List.iter
        (fun d -> Format.printf "%a@." Diagnostics.pp d)
        (Diagnostics.filter ~min_severity all);
      Format.printf "%s: %a@." program.Ast.p_name Diagnostics.pp_summary all
    end;
    if Diagnostics.has_errors all then Error "lint errors reported"
    else Ok ()
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object instead of text: \
             $(b,{\"program\",\"diagnostics\":[{\"code\",\"severity\",\"loc\",\"message\"}],\
             \"errors\",\"warnings\",\"infos\"}). Diagnostics are \
             deterministically sorted; $(b,--severity) filters the list \
             but the totals always cover every finding.")
  in
  let severity_arg =
    let doc =
      "Only print findings at or above this severity: $(b,error), \
       $(b,warning), or $(b,info). The exit status always reflects \
       error-severity findings, whatever is printed."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("error", Diagnostics.Error); ("warning", Diagnostics.Warning);
               ("info", Diagnostics.Info) ])
          Diagnostics.Info
      & info [ "severity" ] ~docv:"SEVERITY" ~doc)
  in
  let no_restrictions =
    Arg.(
      value & flag
      & info [ "no-restrictions" ]
          ~doc:
            "Skip the BDD entry-restriction satisfiability check (the only \
             non-linear pass).")
  in
  let doc =
    "Statically analyse a P4 model: CFG + dataflow diagnostics (header \
     validity, reachability, constant propagation) and entry-restriction \
     satisfiability. Exits non-zero when error-severity findings exist."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ model_arg $ severity_arg $ no_restrictions $ json_arg))

(* --- trivial --------------------------------------------------------------------- *)

let trivial_cmd =
  let run program seed fault_ids =
    let* _, _, mk = faulted program ~scale:0.1 ~seed fault_ids in
    let results = Trivial_suite.run_all (mk ()) in
    List.iter
      (fun (t, ok) ->
        Printf.printf "%-28s %s\n" (Fault.trivial_test_to_string t)
          (if ok then "PASS" else "FAIL"))
      results;
    Ok ()
  in
  let doc = "Run the trivial integration-test suite of the paper's Table 2." in
  Cmd.v (Cmd.info "trivial" ~doc)
    Term.(term_result' ~usage:false (const run $ model_arg $ seed_arg $ faults_arg))

(* --- model ------------------------------------------------------------------------- *)

let model_cmd =
  let run program p4info =
    if p4info then Format.printf "%a@." P4info.pp (P4info.of_program program)
    else print_endline (Pretty.program_to_string program)
  in
  let doc = "Print a P4 model as P4-16-style source (the living documentation)." in
  let p4info_flag =
    Arg.(value & flag & info [ "p4info" ] ~doc:"Print the control-plane P4Info instead.")
  in
  Cmd.v (Cmd.info "model" ~doc) Term.(const run $ model_arg $ p4info_flag)

(* --- metrics ------------------------------------------------------------------------- *)

let metrics_cmd =
  let run program seed fault_ids =
    let* entries, _, mk = faulted program ~scale:0.1 ~seed fault_ids in
    let metrics = Switchv_core.Metrics.collect mk entries in
    Format.printf "%a@." Switchv_core.Metrics.pp metrics;
    let routing =
      Switchv_core.Metrics.feature metrics ~name:"routing (feature rollup)"
        ~tables:
          [ "ipv4_table"; "ipv6_table"; "nexthop_table"; "wcmp_group_table";
            "router_interface_table"; "neighbor_table" ]
    in
    Format.printf "%a@." Switchv_core.Metrics.pp [ routing ];
    Ok ()
  in
  let doc = "Per-table OKR coverage metrics (§7): fuzz handling and packet behaviour." in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(term_result' ~usage:false (const run $ model_arg $ seed_arg $ faults_arg))

(* --- catalogue ----------------------------------------------------------------------- *)

let catalogue_cmd =
  let run which =
    let entries p = Workload.generate ~seed:1 p Workload.small in
    let* faults =
      match which with
      | "pins" ->
          Ok
            (Catalogue.pins Switchv_sai.Middleblock.program
               (entries Switchv_sai.Middleblock.program))
      | "cerberus" ->
          Ok
            (Catalogue.cerberus Switchv_sai.Cerberus.program
               (entries Switchv_sai.Cerberus.program))
      | "topo" ->
          Ok
            (Catalogue.topo Switchv_sai.Middleblock.program
               (entries Switchv_sai.Middleblock.program))
      | other -> Error (Printf.sprintf "unknown catalogue %S (pins|cerberus|topo)" other)
    in
    List.iter (fun f -> Format.printf "%a@." Fault.pp f) faults;
    Printf.printf "%d faults\n" (List.length faults);
    Ok ()
  in
  let which =
    Arg.(
      value & pos 0 string "pins"
      & info [] ~docv:"STACK" ~doc:"pins, cerberus, or topo")
  in
  let doc = "List the seeded-bug catalogue (the paper's Table 1 population)." in
  Cmd.v (Cmd.info "catalogue" ~doc) Term.(term_result' ~usage:false (const run $ which))

(* --- top ----------------------------------------------------------------------------- *)

(* Pull one metric's value out of a Prometheus exposition body. *)
let prom_value body name =
  let lines = String.split_on_char '\n' body in
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name -> (
          match
            float_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some v -> Some v
          | None -> None)
      | _ -> None)
    lines

let top_cmd =
  let run host port interval once fetch_path lint =
    match fetch_path with
    | Some path -> (
        (* Raw mode: print one resource verbatim — the CI gate's curl. *)
        match Serve.fetch ~host ~port path with
        | Ok body ->
            print_string body;
            Ok ()
        | Error e -> Error (Printf.sprintf "GET %s: %s" path e))
    | None when lint -> (
        match Serve.fetch ~host ~port "/metrics" with
        | Ok body -> (
            match Prom.lint body with
            | [] ->
                Printf.printf "metrics exposition clean (%d bytes)\n"
                  (String.length body);
                Ok ()
            | errs ->
                List.iter (fun e -> Printf.eprintf "lint: %s\n" e) errs;
                Error
                  (Printf.sprintf "%d exposition-format error(s)"
                     (List.length errs)))
        | Error e -> Error (Printf.sprintf "GET /metrics: %s" e))
    | None ->
        let started = Telemetry.Clock.now () in
        let render body =
          let v name = prom_value body name in
          let iv name = Option.map int_of_float (v name) in
          let b = Buffer.create 128 in
          Printf.bprintf b "[switchv top] %6.1fs"
            (Telemetry.Clock.duration ~since:started);
          (match (iv "switchv_edges_covered", iv "switchv_edges_total") with
          | Some c, Some t when t > 0 ->
              Printf.bprintf b " | coverage %d/%d (%.1f%%)" c t
                (100. *. float_of_int c /. float_of_int t)
          | _ -> ());
          (match
             ( iv "switchv_symbolic_goals_covered",
               iv "switchv_symbolic_goals_uncoverable",
               iv "switchv_goals_total" )
           with
          | Some c, Some u, Some total when total > 0 ->
              Printf.bprintf b " | goals %d/%d" (c + u) total
          | _ -> ());
          (match iv "switchv_switch_packets_injected" with
          | Some n -> Printf.bprintf b " | packets %d" n
          | None -> ());
          (match iv "switchv_campaign_incidents" with
          | Some n -> Printf.bprintf b " | incidents %d" n
          | None -> ());
          Buffer.contents b
        in
        (* [polled]: some poll succeeded. A campaign that finished
           (endpoint gone) is not a failure for a watcher, but a first poll
           that never connects is. *)
        let rec loop ~polled =
          match Serve.fetch ~host ~port "/metrics" with
          | Error e when polled ->
              Printf.printf "[switchv top] endpoint gone (%s)\n" e;
              Ok ()
          | Error e -> Error (Printf.sprintf "GET /metrics: %s" e)
          | Ok body ->
              print_endline (render body);
              if once then Ok ()
              else begin
                Thread.delay interval;
                loop ~polled:true
              end
        in
        loop ~polled:false
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Host serving the metrics endpoint.")
  in
  let port_arg =
    Arg.(
      required & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Port of a running $(b,validate --metrics-port).")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between polls.")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one status line and exit.")
  in
  let fetch_arg =
    let doc =
      "Print the raw body of $(docv) (e.g. $(b,/metrics), \
       $(b,/snapshot.json)) and exit — a dependency-free curl for scripts \
       and the CI gate."
    in
    Arg.(value & opt (some string) None & info [ "fetch" ] ~docv:"PATH" ~doc)
  in
  let lint_arg =
    let doc =
      "Fetch $(b,/metrics) once and check it against the Prometheus text \
       exposition format; exit non-zero on any violation."
    in
    Arg.(value & flag & info [ "lint" ] ~doc)
  in
  let doc =
    "Watch a running campaign through its $(b,--metrics-port) endpoint: a \
     periodic one-line summary, a raw resource fetch, or an \
     exposition-format lint."
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ host_arg $ port_arg $ interval_arg $ once_arg $ fetch_arg $ lint_arg))

(* --- trace-export --------------------------------------------------------------------- *)

let trace_export_cmd =
  let run input chrome output =
    if not (Sys.file_exists input) then
      Error (Printf.sprintf "no such trace file: %s" input)
    else begin
      let events, skipped = Obs_trace.read_file input in
      let st = Obs_trace.stitch events in
      Printf.eprintf
        "[trace-export] %d span(s), %d root(s), %d orphan(s), %d id block(s)%s\n%!"
        st.Obs_trace.st_spans st.Obs_trace.st_roots st.Obs_trace.st_orphans
        st.Obs_trace.st_blocks
        (if skipped > 0 then Printf.sprintf ", %d unparseable line(s)" skipped
         else "");
      if chrome then begin
        let json = Obs_trace.to_chrome events in
        (match output with
        | Some path ->
            let oc = open_out path in
            output_string oc json;
            output_char oc '\n';
            close_out oc;
            Printf.eprintf "[trace-export] wrote %s\n%!" path
        | None -> print_endline json);
        if st.Obs_trace.st_orphans > 0 then
          Error
            (Printf.sprintf "%d orphan span(s): trace is not a stitched tree"
               st.Obs_trace.st_orphans)
        else Ok ()
      end
      else Ok ()
    end
  in
  let input_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "A span trace written by $(b,validate --trace) or $(b,fabric \
             --trace).")
  in
  let chrome_arg =
    let doc =
      "Convert to the Chrome trace-event JSON array (load in \
       chrome://tracing or Perfetto; one lane per process: lane 0 is the \
       campaign parent, lane N is forked worker N)."
    in
    Arg.(value & flag & info [ "chrome" ] ~doc)
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the converted trace here instead of stdout.")
  in
  let doc =
    "Inspect a campaign trace: stitch statistics (spans, roots, orphans, \
     span-id blocks) and optional conversion to Chrome trace-event format."
  in
  Cmd.v
    (Cmd.info "trace-export" ~doc)
    Term.(
      term_result' ~usage:false
        (const run $ input_arg $ chrome_arg $ output_arg))

let () =
  (* Ctrl-C raises [Sys.Break] so in-flight work unwinds through its
     finalizers: the trace sink truncates + renames, the metrics server
     closes its socket, the pool reaps its workers. *)
  Sys.catch_break true;
  let doc = "SwitchV: automated SDN switch validation with P4 models" in
  let info = Cmd.info "switchv" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ validate_cmd; fabric_cmd; replay_cmd; fuzz_cmd; genpackets_cmd; lint_cmd;
            trivial_cmd; model_cmd; metrics_cmd; catalogue_cmd; top_cmd;
            trace_export_cmd ]))
