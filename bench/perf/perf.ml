(* End-to-end and per-layer benchmark for SwitchV campaigns.

     dune exec -- ./bench/perf/perf.exe --workload W --seed N --seconds S --trace 0|1
     dune exec -- ./bench/perf/perf.exe --smoke --benchmark BENCHMARK.json

   One invocation runs one workload in this process, on one thread and
   with no forked workers. It sets up several times (the median is
   [setup_s]), runs the workload's untimed warm-up ops, then times ops for
   about [--seconds] seconds, stopping at a pass boundary so every input
   is sampled equally often. With [--trace 1] the timed phase gets half
   the time and the other half replays the same inputs through the
   outside-in replica in [Traced], whose spans give the per-layer metrics; the JSONL
   trace is written under [--trace-dir]. The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. The exit code is
   0 only when every check held. See README.md. *)

module Telemetry = Switchv_telemetry.Telemetry
module Json = Telemetry.Json
module Jsonp = Switchv_telemetry.Jsonp
module Obs_trace = Switchv_obs.Trace

let now = Telemetry.Clock.now

(* Set-up runs at least [min_setups] times and until the repeats add up to
   [setup_budget_s] (at most [max_setups] times): the median of a set-up
   of well under a millisecond is only steady over a window that long.
   The last set-up prepares the ops. *)
let min_setups = 3
let max_setups = 2000
let setup_budget_s = 0.5

(* The timed phase runs every input at least this many times. *)
let min_passes = 3

(* A traced phase stops at the next op once it holds this many spans. *)
let span_cap = 100_000

(* --- statistics ------------------------------------------------------------ *)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float (List.length xs)

(* --- running ops -------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  signatures : (int, string) Hashtbl.t;  (* input -> first signature seen *)
}

(* Every op counts as attempted; it fails when its own check fails or when
   it disagrees with an earlier op on the same input. *)
let check tally ~pass ~label index (r : Workloads.result) =
  tally.attempted <- tally.attempted + 1;
  let input = index mod pass in
  let sg = r.signature () in
  let agrees =
    match Hashtbl.find_opt tally.signatures input with
    | None ->
        Hashtbl.replace tally.signatures input sg;
        true
    | Some first when first = sg -> true
    | Some first ->
        Printf.eprintf
          "perf: %s op %d disagrees with an earlier run of input %d:\n  %s\n  %s\n%!" label
          index input first sg;
        false
  in
  if not r.ok then Printf.eprintf "perf: %s op %d failed its check: %s\n%!" label index sg;
  if not (r.ok && agrees) then tally.failed <- tally.failed + 1

(* What a phase keeps of its ops: latencies in op order and summed work
   and counts. Results are checked and dropped as they arrive, so the
   heap the timed code runs against does not grow with the run. *)
type phase = {
  mutable ops : int;
  mutable seconds : float array;  (* [0, ops) used *)
  mutable work : int;
  mutable peak_words : int;  (* largest major heap seen after an op *)
  counts : (string, float) Hashtbl.t;
}

(* Runs ops 0, 1, 2, ... and stops before op [i] when [stop i] holds.
   [stop] is asked at pass boundaries only, unless [any_op] is set. *)
let run_phase ?(any_op = false) ?(reset = true) tally ~label ~pass ~stop run =
  let ph =
    { ops = 0; seconds = Array.make 1024 0.; work = 0; peak_words = 0;
      counts = Hashtbl.create 16 }
  in
  let rec go i =
    if i > 0 && (any_op || i mod pass = 0) && stop i then ph
    else begin
      if reset && i mod pass = 0 then Telemetry.reset (Telemetry.get ());
      let t0 = now () in
      let r = run i in
      let dt = now () -. t0 in
      if ph.ops = Array.length ph.seconds then
        ph.seconds <- Array.append ph.seconds (Array.make ph.ops 0.);
      ph.seconds.(ph.ops) <- dt;
      ph.ops <- ph.ops + 1;
      ph.work <- ph.work + r.Workloads.work;
      ph.peak_words <- max ph.peak_words (Gc.quick_stat ()).heap_words;
      List.iter
        (fun (k, v) ->
          let before = Option.value ~default:0. (Hashtbl.find_opt ph.counts k) in
          Hashtbl.replace ph.counts k (v +. before))
        r.counts;
      check tally ~pass ~label i r;
      go (i + 1)
    end
  in
  go 0

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Other tenants of the machine only ever add time to an op, and their
   load comes and goes within seconds, so each input's time is the fastest
   of its runs in the timed phase (at least [min_passes] of them). *)
let best_per_input ~pass timed =
  Array.init pass (fun j ->
      let best = ref infinity in
      let i = ref j in
      while !i < timed.ops do
        best := Float.min !best timed.seconds.(!i);
        i := !i + pass
      done;
      !best)

(* [peak_heap_mb] is the timed phase's own peak, not the process's: how
   many set-ups ran, and the garbage they left, must not move it. *)
let end_to_end ~setup_times ~pass timed =
  let best = best_per_input ~pass timed in
  let passes = timed.ops / pass in
  let words = float (timed.peak_words * (Sys.word_size / 8)) in
  [ m "setup_s" "s" (median (Array.of_list setup_times));
    m "op_ms_p50" "ms" (1000. *. median best);
    m "work_per_s" "1/s" (float (timed.work / passes) /. Array.fold_left ( +. ) 0. best);
    m "peak_heap_mb" "MB" (words /. 1048576.) ]

(* Spans whose self time and self allocation the trace reports per op, as
   "<span>_ms" and "<span>_kwords". *)
let layer_spans =
  [ "switch.create"; "switch.push_p4info"; "switch.write"; "switch.read"; "switch.inject";
    "switch.packet_out"; "fuzzer.create"; "fuzzer.sweep"; "fuzzer.next_batch";
    "fuzzer.greybox"; "oracle.create"; "oracle.judge_batch"; "oracle.judge";
    "p4runtime.model_state"; "symbolic.encode"; "symbolic.goals"; "analysis.facts";
    "symbolic.generate"; "bmv2.run"; "bmv2.shadow_run"; "triage.cluster"; "obs.coverage";
    "telemetry.snapshot" ]

(* Spans the library itself times inside [Stack.write], read from the
   default registry's histograms. *)
let library_spans =
  [ ("switch.server_validate_ms", "switch.server.validate");
    ("switch.syncd_sync_ms", "switch.syncd.sync") ]

let solver_stats =
  [ "gates"; "sat_vars"; "conflicts"; "decisions"; "propagations"; "restarts"; "learned" ]

let dataplane_counters =
  [ "oracle.dataplane_fast"; "oracle.dataplane_set_admits"; "oracle.dataplane_escalations" ]

let per_layer ~tracer ~traced ~timed ~gc_majors =
  let n = float traced.ops in
  let per_op x = x /. n in
  let layers = Spans.layers tracer in
  let layer name = List.assoc_opt name layers in
  let field f name = Option.fold ~none:0. ~some:f (layer name) in
  let self_s = field (fun (l : Spans.layer) -> l.self_s) in
  let roots = Spans.roots tracer in
  let root_s = sum (List.map Spans.duration roots) in
  let core_self =
    sum
      (List.filter_map
         (fun (name, (l : Spans.layer)) ->
           if String.starts_with ~prefix:"core." name then Some l.self_s else None)
         layers)
  in
  let batch_quarters =
    List.map
      (fun ds ->
        let a = Array.of_list ds in
        let q = max 1 (Array.length a / 4) in
        let avg off = mean (Array.to_list (Array.sub a off q)) in
        (avg 0, avg (Array.length a - q)))
      (Spans.durations_by_root tracer "core.batch")
  in
  let count key = Option.value ~default:0. (Hashtbl.find_opt traced.counts key) in
  let hits = count "cache_hits" and misses = count "cache_misses" in
  let snap = Telemetry.snapshot (Telemetry.get ()) in
  let hist_s name =
    Option.fold ~none:0. ~some:(fun (h : Telemetry.histogram_summary) -> h.hs_sum)
      (List.assoc_opt name snap.snap_histograms)
  in
  (* The timed phase ran the same inputs first, in the same order. *)
  let paired =
    Array.fold_left ( +. ) 0. (Array.sub timed.seconds 0 (min traced.ops timed.ops))
  in
  let shadow_s = field (fun (l : Spans.layer) -> l.total_s) "bmv2.shadow_run" in
  let root_words = sum (List.map (fun (s : Spans.span) -> s.words) roots) in
  List.concat_map
    (fun name ->
      [ m (name ^ "_ms") "ms" (per_op (1000. *. self_s name));
        m (name ^ "_kwords") "kwords"
          (per_op (field (fun (l : Spans.layer) -> l.self_words /. 1000.) name)) ])
    layer_spans
  @ List.map
      (fun (metric, hist) -> m metric "ms" (per_op (1000. *. hist_s hist)))
      library_spans
  @ [ m "core.unattributed_pct" "%"
        (if root_s > 0. then 100. *. core_self /. root_s else 0.);
      m "core.op_kwords" "kwords" (per_op (root_words /. 1000.));
      m "core.batch_ms_q1" "ms" (1000. *. mean (List.map fst batch_quarters));
      m "core.batch_ms_q4" "ms" (1000. *. mean (List.map snd batch_quarters));
      m "core.incidents" "count" (per_op (count "core.incidents"));
      m "symbolic.goals" "count" (per_op (count "symbolic.goals"));
      m "symbolic.cache_hit_ratio" "ratio"
        (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      m "p4runtime.state_entries" "count" (per_op (count "p4runtime.state_entries"));
      m "gc.major_collections" "count" gc_majors;
      m "bench.trace_overhead_pct" "%"
        (if paired > 0. then 100. *. ((root_s -. shadow_s) /. paired -. 1.) else 0.) ]
  @ List.map (fun k -> m ("smt." ^ k) "count" (per_op (count ("smt." ^ k)))) solver_stats
  @ List.map
      (fun k -> m k "count" (per_op (float (Telemetry.counter (Telemetry.get ()) k))))
      dataplane_counters

let print_layer_table tracer ~ops =
  Printf.printf "%-24s %9s %11s %11s %11s\n" "span" "calls" "total ms" "self ms" "mean us";
  List.iter
    (fun (name, (l : Spans.layer)) ->
      Printf.printf "%-24s %9d %11.2f %11.2f %11.2f\n" name l.calls (1000. *. l.total_s)
        (1000. *. l.self_s)
        (1e6 *. l.total_s /. float l.calls))
    (Spans.layers tracer);
  Printf.printf "(%d traced ops)\n" ops

(* --- one workload --------------------------------------------------------- *)

type budget = Seconds of float | Passes of int

type outcome = {
  e2e : metric list;
  layers : metric list;  (* empty unless traced *)
  tracer : Spans.t;
}

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

let new_tally () = { attempted = 0; failed = 0; signatures = Hashtbl.create 64 }

let execute (w : Workloads.t) tally ~smoke ~seed ~budget ~trace =
  let r = w.make ~smoke ~seed in
  let setup_budget = match budget with Seconds _ -> setup_budget_s | Passes _ -> 0. in
  let rec set_up times =
    let t0 = now () in
    let p = r.setup () in
    let times = (now () -. t0) :: times in
    tally.attempted <- tally.attempted + 1;
    if not p.checked then begin
      tally.failed <- tally.failed + 1;
      prerr_endline "perf: set-up check failed"
    end;
    let n = List.length times in
    if n >= max_setups || (n >= min_setups && sum times >= setup_budget) then (times, p)
    else set_up times
  in
  let setup_times, p = set_up [] in
  if r.warmup_ops > 0 then
    ignore
      (run_phase tally ~label:"warm-up" ~any_op:true ~pass:r.pass
         ~stop:(fun i -> i >= r.warmup_ops) p.op);
  (* Every run starts timing after the same full major collection. *)
  Gc.compact ();
  let share = if trace then 0.5 else 1.0 in
  let started = now () in
  (* Stop at the pass boundary nearest the deadline, so that a run whose
     pass takes most of [--seconds] always measures the same number of
     passes. *)
  let stop =
    match budget with
    | Seconds sec ->
        fun i ->
          let elapsed = now () -. started and passes = i / r.pass in
          passes >= min_passes
          && elapsed +. (elapsed /. float passes /. 2.) >= sec *. share
    | Passes k -> fun i -> i >= k * r.pass
  in
  let gc0 = (Gc.quick_stat ()).major_collections in
  let timed = run_phase tally ~label:"timed" ~pass:r.pass ~stop p.op in
  let gc_majors = float ((Gc.quick_stat ()).major_collections - gc0) /. float timed.ops in
  let e2e = end_to_end ~setup_times ~pass:r.pass timed in
  let tracer = Spans.create () in
  let layers =
    if not trace then []
    else begin
      Telemetry.reset (Telemetry.get ());
      let started = now () in
      let stop i =
        i >= timed.ops
        || Spans.count tracer >= span_cap
        ||
        match budget with
        | Seconds sec -> now () -. started >= sec *. share
        | Passes _ -> false
      in
      let traced =
        run_phase tally ~label:"traced" ~any_op:true ~reset:false ~pass:r.pass ~stop
          (p.traced tracer)
      in
      per_layer ~tracer ~traced ~timed ~gc_majors
    end
  in
  { e2e; layers; tracer }

let result_json ~correct ~attempted ~failed metrics =
  Json.obj
    [ ("correct", Json.bool correct);
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun x ->
               ( x.name,
                 Json.obj [ ("value", Json.num x.value); ("unit", Json.str x.unit_) ] ))
             metrics) ) ]

let print_metrics metrics =
  List.iter (fun x -> Printf.printf "  %-32s %14.6g %s\n" x.name x.value x.unit_) metrics

let find_workload name =
  match List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.all with
  | Some w -> w
  | None ->
      Printf.eprintf "perf: unknown workload %S (expected one of: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2

let run_one ~workload ~seed ~seconds ~trace ~trace_dir =
  let w = find_workload workload in
  let tally = new_tally () in
  let t0 = now () in
  match execute w tally ~smoke:false ~seed ~budget:(Seconds seconds) ~trace with
  | o ->
      let metrics = if trace then o.layers else o.e2e in
      Printf.printf "%s seed %d: %d ops attempted, %d failed, %.1f s; work unit: %s\n"
        w.name seed tally.attempted tally.failed (now () -. t0) w.unit_name;
      if trace then begin
        print_layer_table o.tracer ~ops:(List.length (Spans.roots o.tracer));
        mkdir_p trace_dir;
        let path =
          Filename.concat trace_dir (Printf.sprintf "%s-seed%d.jsonl" w.name seed)
        in
        Spans.write_jsonl o.tracer path;
        Printf.printf "trace: %s\n" path
      end;
      print_metrics metrics;
      let correct = tally.failed = 0 in
      print_endline
        (result_json ~correct ~attempted:tally.attempted ~failed:tally.failed metrics);
      exit (if correct then 0 else 1)
  | exception e ->
      (* A raised exception fails the whole run. *)
      Printf.eprintf "perf: %s raised %s\n%!" w.name (Printexc.to_string e);
      let attempted = max 1 tally.attempted in
      print_endline (result_json ~correct:false ~attempted ~failed:attempted []);
      exit 1

(* --- smoke ------------------------------------------------------------------ *)

let benchmark_names path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Jsonp.parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
      let names key =
        match Option.bind (Jsonp.member key j) Jsonp.to_arr with
        | Some xs ->
            List.filter_map (fun x -> Option.bind (Jsonp.member "name" x) Jsonp.to_str) xs
        | None -> failwith (Printf.sprintf "%s: no %s list" path key)
      in
      (names "end_to_end", names "per_layer")

(* Every workload at tiny sizes, one pass each way: the checks and the
   output format, not the timings. *)
let smoke ~benchmark ~trace_dir =
  let e2e_names, layer_names = benchmark_names benchmark in
  mkdir_p trace_dir;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Workloads.t) ->
      let tally = new_tally () in
      match execute w tally ~smoke:true ~seed:1 ~budget:(Passes 1) ~trace:true with
      | exception e -> problem "%s raised %s" w.name (Printexc.to_string e)
      | o ->
          if tally.failed > 0 then problem "%s: %d failed ops" w.name tally.failed;
          List.iter
            (fun (names, metrics) ->
              List.iter
                (fun name ->
                  if not (List.exists (fun x -> x.name = name) metrics) then
                    problem "%s does not emit %s" w.name name)
                names;
              let json =
                result_json ~correct:true ~attempted:tally.attempted ~failed:tally.failed
                  metrics
              in
              match Json.check json with
              | Ok () -> ()
              | Error e -> problem "%s: invalid JSON: %s" w.name e)
            [ (e2e_names, o.e2e); (layer_names, o.layers) ];
          let path = Filename.concat trace_dir (w.name ^ ".jsonl") in
          Spans.write_jsonl o.tracer path;
          let events, skipped = Obs_trace.read_file path in
          let st = Obs_trace.stitch events in
          if skipped > 0 || st.st_orphans > 0 || st.st_spans = 0 then
            problem "%s: trace has %d spans, %d orphans, %d unparseable lines" w.name
              st.st_spans st.st_orphans skipped;
          (match Json.check (Obs_trace.to_chrome events) with
          | Ok () -> ()
          | Error e -> problem "%s: Chrome export is not JSON: %s" w.name e);
          let unattributed =
            List.find (fun x -> x.name = "core.unattributed_pct") o.layers
          in
          Printf.printf "%s: %d ops, %d spans, %.1f%% unattributed\n%!" w.name
            tally.attempted st.st_spans unattributed.value)
    Workloads.all;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev ps);
      exit 1

(* --- command line ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_mode = ref false and benchmark = ref "BENCHMARK.json" in
  let trace_dir = ref ".bench_build/perf" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed phase runs");
      ("--trace", Arg.Set_int trace, "0|1 emit per-layer metrics from a traced rep");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write JSONL");
      ("--smoke", Arg.Set smoke_mode, " run every workload tiny and check the output");
      ("--benchmark", Arg.Set_string benchmark, "FILE metric list the smoke run checks") ]
  in
  let usage = "perf.exe --workload W --seed N --seconds S --trace 0|1 | --smoke" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_mode then smoke ~benchmark:!benchmark ~trace_dir:!trace_dir
  else if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end
  else
    run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~trace_dir:!trace_dir
