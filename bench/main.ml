(* The SwitchV evaluation harness: regenerates every table and figure of
   the paper's evaluation (§6), plus ablation benches for the design
   choices called out in DESIGN.md. Per-layer kernel costs come from the
   campaign benchmark in bench/perf, not from here.

     dune exec bench/main.exe              # every artifact
     dune exec bench/main.exe -- table1    # a single artifact
     dune exec bench/main.exe -- quick     # reduced scale (CI-sized)

   Every artifact is one entry of [registry] at the bottom of this file.
   The paper's tables and figures print in the paper's layout. The gated
   measurement artifacts return rows and gate checks instead: one shared
   path prints both as tables, writes BENCH_<name>.json in full mode and
   fails the run on any failed check.

   Absolute numbers differ from the paper (simulated switch + our own SMT
   solver vs. a hardware testbed + Z3); the shapes are the reproduction
   target. Paper values are printed alongside for comparison. *)

module Middleblock = Switchv_sai.Middleblock
module Wan = Switchv_sai.Wan
module Cerberus = Switchv_sai.Cerberus
module Workload = Switchv_sai.Workload
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Harness = Switchv_core.Harness
module Report = Switchv_core.Report
module Control_campaign = Switchv_core.Control_campaign
module Data_campaign = Switchv_core.Data_campaign
module Fabric_campaign = Switchv_core.Fabric_campaign
module Topo = Switchv_topo.Topo
module Routes = Switchv_topo.Routes
module Trivial_suite = Switchv_core.Trivial_suite
module Cache = Switchv_symbolic.Cache
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Fuzzer = Switchv_fuzzer.Fuzzer
module Oracle = Switchv_oracle.Oracle
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module P4info = Switchv_p4ir.P4info
module Validate = Switchv_p4runtime.Validate
module Request = Switchv_p4runtime.Request
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Status = Switchv_p4runtime.Status
module Rng = Switchv_bitvec.Rng
module Bitvec = Switchv_bitvec.Bitvec
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Jsonp = Switchv_telemetry.Jsonp

let quick = ref false

let banner title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let now () = Telemetry.Clock.now ()

(* ------------------------------------------------------------------ *)
(* Gated artifacts: rows and checks, one table printer, one schema     *)
(* ------------------------------------------------------------------ *)

(* A row is a JSON object. Floats are rounded as the table shows them,
   so the printed table and the committed artifact agree. Rows of an
   artifact with two tables carry a "part" key. *)
let num ?(digits = 0) f =
  let scale = 10. ** float_of_int digits in
  Jsonp.Num (Float.round (f *. scale) /. scale)

let int n = Jsonp.Num (float_of_int n)
let str s = Jsonp.Str s
let bool b = Jsonp.Bool b
let int_at key row = Option.value ~default:0 (Option.bind (Jsonp.member key row) Jsonp.to_int)
let bool_at key row = Jsonp.member key row = Some (Jsonp.Bool true)
let total key rows = List.fold_left (fun acc row -> acc + int_at key row) 0 rows

(* A gate check is a row too: the measured value and the verdict, decided
   on the unrounded measurement. *)
let check name value pass =
  Jsonp.Obj [ ("check", str name); ("value", value); ("pass", bool pass) ]

(* One aligned table per part, in the order the parts first appear; the
   columns are the keys of a part's first row. *)
let print_table rows =
  let part_of row = Jsonp.member "part" row in
  let parts =
    List.fold_left
      (fun acc row -> if List.mem (part_of row) acc then acc else acc @ [ part_of row ])
      [] rows
  in
  let cell = function Jsonp.Str s -> s | v -> Telemetry.Json.to_string v in
  let fields = function Jsonp.Obj kvs -> List.remove_assoc "part" kvs | _ -> [] in
  List.iter
    (fun p ->
      let group = List.filter (fun row -> part_of row = p) rows in
      let lines =
        List.map fst (fields (List.hd group))
        :: List.map (fun row -> List.map (fun (_, v) -> cell v) (fields row)) group
      in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map (fun _ -> 0) (List.hd lines))
          lines
      in
      print_newline ();
      Option.iter (fun p -> Printf.printf "[%s]\n" (cell p)) p;
      List.iter
        (fun line ->
          print_endline
            (String.concat "  "
               (List.mapi
                  (fun i (w, c) ->
                    if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c)
                  (List.combine widths line))))
        lines)
    parts

(* The committed BENCH_*.json artifacts record full-mode runs, one row per
   line. Quick mode keeps every gate but leaves them alone, so a CI pass
   never overwrites a full measurement with a reduced-scale one. *)
let publish name (rows, gate) =
  print_table rows;
  print_table gate;
  let path = "BENCH_" ^ name ^ ".json" in
  if !quick then Printf.printf "quick mode: %s left unchanged\n" path
  else begin
    let lines xs =
      "[\n  " ^ String.concat ",\n  " (List.map Telemetry.Json.to_string xs) ^ "\n]"
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          (Telemetry.Json.obj
             [ ("artifact", Telemetry.Json.str name); ("rows", lines rows);
               ("gate", lines gate) ]);
        output_char oc '\n');
    Printf.printf "wrote %s\n" path
  end;
  match List.filter (fun c -> not (bool_at "pass" c)) gate with
  | [] -> ()
  | failed ->
      failwith
        (Printf.sprintf "%s gate failed: %s" name
           (String.concat "; "
              (List.map Telemetry.Json.to_string failed)))

(* ------------------------------------------------------------------ *)
(* Shared detection machinery for Table 1 / Table 2 / Figure 7         *)
(* ------------------------------------------------------------------ *)

type stack_kind = Pins | Cerb

let program_of = function Pins -> Middleblock.program | Cerb -> Cerberus.program

let workload_of kind =
  let profile =
    match (kind, !quick) with
    | _, true -> Workload.small
    | Pins, false -> Workload.scaled 0.25 Workload.inst1
    | Cerb, false -> Workload.scaled 0.25 Workload.inst2
  in
  Workload.generate ~seed:42 (program_of kind) profile

let catalogue_of kind entries =
  match kind with
  | Pins -> Catalogue.pins (program_of kind) entries
  | Cerb -> Catalogue.cerberus (program_of kind) entries

type detection = {
  fault : Fault.t;
  found_by : Report.detector option;
  trivial : Fault.trivial_test option;   (* first trivial test that fails *)
}

(* Memoised per stack kind so table1/table2/figure7 share one pass. *)
let detections_memo : (stack_kind, detection list) Hashtbl.t = Hashtbl.create 2

let detections kind =
  match Hashtbl.find_opt detections_memo kind with
  | Some d -> d
  | None ->
      let program = program_of kind in
      let entries = workload_of kind in
      let faults = catalogue_of kind entries in
      let cache = Cache.in_memory () in
      let control_config =
        { Control_campaign.default_config with
          batches = (if !quick then 2 else 4);
          seed = 99 }
      in
      let harness_config =
        { (Harness.default_config entries) with
          control = control_config;
          cache = Some cache }
      in
      let total = List.length faults in
      let t0 = now () in
      let results =
        List.mapi
          (fun i fault ->
            if i mod 20 = 0 then
              Printf.printf "  ... campaign %d/%d (%.0fs elapsed)\n%!" i total
                (now () -. t0);
            let mk () = Stack.create ~faults:[ fault ] program in
            let found_by = Harness.detect mk harness_config in
            let trivial = Trivial_suite.run (mk ()) in
            { fault; found_by; trivial })
          faults
      in
      Printf.printf "  %d campaigns in %.1fs\n%!" total (now () -. t0);
      Hashtbl.replace detections_memo kind results;
      results

(* ------------------------------------------------------------------ *)
(* Table 1: bugs found by component                                    *)
(* ------------------------------------------------------------------ *)

let pins_components =
  [ Fault.P4runtime_server; Fault.Gnmi; Fault.Orchestration_agent; Fault.Syncd;
    Fault.Switch_linux; Fault.Hardware; Fault.P4_toolchain; Fault.Input_p4_program ]

let cerb_components =
  [ Fault.Vendor_software; Fault.Hardware; Fault.Input_p4_program;
    Fault.Bmv2_simulator ]

(* Paper's Table 1 values: (component, total, fuzzer, symbolic). *)
let paper_table1_pins =
  [ ("P4Runtime Server", 47, 11, 36); ("gNMI", 2, 0, 2);
    ("Orchestration Agent", 24, 12, 11); ("SyncD Binary", 23, 10, 13);
    ("Switch Linux", 9, 0, 9); ("Hardware", 1, 1, 0); ("P4 Toolchain", 2, 1, 1);
    ("Input P4 Program", 15, 2, 13) ]

let paper_table1_cerb =
  [ ("Switch software", 24, 14, 10); ("Hardware", 1, 0, 1);
    ("Input P4 Program", 3, 0, 3); ("BMv2 P4 Simulator", 4, 4, 0) ]

let print_table1_for kind title components paper =
  let results = detections kind in
  Printf.printf "\n%s\n" title;
  Printf.printf "%-22s | %17s | %23s\n" "" "measured" "paper";
  Printf.printf "%-22s | %5s %6s %4s | %5s %6s %4s %6s\n" "Component" "found"
    "fuzzer" "symb" "bugs" "fuzzer" "symb" "seeded";
  Printf.printf "%s\n" (String.make 78 '-');
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun component ->
      let of_component =
        List.filter (fun d -> d.fault.Fault.component = component) results
      in
      let seeded = List.length of_component in
      let fuzzer =
        List.length
          (List.filter (fun d -> d.found_by = Some Report.Fuzzer) of_component)
      in
      let symbolic =
        List.length
          (List.filter (fun d -> d.found_by = Some Report.Symbolic) of_component)
      in
      let name = Fault.component_to_string component in
      let pb, pf, ps =
        match List.find_opt (fun (n, _, _, _) -> n = name) paper with
        | Some (_, b, f, s) -> (b, f, s)
        | None -> (0, 0, 0)
      in
      let tf, tu, ts, tt = !totals in
      totals := (tf + fuzzer + symbolic, tu + fuzzer, ts + symbolic, tt + seeded);
      Printf.printf "%-22s | %5d %6d %4d | %5d %6d %4d %6d\n" name
        (fuzzer + symbolic) fuzzer symbolic pb pf ps seeded)
    components;
  let found, fz, sy, seeded = !totals in
  Printf.printf "%s\n" (String.make 78 '-');
  let paper_total, paper_fz, paper_sy =
    List.fold_left (fun (a, b, c) (_, x, y, z) -> (a + x, b + y, c + z)) (0, 0, 0) paper
  in
  Printf.printf "%-22s | %5d %6d %4d | %5d %6d %4d %6d\n" "Total" found fz sy
    paper_total paper_fz paper_sy seeded;
  let missed = List.filter (fun d -> d.found_by = None) results in
  if missed <> [] then begin
    Printf.printf "\nundetected seeded faults (%d):\n" (List.length missed);
    List.iter (fun d -> Format.printf "  %a@." Fault.pp d.fault) missed
  end

let table1 () =
  banner "Table 1: Bugs found by SwitchV by component";
  print_table1_for Pins "PINS" pins_components paper_table1_pins;
  print_table1_for Cerb "Cerberus" cerb_components paper_table1_cerb;
  print_endline
    "\nNote: the paper's PINS component column sums to 123 while its detector\n\
     columns sum to 122 (47+2+24+23+9+1+2+15 = 123 vs 37+85 = 122); our\n\
     catalogue follows the detector-consistent total of 122."

(* ------------------------------------------------------------------ *)
(* Table 2: which bugs the trivial test suite finds                    *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [ ("Set P4Info", 22, 0); ("Table entry programming", 15, 0);
    ("Read all tables", 10, 2); ("Packet-in", 12, 4); ("Packet-out", 4, 1);
    ("Packet forwarding", 0, 0); ("Not found by any test above", 60, 25) ]

let table2 () =
  banner "Table 2: Bugs findable by the trivial test suite";
  let count kind =
    let results = detections kind in
    (* Restrict to bugs SwitchV found, as the paper does. *)
    let found = List.filter (fun d -> d.found_by <> None) results in
    let by_test test =
      List.length (List.filter (fun d -> d.trivial = Some test) found)
    in
    let none = List.length (List.filter (fun d -> d.trivial = None) found) in
    (List.map by_test Fault.trivial_tests @ [ none ], List.length found)
  in
  let pins_counts, pins_total = count Pins in
  let cerb_counts, cerb_total = count Cerb in
  Printf.printf "%-30s | %13s | %13s | %13s\n" "Test" "PINS" "Cerberus" "paper (P/C)";
  Printf.printf "%s\n" (String.make 80 '-');
  let labels =
    List.map Fault.trivial_test_to_string Fault.trivial_tests
    @ [ "Not found by any test above" ]
  in
  List.iteri
    (fun i label ->
      let p = List.nth pins_counts i and c = List.nth cerb_counts i in
      let paper_p, paper_c =
        match List.find_opt (fun (n, _, _) -> n = label) paper_table2 with
        | Some (_, x, y) -> (x, y)
        | None -> (0, 0)
      in
      Printf.printf "%-30s | %4d (%3.0f%%)   | %4d (%3.0f%%)   | %3d%% / %3d%%\n" label p
        (100. *. float_of_int p /. float_of_int (max 1 pins_total))
        c
        (100. *. float_of_int c /. float_of_int (max 1 cerb_total))
        (100 * paper_p / 122) (100 * paper_c / 32))
    labels;
  Printf.printf "(over %d PINS and %d Cerberus bugs found by SwitchV)\n" pins_total
    cerb_total

(* ------------------------------------------------------------------ *)
(* Table 3: performance of p4-symbolic and p4-fuzzer                   *)
(* ------------------------------------------------------------------ *)

let table3_symbolic name program profile =
  let entries = Workload.generate ~seed:5 program profile in
  let cache = Cache.in_memory () in
  let run c =
    let config =
      { (Data_campaign.default_config entries) with
        cache = c;
        max_incidents = 1000;
        extra_goals = Data_campaign.exploratory_goals }
    in
    Data_campaign.run (Stack.create program) config
  in
  let incidents_cold, stats_cold = run (Some cache) in
  let incidents_warm, stats_warm = run (Some cache) in
  assert (incidents_cold = [] && incidents_warm = []);
  (name, List.length entries, stats_cold, stats_warm)

let table3 () =
  banner "Table 3: time to run p4-symbolic and p4-fuzzer";
  let scale = if !quick then 0.1 else 1.0 in
  let rows =
    [ table3_symbolic "Inst1 (middleblock)" Middleblock.program
        (Workload.scaled scale Workload.inst1);
      table3_symbolic "Inst2 (WAN)" Wan.program (Workload.scaled scale Workload.inst2) ]
  in
  Printf.printf "%-20s %8s %20s %9s   %s\n" "P4 Prog." "Entries" "Generation (w/c)"
    "Testing" "paper: gen (w/c) / testing";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iteri
    (fun i (name, entries, (cold : Report.data_stats), (warm : Report.data_stats)) ->
      let paper = if i = 0 then "413s (14s) / 58s" else "1099s (6s) / 64s" in
      Printf.printf "%-20s %8d %10.2fs (%.2fs) %8.2fs   %s\n" name entries
        cold.ds_generation_time warm.ds_generation_time cold.ds_testing_time paper;
      Printf.printf "%-20s %8s   goals %d, covered %d, uncoverable %d%s\n" "" ""
        cold.ds_goals cold.ds_covered cold.ds_uncoverable
        (if warm.ds_cache_hits > 0 then "  [second run served from cache]" else ""))
    rows;
  (* Fuzzer throughput. *)
  Printf.printf "\n%-20s %15s %10s   %s\n" "P4 Prog." "Fuzzed Entries" "Entries/s"
    "paper";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun (name, program) ->
      let stack = Stack.create program in
      ignore (Stack.push_p4info stack);
      let fuzzer = Fuzzer.create (Stack.info stack) (Rng.create 77) in
      let oracle = Oracle.create (Stack.info stack) in
      let batches = if !quick then 20 else 1000 in
      let n = ref 0 in
      let t0 = now () in
      for _ = 1 to batches do
        let annotated = Fuzzer.next_batch fuzzer in
        let updates = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
        n := !n + List.length updates;
        let resp = Stack.write stack { Request.updates } in
        let read_back = Stack.read stack in
        ignore (Oracle.judge_batch oracle updates resp ~read_back)
      done;
      let dt = now () -. t0 in
      Printf.printf "%-20s %15d %10.0f   ~50000 at ~97/s\n" name !n
        (float_of_int !n /. dt))
    [ ("Inst1 (middleblock)", Middleblock.program); ("Inst2 (WAN)", Wan.program) ]

(* ------------------------------------------------------------------ *)
(* Figure 7: days to bug resolution                                    *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  banner "Figure 7: days to resolution of PINS bugs found by SwitchV";
  let results = detections Pins in
  let found = List.filter (fun d -> d.found_by <> None) results in
  let buckets =
    [ ("0-3", 0, 3); ("3-6", 3, 6); ("6-10", 6, 10); ("10-15", 10, 15);
      ("15-20", 15, 20); ("20-25", 20, 25); ("25-30", 25, 30); ("30-60", 30, 60);
      ("60-90", 60, 90); ("90-120", 90, 120); ("120-150", 120, 150);
      (">=150", 150, max_int) ]
  in
  Printf.printf "%-8s | %-42s | total symb fuzz\n" "days" "";
  Printf.printf "%s\n" (String.make 78 '-');
  List.iter
    (fun (label, lo, hi) ->
      let in_bucket detector =
        List.length
          (List.filter
             (fun d ->
               (match detector with None -> true | Some det -> d.found_by = Some det)
               &&
               match d.fault.Fault.days_to_resolution with
               | Some days -> days >= lo && days < hi
               | None -> false)
             found)
      in
      let total = in_bucket None in
      let symb = in_bucket (Some Report.Symbolic) in
      let fuzz = in_bucket (Some Report.Fuzzer) in
      Printf.printf "%-8s | %-42s | %5d %4d %4d\n" label
        (String.make (min 42 total) '#') total symb fuzz)
    buckets;
  let unresolved =
    List.length
      (List.filter (fun d -> d.fault.Fault.days_to_resolution = None) found)
  in
  Printf.printf "unresolved: %d (paper: 9)\n" unresolved;
  let resolved_days =
    List.filter_map (fun d -> d.fault.Fault.days_to_resolution) found
  in
  let within n =
    100
    * List.length (List.filter (fun d -> d <= n) resolved_days)
    / max 1 (List.length found)
  in
  Printf.printf
    "fixed within 14 days: %d%% (paper: majority); within 5 days: %d%% (paper: 33%%)\n"
    (within 14) (within 5)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_traces () =
  banner "Ablation: guarded single-pass encoding vs. per-trace enumeration (§5)";
  Printf.printf
    "Trace enumeration cost is the product of per-table branch counts; the\n\
     guarded encoding is linear in the number of entries (paper: three\n\
     100-entry tables => 10^6 traces).\n\n";
  Printf.printf "%8s | %14s | %12s | %10s\n" "entries" "traces (enum.)"
    "trace points" "solve time";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun factor ->
      let profile = Workload.scaled factor Workload.inst1 in
      let entries = Workload.generate ~seed:5 Middleblock.program profile in
      let t0 = now () in
      let enc = Symexec.encode Middleblock.program entries in
      let goals = Packetgen.entry_coverage_goals enc in
      let result = Packetgen.generate enc goals in
      let dt = now () -. t0 in
      ignore result;
      (* #traces = product over tables of (entries + default) *)
      let per_table = Hashtbl.create 16 in
      List.iter
        (fun (e : Entry.t) ->
          Hashtbl.replace per_table e.e_table
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_table e.e_table)))
        entries;
      let log_traces =
        Hashtbl.fold (fun _ n acc -> acc +. log10 (float_of_int (n + 1))) per_table 0.
      in
      Printf.printf "%8d | %11s    | %12d | %8.2fs\n" (List.length entries)
        (Printf.sprintf "10^%.1f" log_traces)
        (List.length enc.enc_trace) dt)
    (if !quick then [ 0.05; 0.1 ] else [ 0.1; 0.25; 0.5; 1.0 ])

let ablation_mutations () =
  banner "Ablation: mutation-based vs. naive random invalid requests (§4.2)";
  Printf.printf
    "Depth = how far into the switch's validation pipeline a request gets\n\
     (0 = unknown table ... 4 = state-dependent checks, 5 = actually valid).\n\
     Naive random requests die at the first checks (the paper's motivation\n\
     for curated mutations).\n\n";
  let info = Middleblock.info in
  let depth_of (e : Entry.t) state =
    match Validate.syntactic info e with
    | Error s ->
        let m = s.Status.message in
        let has sub =
          let ls = String.length sub and lm = String.length m in
          let rec go i = i + ls <= lm && (String.sub m i ls = sub || go (i + 1)) in
          go 0
        in
        if has "unknown table" then 0
        else if has "no match field" || has "does not permit action" then 1
        else 2
    | Ok () -> (
        match Validate.check_entry info e with
        | Error _ -> 3 (* constraint violation *)
        | Ok () -> (
            match
              Validate.check_references info e ~exists:(fun ~table ~key value ->
                  State.exists_value state ~table ~key value)
            with
            | Error _ -> 4
            | Ok () -> 5))
  in
  let state = State.create () in
  List.iter
    (fun e -> ignore (State.insert state e))
    (Workload.generate ~seed:6 Middleblock.program Workload.small);
  let n = if !quick then 300 else 2000 in
  let histogram label gen =
    let counts = Array.make 6 0 in
    let rng = Rng.create 31 in
    let produced = ref 0 in
    while !produced < n do
      match gen rng with
      | Some e ->
          incr produced;
          let d = depth_of e state in
          counts.(d) <- counts.(d) + 1
      | None -> ()
    done;
    Printf.printf "%-18s" label;
    Array.iteri
      (fun i c ->
        Printf.printf "  d%d: %4.1f%%" i (100. *. float_of_int c /. float_of_int n))
      counts;
    print_newline ()
  in
  let tables = List.map (fun (ti : P4info.table) -> ti.ti_name) info.pi_tables in
  let naive rng =
    let table =
      if Rng.int rng 2 = 0 then Printf.sprintf "table_%d" (Rng.int rng 100)
      else Rng.choose rng tables
    in
    let matches =
      List.init (Rng.int rng 3) (fun i ->
          { Entry.fm_field = Printf.sprintf "field_%d" i;
            fm_value = Entry.M_exact (Rng.bitvec rng (1 + Rng.int rng 64)) })
    in
    Some
      (Entry.make ~priority:(Rng.int rng 3) ~table ~matches
         (Entry.Single
            { ai_name = Printf.sprintf "action_%d" (Rng.int rng 100);
              ai_args = [ Rng.bitvec rng 16 ] }))
  in
  let fuzzer = Fuzzer.create info (Rng.create 8) in
  for _ = 1 to 10 do ignore (Fuzzer.next_batch fuzzer) done;
  let pending : Entry.t list ref = ref [] in
  let mutation _rng =
    (match !pending with
    | [] ->
        pending :=
          List.filter_map
            (fun (a : Fuzzer.annotated_update) ->
              if a.mutation <> None then Some a.update.entry else None)
            (Fuzzer.next_batch fuzzer)
    | _ -> ());
    match !pending with
    | e :: rest ->
        pending := rest;
        Some e
    | [] -> None
  in
  histogram "naive random" naive;
  histogram "mutation-based" mutation

let ablation_batching () =
  banner "Ablation: @refers_to-aware batching vs. naive batching (§4.4)";
  Printf.printf
    "Naive batches contain internal dependencies, so a correct switch's\n\
     order-dependent outcomes look like violations to the oracle: false\n\
     positives on a bug-free switch.\n\n";
  let run respect =
    let stack = Stack.create Middleblock.program in
    let config =
      { Control_campaign.default_config with
        batches = (if !quick then 10 else 40);
        fuzzer_config = { Fuzzer.respect_dependencies = respect };
        max_incidents = 10000;
        seed = 5 }
    in
    let incidents, stats = Control_campaign.run stack config in
    (List.length incidents, stats.cs_updates)
  in
  let dep_incidents, dep_updates = run true in
  let naive_incidents, naive_updates = run false in
  Printf.printf "%-28s %10s %10s\n" "" "incidents" "updates";
  Printf.printf
    "dependency-aware batching   %10d %10d  (must be 0: no false positives)\n"
    dep_incidents dep_updates;
  Printf.printf
    "naive batching              %10d %10d  (spurious reports on a clean switch)\n"
    naive_incidents naive_updates

let ablation_pruning () =
  banner "Ablation: analysis-driven goal pruning (lib/analysis)";
  Printf.printf
    "A statically-dead debug table is appended to the middleblock pipeline\n\
     (guarded by a metadata flag that is provably always zero), with two\n\
     installed entries. With pruning on, its coverage goals never reach\n\
     the SMT solver; the divergence verdict must be identical either way\n\
     because every pruned goal is provably uncoverable.\n\n";
  let module A = Switchv_p4ir.Ast in
  let program =
    let base = Middleblock.program in
    let debug_table =
      { A.t_name = "debug_table"; t_id = 999;
        t_keys =
          [ { A.k_name = "level"; k_expr = A.E_field (A.meta "debug_level");
              k_kind = A.Exact; k_refers_to = None } ];
        t_actions = [ "no_action" ]; t_default_action = ("no_action", []);
        t_size = 16; t_entry_restriction = None; t_selector = false }
    in
    { base with
      A.p_name = base.A.p_name ^ "_debug";
      p_metadata = base.A.p_metadata @ [ ("debug_level", 8) ];
      p_tables = base.A.p_tables @ [ debug_table ];
      p_ingress =
        A.C_seq
          ( base.A.p_ingress,
            A.C_if
              ( A.B_eq
                  ( A.E_field (A.meta "debug_level"),
                    A.E_const (Bitvec.of_int ~width:8 2) ),
                A.C_table "debug_table", A.C_nop ) ) }
  in
  Switchv_p4ir.Typecheck.check_exn program;
  let debug_entry level =
    Entry.make ~table:"debug_table"
      ~matches:
        [ { Entry.fm_field = "level";
            fm_value = Entry.M_exact (Bitvec.of_int ~width:8 level) } ]
      (Entry.Single { ai_name = "no_action"; ai_args = [] })
  in
  let entries =
    Workload.generate ~seed:7 program Workload.small
    @ [ debug_entry 1; debug_entry 2 ]
  in
  let tm = Telemetry.get () in
  let run prune =
    let stack = Stack.create program in
    let before = Telemetry.counter tm "analysis.goals_pruned" in
    let incidents, stats =
      Data_campaign.run stack
        { (Data_campaign.default_config entries) with
          prune_dead_goals = prune; test_packet_io = false }
    in
    (incidents, stats, Telemetry.counter tm "analysis.goals_pruned" - before)
  in
  let inc_on, stats_on, pruned_on = run true in
  let inc_off, stats_off, pruned_off = run false in
  Printf.printf "%-16s %8s %8s %12s %10s %8s\n" "" "goals" "pruned"
    "uncoverable" "incidents" "gen(s)";
  let row label (stats : Report.data_stats) incidents pruned =
    Printf.printf "%-16s %8d %8d %12d %10d %8.2f\n" label stats.ds_goals pruned
      stats.ds_uncoverable (List.length incidents) stats.ds_generation_time
  in
  row "pruning on" stats_on inc_on pruned_on;
  row "pruning off" stats_off inc_off pruned_off;
  Printf.printf
    "goals_pruned > 0 with pruning on: %b; identical incidents: %b\n"
    (pruned_on > 0) (inc_on = inc_off)

let ablations () =
  ablation_traces ();
  ablation_mutations ();
  ablation_batching ();
  ablation_pruning ()


(* ------------------------------------------------------------------ *)
(* SMT: incremental solving vs. per-goal scratch solvers               *)
(* ------------------------------------------------------------------ *)

let smt_incremental () =
  banner "SMT: incremental packet generation vs. per-goal scratch solving";
  print_string
    "Each fixture campaign's coverage goals are solved twice: once with the\n\
     incremental pipeline (one solver, each goal's conjuncts passed as\n\
     assumptions, learned clauses carried across goals) and once\n\
     re-bit-blasting every goal into a fresh solver. Canonical model\n\
     extraction makes the verdicts AND packet bytes byte-identical; the\n\
     win is solver work.\n";
  let tm = Telemetry.get () in
  let stat name (r : Packetgen.result) =
    Option.value ~default:0 (List.assoc_opt name r.solver_stats)
  in
  let fixtures =
    let entry_goals enc = Packetgen.entry_coverage_goals enc in
    let explore enc =
      Packetgen.entry_coverage_goals enc @ Data_campaign.exploratory_goals enc
    in
    let trace enc =
      Packetgen.trace_coverage_goals enc
        ~tables:[ "ipv4_table"; "acl_ingress_table" ]
    in
    [ ("middleblock/entry", Middleblock.program,
       Workload.scaled (if !quick then 0.05 else 0.25) Workload.inst1, entry_goals);
      ("middleblock/explore", Middleblock.program,
       Workload.scaled (if !quick then 0.05 else 0.1) Workload.inst1, explore);
      ("middleblock/trace", Middleblock.program, Workload.small, trace);
      ("wan/entry", Wan.program,
       Workload.scaled (if !quick then 0.05 else 0.1) Workload.inst2, entry_goals) ]
  in
  let rows =
    List.map
      (fun (name, program, profile, mk_goals) ->
        let entries = Workload.generate ~seed:42 program profile in
        let enc = Symexec.encode program entries in
        let goals = mk_goals enc in
        let run incremental =
          let t0 = now () in
          let r = Packetgen.generate ~incremental enc goals in
          (r, now () -. t0)
        in
        let scratch, t_scr = run false in
        let hits0 = Telemetry.counter tm "smt.incremental_hits" in
        let reused0 = Telemetry.counter tm "smt.clauses_reused" in
        let inc, t_inc = run true in
        let same (a : Packetgen.test_packet) (b : Packetgen.test_packet) =
          a.tp_goal = b.tp_goal && a.tp_port = b.tp_port && a.tp_bytes = b.tp_bytes
        in
        Jsonp.Obj
          [ ("fixture", str name); ("goals", int (List.length goals));
            ("scratch_conflicts", int (stat "conflicts" scratch));
            ("incremental_conflicts", int (stat "conflicts" inc));
            ("scratch_propagations", int (stat "propagations" scratch));
            ("incremental_propagations", int (stat "propagations" inc));
            ("scratch_sat_vars", int (stat "sat_vars" scratch));
            ("incremental_sat_vars", int (stat "sat_vars" inc));
            ("scratch_time_s", num ~digits:3 t_scr);
            ("incremental_time_s", num ~digits:3 t_inc);
            ("identical_packets", bool (List.equal same scratch.packets inc.packets));
            ("incremental_hits", int (Telemetry.counter tm "smt.incremental_hits" - hits0));
            ("clauses_reused", int (Telemetry.counter tm "smt.clauses_reused" - reused0)) ])
      fixtures
  in
  let c_scr = total "scratch_conflicts" rows and c_inc = total "incremental_conflicts" rows in
  let reduction =
    if c_scr = 0 then 0. else 100. *. float_of_int (c_scr - c_inc) /. float_of_int c_scr
  in
  let identical = List.for_all (bool_at "identical_packets") rows in
  ( rows,
    check "identical packets on every fixture" (bool identical) identical
    :: (if !quick then []
        else
          [ check "conflict_reduction_pct >= 30" (num ~digits:1 reduction)
              (reduction >= 30.) ]) )

(* ------------------------------------------------------------------ *)
(* Taint: static nondeterminism analysis driving set-valued verdicts   *)
(* ------------------------------------------------------------------ *)

let taint () =
  banner "Taint: set-valued verdicts vs. exhaustive hash-round enumeration";
  print_string
    "Each fixture data campaign runs twice against a seeded-hash switch:\n\
     once with the static taint pass on (hash/selector-tainted branch goals\n\
     skipped before the SMT stage, verdicts via the set-valued oracle) and\n\
     once with it off (every goal solved, every divergence candidate judged\n\
     by exhaustive hash-round enumeration). Both runs must be clean — the\n\
     set-valued fast paths may only admit behaviours enumeration admits.\n";
  let tm = Telemetry.get () in
  let counter = Telemetry.counter tm in
  let fixtures =
    [ ("middleblock", Middleblock.program,
       if !quick then Workload.small else Workload.scaled 0.25 Workload.inst1);
      ("wan", Wan.program,
       if !quick then Workload.small else Workload.scaled 0.1 Workload.inst2) ]
  in
  let rows =
    List.map
      (fun (name, program, profile) ->
        let entries = Workload.generate ~seed:42 program profile in
        let run taint =
          let stack = Stack.create program in
          let t0 = now () in
          let incidents, stats =
            Data_campaign.run stack
              { (Data_campaign.default_config entries) with
                taint; test_packet_io = false }
          in
          (incidents, stats, now () -. t0)
        in
        (* Off first so the on-run's counter deltas are easy to snapshot. *)
        let inc_off, stats_off, t_off = run false in
        let counters =
          [ ("tainted_goals", "analysis.tainted_goals");
            ("set_admits", "oracle.dataplane_set_admits");
            ("escalations", "oracle.dataplane_escalations");
            ("enum_rounds_saved", "oracle.enum_rounds_saved") ]
        in
        let before = List.map (fun (_, name) -> counter name) counters in
        let inc_on, stats_on, t_on = run true in
        Jsonp.Obj
          ([ ("fixture", str name); ("goals", int stats_off.Report.ds_goals) ]
          @ List.map2 (fun (key, name) b -> (key, int (counter name - b))) counters before
          @ [ ("smt_attempts_skipped",
               int (stats_off.Report.ds_goals - stats_on.Report.ds_goals));
              ("clean", bool (inc_on = [] && inc_off = []));
              ("time_taint_s", num ~digits:3 t_on);
              ("time_enum_s", num ~digits:3 t_off) ]))
      fixtures
  in
  let clean = List.for_all (bool_at "clean") rows in
  let tainted = total "tainted_goals" rows and saved = total "enum_rounds_saved" rows in
  ( rows,
    [ check "clean on every fixture" (bool clean) clean;
      check "tainted_goals > 0" (int tainted) (tainted > 0);
      check "enum_rounds_saved > 0" (int saved) (saved > 0) ] )

(* ------------------------------------------------------------------ *)
(* Triage: ddmin shrinkage and fingerprint dedup                       *)
(* ------------------------------------------------------------------ *)

let triage () =
  banner "Triage: reproducer minimization (ddmin) and fingerprint dedup";
  Printf.printf
    "Per seeded fault: raw miscompares vs. fingerprint clusters, then each\n\
     cluster representative's reproducer delta-debugged to a 1-minimal\n\
     input. Shrink = raw size / minimized size; probes = replays spent.\n\n";
  let program = Middleblock.program in
  let profile =
    if !quick then Workload.small else Workload.scaled 0.1 Workload.inst1
  in
  let entries = Workload.generate ~seed:42 program profile in
  let catalogue = Catalogue.pins program entries in
  let interesting (f : Fault.t) =
    match f.kind with
    | Fault.Reject_valid_insert _ | Fault.Syncd_drops_table _ -> true
    | _ -> false
  in
  let faults =
    let sel = List.filter interesting catalogue in
    let n = if !quick then 2 else 4 in
    List.filteri (fun i _ -> i < n) sel
  in
  let tm = Telemetry.get () in
  let max_probes = if !quick then 64 else 256 in
  List.iter
    (fun (fault : Fault.t) ->
      let mk () = Stack.create ~faults:[ fault ] program in
      let config =
        { (Harness.default_config entries) with
          control = { Control_campaign.default_config with batches = 2; seed = 99 };
          triage = Some { Harness.default_triage with minimize = false } }
      in
      let report = Harness.validate mk config in
      let clusters = Option.value ~default:[] report.Report.clusters in
      let miscompares =
        List.fold_left (fun a (c : Report.cluster) -> a + c.cl_count) 0 clusters
      in
      Printf.printf "%s: %d miscompare(s) -> %d cluster(s)\n" fault.Fault.id
        miscompares (List.length clusters);
      List.iteri
        (fun i (c : Report.cluster) ->
          match c.cl_example.Report.repro with
          | Some r when i < 5 ->
              let before = Telemetry.counter tm "triage.ddmin_probes" in
              let r' = Harness.minimize_repro mk ~max_probes r in
              let probes = Telemetry.counter tm "triage.ddmin_probes" - before in
              let raw = Repro.size r and minimized = Repro.size r' in
              Printf.printf "  %-60s %4d -> %3d  %5.1fx %5d probes\n"
                c.cl_fingerprint raw minimized
                (float_of_int raw /. float_of_int (max 1 minimized))
                probes
          | _ -> ())
        clusters)
    faults

(* ------------------------------------------------------------------ *)
(* Parallel: fork-based campaign sharding speedup                      *)
(* ------------------------------------------------------------------ *)

let parallel () =
  banner "Parallel: fork-based campaign sharding (switchv validate --jobs)";
  Printf.printf
    "Both campaigns at shards=4, executed with 1, 2, and 4 worker\n\
     processes. The shard decomposition is fixed by the shard count, so\n\
     every jobs value must report the identical incident set; the only\n\
     thing that changes is wall-clock time.\n\n";
  let program = Middleblock.program in
  let profile =
    if !quick then Workload.small else Workload.scaled 0.1 Workload.inst1
  in
  let entries = Workload.generate ~seed:42 program profile in
  let catalogue = Catalogue.pins program entries in
  let fault_matching pred =
    match List.find_opt (fun (f : Fault.t) -> pred f.Fault.kind) catalogue with
    | Some f -> [ f ]
    | None -> []
  in
  let incident_set incidents = List.map Report.incident_ipc_to_json incidents in
  let row name jobs seconds base_seconds identical =
    Printf.printf "%-22s jobs=%d %8.2fs  %5.2fx  incidents identical: %b\n%!"
      name jobs seconds
      (if seconds > 0. then base_seconds /. seconds else 0.)
      identical
  in
  let bench name runner =
    let t1, i1 = runner 1 in
    row name 1 t1 t1 true;
    List.iter
      (fun jobs ->
        let t, i = runner jobs in
        row name jobs t t1 (incident_set i = incident_set i1))
      [ 2; 4 ]
  in
  (* Control campaign: seed-range shards against a fault the oracle sees. *)
  let control_faults =
    fault_matching (function Fault.Reject_valid_insert _ -> true | _ -> false)
  in
  let control_cfg =
    { Control_campaign.default_config with
      batches = (if !quick then 8 else 48);
      seed = 99;
      shards = 4;
      max_incidents = 1000 }
  in
  bench "control campaign" (fun jobs ->
      let mk () = Stack.create ~faults:control_faults program in
      let t0 = now () in
      let incidents, _ = Control_campaign.run_sharded ~jobs mk control_cfg in
      (now () -. t0, incidents));
  (* Data campaign: coverage-goal slices against a fault the differ sees. *)
  let data_faults =
    fault_matching (function Fault.Syncd_drops_table _ -> true | _ -> false)
  in
  let data_cfg =
    { (Data_campaign.default_config entries) with
      shards = 4;
      test_packet_io = false;
      max_incidents = 1000 }
  in
  bench "data campaign" (fun jobs ->
      let stack = Stack.create ~faults:data_faults program in
      let t0 = now () in
      let incidents, _ = Data_campaign.run ~jobs stack data_cfg in
      (now () -. t0, incidents))


(* ------------------------------------------------------------------ *)
(* Obs: instrumentation overhead on the hot paths                      *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  banner "Obs: telemetry + coverage accounting overhead on hot paths";
  let reps = 9 in
  let budget_pct = if !quick then 10. else 5. in
  Printf.printf
    "Each hot path runs under an enabled registry (counters, histograms,\n\
     spans, per-edge coverage accounting — the always-on configuration)\n\
     and a disabled one (every telemetry call short-circuits on one bool).\n\
     The two configurations are interleaved rep-by-rep so cache and\n\
     scheduler drift lands on both sides; %s over %d reps.\n\
     Budget: <= %.0f%%.\n"
    (if !quick then "median overhead of the back-to-back pairs"
     else "best-of per configuration")
    reps budget_pct;
  let profile =
    if !quick then Workload.small else Workload.scaled 0.1 Workload.inst1
  in
  let entries = Workload.generate ~seed:42 Middleblock.program profile in
  let time_pair f =
    let run ~enabled =
      let t = Telemetry.create () in
      Telemetry.set_enabled t enabled;
      Telemetry.with_registry t (fun () ->
          let t0 = now () in
          ignore (f ());
          now () -. t0)
    in
    ignore (run ~enabled:false);
    ignore (run ~enabled:true);
    let pairs =
      List.init reps (fun _ ->
          let off = run ~enabled:false in
          (off, run ~enabled:true))
    in
    let best side = List.fold_left (fun acc p -> Float.min acc (side p)) infinity pairs in
    let off = best fst and on = best snd in
    let overhead (off, on) = if off > 0. then 100. *. (on -. off) /. off else 0. in
    (* The machine drifts between fast and slow phases lasting seconds, so
       a quick run's best-of can catch one configuration in a fast phase
       only. The quick gate compares each back-to-back pair instead: a
       phase change spoils one pair, not the median. *)
    let pct =
      if !quick then List.nth (List.sort Float.compare (List.map overhead pairs)) (reps / 2)
      else overhead (off, on)
    in
    (off, on, pct)
  in
  (* genpackets: encoding + SMT goal solving, validate's "Generation"
     phase (telemetry here is spans + per-check counter deltas). One
     encode-and-solve takes about 0.013 s on quick mode's small entry set
     and 0.02 s on full mode's inst1 x0.1 (shared 2-core Xeon), so a rep
     loops 30 and 20 times to last at least 0.2 s on a machine up to 1.5x
     faster. *)
  let genpackets () =
    for _ = 1 to if !quick then 30 else 20 do
      let enc = Symexec.encode Middleblock.program entries in
      ignore (Packetgen.generate enc (Packetgen.entry_coverage_goals enc))
    done
  in
  (* inject: the staged evaluator ([Compile.run]) that [Stack.inject] and
     [Dataplane] run in validate's "Testing" phase, bumping the per-edge
     coverage counters. *)
  let inject =
    let state = State.create () in
    List.iter (fun e -> ignore (State.insert state e)) entries;
    let cfg =
      { Interp.program = Middleblock.program; state; hash_mode = Interp.Fixed 0;
        mirror_map = [] }
    in
    let packets =
      List.init 64 (fun i ->
          Switchv_packet.Packet.to_bytes
            (Switchv_packet.Packet.simple_ipv4 ~src:"192.0.2.1"
               ~dst:(Printf.sprintf "10.%d.%d.%d" (i mod 200) (i / 8) (succ i mod 251))
               ()))
    in
    (* A rep of at least 0.2 s keeps one scheduler hiccup from reading as
       overhead. A round of 64 packets takes about 0.75-0.9 ms on quick
       mode's small entry set and 1.3 ms on full mode's inst1 x0.1 (shared
       2-core Xeon), so a rep of 300 and 360 rounds lasts about 0.22-0.28 s
       and 0.48 s. *)
    let rounds = if !quick then 300 else 360 in
    fun () ->
      for _ = 1 to rounds do
        List.iter (fun p -> ignore (Compile.run cfg ~ingress_port:1 p)) packets
      done
  in
  let measured =
    List.map
      (fun (name, f) ->
        let off, on, pct = time_pair f in
        ( pct,
          Jsonp.Obj
            [ ("path", str name); ("disabled_s", num ~digits:4 off);
              ("enabled_s", num ~digits:4 on); ("overhead_pct", num ~digits:2 pct) ] ))
      [ ("genpackets", genpackets); ("inject", inject) ]
  in
  let max_pct = List.fold_left (fun a (p, _) -> Float.max a p) neg_infinity measured in
  ( List.map snd measured,
    [ check
        (Printf.sprintf "max overhead_pct <= %.0f" budget_pct)
        (num ~digits:2 max_pct) (max_pct <= budget_pct) ] )

(* ------------------------------------------------------------------ *)
(* Fabric: multi-switch campaign throughput and fault localization     *)
(* ------------------------------------------------------------------ *)

let fabric () =
  banner "Fabric: multi-switch campaign throughput and hop localization";
  print_string
    "Throughput: an unseeded fabric campaign per topology size (every flow\n\
     crosses both the stack fabric and the model fabric, judged per hop\n\
     and end-to-end; hops/s counts per-switch packet processings).\n\
     Localization: a 3-switch line with each data-plane fault seeded on\n\
     sw1 — accuracy is the fraction of faults caught AND attributed only\n\
     to sw1, never to an innocent neighbour.\n";
  let sizes =
    if !quick then [ (Topo.Line, 3); (Topo.Star, 4) ]
    else
      [ (Topo.Line, 3); (Topo.Line, 6); (Topo.Star, 6); (Topo.Mesh, 4);
        (Topo.Leaf_spine, 6) ]
  in
  let throughput =
    List.map
      (fun (shape, switches) ->
        let incidents, s =
          Fabric_campaign.run Middleblock.program
            (Fabric_campaign.default_config shape switches)
        in
        let dt = s.Report.fs_duration in
        let per x = if dt > 0. then float_of_int x /. dt else 0. in
        Jsonp.Obj
          [ ("part", str "throughput"); ("shape", str s.fs_shape);
            ("switches", int s.fs_switches); ("flows", int s.fs_flows);
            ("hops", int s.fs_hops); ("delivered", int s.fs_delivered);
            ("dropped", int s.fs_dropped); ("incidents", int (List.length incidents));
            ("duration_s", num ~digits:3 dt); ("flows_per_s", num (per s.fs_flows));
            ("hops_per_s", num (per s.fs_hops)) ])
      sizes
  in
  (* Localization accuracy over the data-plane fault kinds that can fire on
     a middleblock line fabric ([Encap_reversed_dst] has no tunnel tables
     to act on). *)
  let topo3 = Topo.build Topo.Line 3 in
  let catalogue =
    Catalogue.topo Middleblock.program
      (Routes.entries topo3 Middleblock.program ~switch:1)
  in
  let extra =
    List.map
      (fun (name, kind) ->
        Fault.make ~id:("BENCH-" ^ name) ~component:Fault.Hardware kind name)
      [ ("drop-dst-ip",
         Fault.Drop_dst_ip (Switchv_packet.Packet.ipv4_of_string (Routes.host_ip 2)));
        ("punt-ether-type", Fault.Punt_ether_type 0x88CC);
        ("dscp-remark", Fault.Dscp_remark_zero 8);
        ("mirror-ignored", Fault.Mirror_ignored);
        ("punt-lost", Fault.Punt_lost);
        ("submit-dropped", Fault.Submit_to_ingress_dropped);
        ("po-punted-back", Fault.Packet_out_punted_back) ]
  in
  let faults =
    let all = catalogue @ extra in
    if !quick then List.filteri (fun i _ -> i < 4) all else all
  in
  let localization =
    List.map
      (fun (fault : Fault.t) ->
        let cfg =
          { (Fabric_campaign.default_config Topo.Line 3) with
            Fabric_campaign.faults = [ (1, [ fault ]) ];
            max_incidents = 200 }
        in
        let incidents, _ = Fabric_campaign.run Middleblock.program cfg in
        let hops =
          List.filter_map
            (fun (i : Report.incident) ->
              match i.Report.context with
              | Some { Report.ctx_hop = Some h; _ } -> Some h
              | _ -> None)
            incidents
        in
        Jsonp.Obj
          [ ("part", str "localization"); ("fault", str fault.Fault.id);
            ("incidents", int (List.length incidents));
            ("attributed", int (List.length hops));
            ("localized",
             bool (incidents <> [] && hops <> [] && List.for_all (String.equal "sw1") hops)) ])
      faults
  in
  let dirty = total "incidents" throughput in
  let accuracy =
    float_of_int (List.length (List.filter (bool_at "localized") localization))
    /. float_of_int (List.length localization)
  in
  ( throughput @ localization,
    [ check "throughput incidents = 0" (int dirty) (dirty = 0);
      check "localization_accuracy = 1" (num ~digits:3 accuracy) (accuracy >= 1.0) ] )

(* ------------------------------------------------------------------ *)
(* Greybox: coverage-guided scheduling vs. the blind fuzzer            *)
(* ------------------------------------------------------------------ *)

let greybox () =
  banner "Greybox: coverage-guided scheduling vs. blind fuzzing";
  print_string
    "Part 1 — edges per packet budget: each fixture runs the control\n\
     campaign with the feedback loop on (probes scheduled from the corpus,\n\
     power-schedule mutation targets), then a blind baseline given the\n\
     exact same injection budget of feedback-free random packets. The\n\
     guided run must cover strictly more model edges.\n\
     Part 2 — time to detection: every fault in the catalogue is hunted\n\
     by the full harness in both modes; guidance must not lose a fault\n\
     the blind pipeline detects.\n";
  (* --- part 1: edges per N packets ------------------------------------ *)
  let batches = if !quick then 8 else 12 in
  let fixtures = [ ("middleblock", Middleblock.program); ("wan", Wan.program) ] in
  let edges =
    List.map
      (fun (name, program) ->
        let config =
          { Control_campaign.default_config with batches; seed = 11 }
        in
        (* Guided: the campaign's own probe/corpus/power-schedule loop. *)
        let tele = Telemetry.create () in
        let covered_guided =
          Telemetry.with_registry tele (fun () ->
              ignore (Control_campaign.run (Stack.create program) config);
              (Switchv_obs.Coverage.of_registry tele program).Switchv_obs.Coverage.covered)
        in
        let probes = Telemetry.counter tele "fuzzer.greybox.probes" in
        (* Blind baseline: same campaign without feedback, then the same
           injection budget of fresh random packets — a Greybox instance
           that never observes draws fresh-only, so this is exactly the
           feedback-free probe stream. *)
        let tele_b = Telemetry.create () in
        let covered_blind =
          Telemetry.with_registry tele_b (fun () ->
              let stack = Stack.create program in
              ignore
                (Control_campaign.run stack { config with greybox = false });
              let gb = Switchv_fuzzer.Greybox.create ~program ~seed:11 () in
              for _ = 1 to probes do
                let port, bytes = Switchv_fuzzer.Greybox.probe_packet gb in
                ignore (Stack.inject stack ~ingress_port:port bytes)
              done;
              (Switchv_obs.Coverage.of_registry tele_b program).Switchv_obs.Coverage.covered)
        in
        Jsonp.Obj
          [ ("part", str "edges_per_budget"); ("fixture", str name);
            ("packets", int probes); ("edges_guided", int covered_guided);
            ("edges_blind", int covered_blind);
            ("corpus_seeds", int (Telemetry.counter tele "fuzzer.greybox.corpus_admitted"));
            ("seeded_bases", int (Telemetry.counter tele "fuzzer.greybox.seeded_bases")) ])
      fixtures
  in
  (* --- part 2: time to detection across the fault catalogue ----------- *)
  let entries = workload_of Pins in
  let faults = catalogue_of Pins entries in
  let faults = if !quick then List.filteri (fun i _ -> i < 6) faults else faults in
  let hunt greybox fault =
    let config =
      { (Harness.default_config entries) with
        control =
          { Control_campaign.default_config with
            batches = (if !quick then 2 else 4);
            seed = 99 };
        cache = Some (Cache.in_memory ());
        greybox }
    in
    let mk () = Stack.create ~faults:[ fault ] Middleblock.program in
    let t0 = now () in
    let found = Harness.detect mk config in
    (found <> None, now () -. t0)
  in
  let detection =
    List.map
      (fun (fault : Fault.t) ->
        let found_g, t_g = hunt true fault in
        let found_b, t_b = hunt false fault in
        Jsonp.Obj
          [ ("part", str "detection"); ("fault", str fault.Fault.id);
            ("detected_guided", bool found_g); ("detected_blind", bool found_b);
            ("time_guided_s", num ~digits:3 t_g); ("time_blind_s", num ~digits:3 t_b) ])
      faults
  in
  let lost =
    List.filter_map
      (fun row ->
        if bool_at "detected_blind" row && not (bool_at "detected_guided" row) then
          Jsonp.member "fault" row
        else None)
      detection
  in
  ( edges @ detection,
    List.map2
      (fun (name, _) row ->
        let margin = int_at "edges_guided" row - int_at "edges_blind" row in
        check (name ^ " edges_guided - edges_blind > 0") (int margin) (margin > 0))
      fixtures edges
    @ [ check "faults lost to guidance = []" (Jsonp.Arr lost) (lost = []) ] )

(* ------------------------------------------------------------------ *)
(* Scale: million-entry tables — indexed match structures + staged     *)
(* evaluator vs. the tree-walking linear-scan interpreter              *)
(* ------------------------------------------------------------------ *)

let scale () =
  banner "Scale: indexed match + compiled evaluator at 1k..1M entries";
  print_string
    "Per tier: install a scale route workload (unique /24s + nexthop\n\
     chain), measure control-plane writes/sec with live index\n\
     maintenance, then packets/sec through the staged evaluator\n\
     (Compile) and the linear-scan interpreter (Interp) on the same\n\
     state. Gate: >= 10x packets/sec at the 100k tier.\n";
  let program = Middleblock.program in
  let tiers =
    if !quick then [ 1_000; 10_000; 100_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let mk_packet i =
    Switchv_packet.Packet.to_bytes
      { Switchv_packet.Packet.headers =
          [ Switchv_packet.Packet.ethernet_frame ~dst:"02:00:00:00:0a:01"
              ~ether_type:0x0800 ();
            Switchv_packet.Packet.ipv4_header ~ttl:64 ~src:"192.0.2.1"
              ~dst:
                (Printf.sprintf "%d.%d.%d.1" (10 + (i lsr 16))
                   ((i land 0xFFFF) lsr 8)
                   (i land 0xFF))
              ();
          Switchv_packet.Packet.udp_header ~src_port:53 ~dst_port:443 () ];
        payload = "scale" }
  in
  let measured =
    List.map
      (fun n ->
        let entries = Workload.scale_routes program n in
        let chain, routes =
          List.partition (fun (e : Entry.t) -> e.e_table <> "ipv4_table") entries
        in
        let state = State.create () in
        List.iter (fun e -> ignore (State.insert state e)) chain;
        let cfg =
          { Interp.program; state; hash_mode = Interp.Fixed 0;
            mirror_map = Workload.mirror_map chain }
        in
        (* One staged run before the routes land: builds the per-table
           indexes, so the timed inserts below pay the incremental
           maintenance cost the campaigns pay. Also amortises staging. *)
        ignore (Compile.run cfg ~ingress_port:1 (mk_packet 0));
        let t0 = now () in
        List.iter (fun e -> ignore (State.insert state e)) routes;
        let t_write = now () -. t0 in
        (* Distinct dsts spread over the installed tier, reused cyclically. *)
        let probes = Array.init 256 (fun k -> mk_packet (k * (n / 256 + 1) mod n)) in
        let pps run reps =
          let t0 = now () in
          for k = 0 to reps - 1 do
            ignore (run cfg ~ingress_port:1 probes.(k mod 256))
          done;
          float_of_int reps /. (now () -. t0)
        in
        let reps_i =
          if n <= 1_000 then 500
          else if n <= 10_000 then 100
          else if n <= 100_000 then 20
          else 3
        in
        let pps_compiled = pps Compile.run (if !quick then 5_000 else 20_000) in
        let pps_interp = pps Interp.run reps_i in
        let speedup = pps_compiled /. pps_interp in
        ( (n, speedup),
          Jsonp.Obj
            [ ("entries", int n);
              ("writes_per_s", num (float_of_int (List.length routes) /. t_write));
              ("pps_compiled", num pps_compiled); ("pps_interp", num ~digits:1 pps_interp);
              ("speedup", num ~digits:1 speedup) ] ))
      tiers
  in
  ( List.map snd measured,
    List.filter_map
      (fun ((n, speedup), _) ->
        if n = 100_000 then
          Some (check "speedup at 100000 entries >= 10" (num ~digits:1 speedup) (speedup >= 10.))
        else None)
      measured )

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type run =
  | Print of (unit -> unit)  (** prints its own, paper-style tables *)
  | Gated of (unit -> Jsonp.t list * Jsonp.t list)
      (** rows and gate checks, through [publish] *)

let registry =
  [ ("table1", Print table1); ("table2", Print table2); ("table3", Print table3);
    ("figure7", Print figure7); ("ablations", Print ablations);
    ("triage", Print triage); ("parallel", Print parallel);
    ("smt_incremental", Gated smt_incremental); ("taint", Gated taint);
    ("obs_overhead", Gated obs_overhead); ("fabric", Gated fabric);
    ("greybox", Gated greybox); ("scale", Gated scale) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "quick" args;
  let selected =
    match List.filter (fun a -> a <> "quick") args with
    | [] -> registry
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name registry with
            | Some run -> (name, run)
            | None ->
                Printf.eprintf "unknown artifact %S (use %s, optionally with quick)\n"
                  name (String.concat "|" (List.map fst registry));
                exit 2)
          names
  in
  let t0 = now () in
  List.iter
    (fun (name, run) ->
      (* Per-artifact telemetry: reset so each snapshot covers one artifact,
         and emit it as one machine-readable JSON line for trend tracking. *)
      Telemetry.reset (Telemetry.get ());
      (match run with
      | Print f -> f ()
      | Gated f -> publish name (f ()));
      Printf.printf "\ntelemetry %s %s\n" name
        (Telemetry.snapshot_to_json (Telemetry.snapshot (Telemetry.get ()))))
    selected;
  Printf.printf "\ntotal bench time: %.1fs\n" (now () -. t0)
