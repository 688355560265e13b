(* The four benchmark workloads. Each one stresses a different layer of
   the pipeline, and each is a fixed function of the seed: the seed picks
   the entry sets, fuzzer seeds and replay packets, never the sizes.

   A runner runs one workload in one process and one thread. Ops are
   numbered 0, 1, 2, ...; op [i] always works on input [i mod pass], so
   a run that stops at a pass boundary has sampled every input equally
   often. *)

open Switchv_core
module Stack = Switchv_switch.Stack
module Catalogue = Switchv_switch.Catalogue
module Fault = Switchv_switch.Fault
module Workload = Switchv_sai.Workload
module Middleblock = Switchv_sai.Middleblock
module Wan = Switchv_sai.Wan
module Cache = Switchv_symbolic.Cache
module State = Switchv_p4runtime.State
module Entry = Switchv_p4runtime.Entry
module Status = Switchv_p4runtime.Status
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Dataplane = Switchv_oracle.Dataplane
module Analysis = Switchv_analysis.Analysis
module Packet = Switchv_packet.Packet
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng

type result = {
  ok : bool;  (* the op passed its correctness check *)
  work : int;  (* work units completed (see [unit_name]) *)
  signature : unit -> string;
      (* what every run of the same input must reproduce, traced or not *)
  counts : (string * float) list;  (* per-layer counts, from traced ops *)
}

(* The ops one set-up prepared, bound to the state it built. *)
type prepared = {
  checked : bool;  (* the set-up's own check held *)
  op : int -> result;  (* the library call the end-to-end metrics time *)
  traced : Spans.t -> int -> result;  (* the same op through [Traced] *)
}

type runner = {
  pass : int;  (* distinct inputs *)
  warmup_ops : int;  (* untimed ops run before timing, to fill process memos *)
  setup : unit -> prepared;
}

type t = {
  name : string;
  unit_name : string;  (* what [work_per_s] counts *)
  make : smoke:bool -> seed:int -> runner;
}

let derive_seeds seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Rng.int rng 1_000_000_000)

let report_signature (r : Report.t) =
  let control =
    match r.control_stats with
    | Some c ->
        Printf.sprintf "batches=%d updates=%d valid=%d invalid=%d novel=%d corpus=%d"
          c.cs_batches c.cs_updates c.cs_valid_updates c.cs_invalid_updates c.cs_novel_edges
          c.cs_corpus_seeds
    | None -> "-"
  in
  let data =
    match r.data_stats with
    | Some d ->
        Printf.sprintf
          "installed=%d goals=%d covered=%d uncoverable=%d tainted=%d tested=%d"
          d.ds_entries_installed d.ds_goals d.ds_covered d.ds_uncoverable d.ds_tainted_goals
          d.ds_packets_tested
    | None -> "-"
  in
  Printf.sprintf "control[%s] data[%s] incidents=%d+%d detected=%s" control data
    (List.length r.control_incidents) (List.length r.data_incidents)
    (Option.fold ~none:"none" ~some:Report.detector_to_string (Report.detected_by r))

let goals (r : Report.t) =
  Option.fold ~none:0 ~some:(fun d -> d.Report.ds_goals) r.data_stats

let outcome_counts (o : Traced.outcome) =
  let cache =
    match o.report.data_stats with
    | Some d ->
        [ ("cache_hits", float d.ds_cache_hits); ("cache_misses", float d.ds_cache_misses) ]
    | None -> []
  in
  [ ("symbolic.goals", float (goals o.report));
    ("core.incidents", float o.raw_incidents);
    ("p4runtime.state_entries", float o.state_entries) ]
  @ cache
  @ List.map (fun (k, v) -> ("smt." ^ k, float v)) o.solver_stats

(* --- validate-cold ------------------------------------------------------ *)

(* The cold nightly run: a full [Harness.validate] with no packet cache on
   a clean middleblock stack, so SMT packet generation dominates. Each
   input is a different entry set; the control fuzzer seed is the
   harness default, so every op fuzzes the same batches. SMT cost varies
   from one entry set to the next, so a pass holds several small entry
   sets and [op_ms_p50] is the median of their fastest runs. *)
let validate_cold ~smoke ~seed =
  let scale, batches, instances = if smoke then (0.02, 1, 1) else (0.1, 20, 6) in
  let program = Middleblock.program in
  let mk () = Stack.create program in
  let result (r : Report.t) counts =
    { ok = Report.clean r;
      work = goals r;
      signature = (fun () -> report_signature r);
      counts }
  in
  let setup () =
    let configs =
      Array.map
        (fun s ->
          let entries =
            Workload.generate ~seed:s program (Workload.scaled scale Workload.inst1)
          in
          { (Harness.default_config entries) with
            control = { Control_campaign.default_config with batches } })
        (derive_seeds seed instances)
    in
    let config i = configs.(i mod instances) in
    { checked = true;
      op = (fun i -> result (Harness.validate mk (config i)) []);
      traced =
        (fun tr i ->
          let o = Traced.validate tr ~name:"core.validate" mk (config i) in
          result o.report (outcome_counts o)) }
  in
  { pass = instances; warmup_ops = 1; setup }

(* --- fuzz-deep ----------------------------------------------------------- *)

(* A long control-plane campaign: writes, read-backs and oracle judgement
   against a switch whose installed state keeps growing, with no SMT and no
   packets. The blind fuzzer ([greybox = false]) is used because the
   greybox corpus path crashes on some seeds (see README.md). *)
let fuzz_deep ~smoke ~seed =
  let batches, campaigns = if smoke then (2, 1) else (40, 6) in
  let program = Middleblock.program in
  let result (incidents, (s : Report.control_stats)) counts =
    { ok = incidents = [];
      work = s.cs_updates;
      signature =
        (fun () ->
          report_signature
            { (Report.empty program.p_name) with
              control_incidents = incidents; control_stats = Some s });
      counts }
  in
  let setup () =
    let seeds = derive_seeds seed campaigns in
    let config ?(batches = batches) i =
      { Control_campaign.default_config with
        batches; seed = seeds.(i mod campaigns); greybox = false }
    in
    (* Provision a stack and run the directed sweep alone: it must be
       incident-free before any deep campaign is timed. *)
    let incidents, _ = Control_campaign.run (Stack.create program) (config ~batches:0 0) in
    { checked = incidents = [];
      op = (fun i -> result (Control_campaign.run (Stack.create program) (config i)) []);
      traced =
        (fun tr i ->
          Spans.span tr "core.fuzz" @@ fun () ->
          let stack = Spans.span tr "switch.create" (fun () -> Stack.create program) in
          let r = Traced.control tr stack (config i) in
          result r
            [ ("p4runtime.state_entries", float (State.total (Stack.server_state stack)));
              ("core.incidents", float (List.length (fst r))) ]) }
  in
  { pass = campaigns; warmup_ops = 0; setup }

(* --- replay-wan ---------------------------------------------------------- *)

(* One replay packet built from the installed entries: an admitted
   destination MAC and a host inside an installed IPv4 route, except for
   one packet in ten with an unadmitted MAC and one in ten sent to an
   address no route or ACL covers (198.18.0.0/15). *)
let replay_packet rng ~macs ~routes =
  let roll = Rng.int rng 10 in
  let mac = if roll = 0 then Rng.bitvec rng 48 else Rng.choose rng macs in
  let host prefix =
    let len = Prefix.len prefix in
    Bitvec.logor (Prefix.value prefix)
      (Bitvec.logand (Rng.bitvec rng 32) (Bitvec.lognot (Bitvec.prefix_mask ~width:32 len)))
  in
  let dst =
    if roll = 1 then host (Prefix.of_ipv4_string "198.18.0.0/15")
    else host (Rng.choose rng routes)
  in
  let src = host (Prefix.of_ipv4_string "192.0.2.0/24") in
  let p = Packet.simple_ipv4 ~src:"192.0.2.1" ~dst:"198.18.0.1" () in
  let p = Packet.set p ~header:"ethernet" ~field:"dst_addr" mac in
  let p = Packet.set p ~header:"ipv4" ~field:"src_addr" src in
  let p = Packet.set p ~header:"ipv4" ~field:"dst_addr" dst in
  (1 + Rng.int rng 4, Packet.to_bytes p)

(* Packet replay against the WAN role with its full Inst2 entry set
   installed: the switch's and the model's packet paths, with no SMT and
   no fuzzer. *)
let replay_wan ~smoke ~seed =
  let scale, n_packets = if smoke then (0.05, 64) else (1.0, 4096) in
  let program = Wan.program in
  let result (b : Interp.behavior) verdict =
    { ok = verdict = `Admitted;
      work = 1;
      signature =
        (fun () ->
          Printf.sprintf "%s egress=%s punted=%b mirrors=%d bytes=%s"
            (match verdict with `Admitted -> "admitted" | `Diverged -> "diverged")
            (Option.fold ~none:"drop" ~some:string_of_int b.b_egress)
            b.b_punted (List.length b.b_mirrors)
            (Digest.to_hex (Digest.string b.b_packet)));
      counts = [] }
  in
  let setup () =
    let rng = Rng.create seed in
    let entries =
      Workload.generate ~seed:(Rng.int rng 1_000_000_000) program
        (Workload.scaled scale Workload.inst2)
    in
    let stack = Stack.create program in
    let pushed = Status.is_ok (Stack.push_p4info stack) in
    let installed =
      Traced.install Spans.disabled stack entries ~on_reject:(fun _ _ -> ())
    in
    let model = Traced.model_config program entries in
    let facts = Analysis.facts ~check_restrictions:false program in
    let oracle = Dataplane.create ~compile:true model ~taint:facts.f_taint in
    let column table field f =
      List.filter_map
        (fun (e : Entry.t) ->
          if String.equal e.e_table table then Option.bind (Entry.find_match e field) f
          else None)
        entries
    in
    let macs =
      column "l3_admit_table" "dst_mac" (function
        | Entry.M_ternary t -> Some (Ternary.value t)
        | _ -> None)
    in
    let routes =
      column "ipv4_table" "ipv4_dst" (function Entry.M_lpm p -> Some p | _ -> None)
    in
    let packets = Array.init n_packets (fun _ -> replay_packet rng ~macs ~routes) in
    let judge port bytes b =
      match Dataplane.judge oracle ~ingress_port:port ~bytes ~switch:b with
      | Dataplane.Admitted -> `Admitted
      | Dataplane.Diverged _ -> `Diverged
      | exception Interp.Parse_failure _ -> `Diverged
    in
    { checked = pushed && installed = List.length entries;
      op =
        (fun i ->
          let port, bytes = packets.(i mod n_packets) in
          let b = Stack.inject stack ~ingress_port:port bytes in
          result b (judge port bytes b));
      traced =
        (fun tr i ->
          let port, bytes = packets.(i mod n_packets) in
          let r =
            Spans.span tr "core.packet" (fun () ->
                let b =
                  Spans.span tr "switch.inject" (fun () ->
                      Stack.inject stack ~ingress_port:port bytes)
                in
                let verdict = Spans.span tr "oracle.judge" (fun () -> judge port bytes b) in
                let r = result b verdict in
                (* The model pipeline alone, not part of the op: it splits
                   [switch.inject] into pipeline and stack cost. The
                   overhead figure leaves it out. *)
                ignore
                  (Spans.span tr "bmv2.shadow_run" (fun () ->
                       Compile.run model ~ingress_port:port bytes));
                r)
          in
          let entries = State.total (Stack.server_state stack) in
          { r with counts = [ ("p4runtime.state_entries", float entries) ] }) }
  in
  { pass = n_packets; warmup_ops = n_packets; setup }

(* --- hunt-catalogue ------------------------------------------------------- *)

(* The paper's Table 1 hunt: one [Harness.validate] per PINS catalogue
   fault, sharing one in-memory packet cache that a clean validation fills
   during set-up and the faults' own first runs complete. With the cache
   warm, SMT does almost no work; control fuzzing, data-plane testing and
   triage dominate.

   The catalogue derives fault targets from the entry set, and a target
   the entries never exercise goes undetected, so only a fixed entry set
   guarantees that every fault is found: the Table 1 one (inst1 x 0.25,
   entry seed 42, control seed 99, as in bench/main.ml). The seed sets the
   order the faults are hunted in. *)
let hunt_catalogue ~smoke ~seed =
  let scale, batches, pass = if smoke then (0.05, 1, 6) else (0.25, 4, 122) in
  let program = Middleblock.program in
  let setup () =
    let entries =
      Workload.generate ~seed:42 program (Workload.scaled scale Workload.inst1)
    in
    let faults = Catalogue.pins program entries in
    let faults = if smoke then List.filteri (fun i _ -> i mod 24 = 0) faults else faults in
    let faults = Array.of_list (Rng.shuffle (Rng.create seed) faults) in
    let config =
      { (Harness.default_config entries) with
        control = { Control_campaign.default_config with batches; seed = 99 };
        cache = Some (Cache.in_memory ()) }
    in
    let clean = Harness.validate (fun () -> Stack.create program) config in
    let run i f =
      let fault = faults.(i mod pass) in
      let r, counts = f (fun () -> Stack.create ~faults:[ fault ] program) in
      { ok = Report.detected_by r <> None;
        work = 1;
        signature = (fun () -> fault.Fault.id ^ " " ^ report_signature r);
        counts }
    in
    { checked = Report.clean clean && Array.length faults = pass;
      op = (fun i -> run i (fun mk -> (Harness.validate mk config, [])));
      traced =
        (fun tr i ->
          run i (fun mk ->
              let o = Traced.validate tr ~name:"core.hunt" mk config in
              (o.report, outcome_counts o))) }
  in
  (* No warm-up pass: the first timed pass fills each fault's own cache
     entries, and only each input's fastest run counts. *)
  { pass; warmup_ops = 0; setup }

let all =
  [ { name = "validate-cold"; unit_name = "goals"; make = validate_cold };
    { name = "fuzz-deep"; unit_name = "updates"; make = fuzz_deep };
    { name = "replay-wan"; unit_name = "packets"; make = replay_wan };
    { name = "hunt-catalogue"; unit_name = "faults"; make = hunt_catalogue } ]
