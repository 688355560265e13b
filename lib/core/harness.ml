module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Entry = Switchv_p4runtime.Entry
module Cache = Switchv_symbolic.Cache
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Ddmin = Switchv_triage.Ddmin
module Oracle = Switchv_oracle.Oracle
module Corpus = Switchv_triage.Corpus

type triage = { dedup : bool; minimize : bool }

let default_triage = { dedup = true; minimize = false }
let ddmin_probes = 256

type config = {
  control : Control_campaign.config;
  data_entries : Entry.t list;
  cache : Cache.t option;
  exploratory : bool;
  fuzzed_data_pass : bool;
  max_incidents : int;
  triage : triage option;
  jobs : int;
  data_shards : int;
  incremental : bool;
  taint : bool;
  greybox : bool;
  compile : bool;
}

(* Entries readable from a switch come back in insertion order of the
   switch's own store; re-order so references precede referents. *)
let sort_by_dependencies info entries =
  let placed = Hashtbl.create 64 in
  let out = ref [] in
  let state = Switchv_p4runtime.State.create () in
  let refs_ok e =
    Switchv_p4runtime.Validate.check_references info e
      ~exists:(fun ~table ~key value ->
        Switchv_p4runtime.State.exists_value state ~table ~key value)
    = Ok ()
  in
  let rec pass remaining fuel =
    if remaining = [] || fuel = 0 then remaining
    else begin
      let still =
        List.filter
          (fun e ->
            let key = Entry.match_key e in
            if (not (Hashtbl.mem placed key)) && refs_ok e then begin
              Hashtbl.add placed key ();
              ignore (Switchv_p4runtime.State.insert state e);
              out := e :: !out;
              false
            end
            else true)
          remaining
      in
      pass still (fuel - 1)
    end
  in
  ignore (pass entries 16);
  List.rev !out

let default_config entries =
  { control = Control_campaign.default_config;
    data_entries = entries;
    cache = None;
    exploratory = true;
    fuzzed_data_pass = false;
    max_incidents = 25;
    triage = Some default_triage;
    jobs = 1;
    data_shards = 1;
    incremental = true;
    taint = true;
    greybox = true;
    compile = true }

(* Shrink a reproducer to a 1-minimal input: each ddmin probe replays a
   candidate against a freshly provisioned stack. Sound because a clean
   stack replays incident-free, so any candidate that still reproduces is
   a genuine divergence. *)
let minimize_repro mk_stack ~max_probes repro =
  let reproduces r = (Corpus.replay_repro (mk_stack ()) r).Corpus.o_reproduced in
  let minimized =
    match repro with
  | Repro.Control (c : Repro.control) ->
      (* Batch first (usually where the signal is), then the prefix
         relative to the already-minimized batch. *)
      let batch =
        Ddmin.run ~max_probes
          ~check:(fun b -> reproduces (Repro.Control { c with cr_batch = b }))
          c.cr_batch
      in
      let c = { c with Repro.cr_batch = batch } in
      let prefix =
        Ddmin.run ~max_probes
          ~check:(fun p -> reproduces (Repro.Control { c with cr_prefix = p }))
          c.cr_prefix
      in
      Repro.Control { c with cr_prefix = prefix }
  | Repro.Data (d : Repro.data) ->
      let entries =
        Ddmin.run ~max_probes
          ~check:(fun es -> reproduces (Repro.Data { d with dr_entries = es }))
          d.dr_entries
      in
      Repro.Data { d with dr_entries = entries }
  in
  Telemetry.incr (Telemetry.get ()) "triage.updates_removed"
    ~n:(Repro.size repro - Repro.size minimized);
  minimized

let run_triage mk_stack (cfg : triage) incidents =
  let tele = Telemetry.get () in
  Telemetry.incr ~n:0 tele "triage.duplicates_collapsed";
  Telemetry.incr ~n:0 tele "triage.updates_removed";
  let minimize (i : Report.incident) =
    match i.repro with
    | Some r when cfg.minimize ->
        Telemetry.with_span tele "triage.minimize" (fun () ->
            let r = minimize_repro mk_stack ~max_probes:ddmin_probes r in
            { i with Report.repro = Some r })
    | _ -> i
  in
  if cfg.dedup then begin
    let reps, clusters = Report.cluster incidents in
    let reps = List.map minimize reps in
    ( reps,
      Some
        (List.map2
           (fun (c : Report.cluster) i -> { c with cl_example = i })
           clusters reps) )
  end
  else (List.map minimize incidents, None)

let validate mk_stack config =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "harness.validate" @@ fun () ->
  (* Shard 0 of the control campaign always runs in this process on
     [control_stack], so the fuzzed-entry harvest below sees the switch
     state it left behind even when the other shards ran in workers. *)
  let control_stack = mk_stack () in
  (* Snapshot the coverage counters before the control campaign: the delta
     afterwards is the edge set that campaign drove concretely, which the
     data campaign uses to skip already-covered branch goals. Worker shard
     deltas are absorbed into this registry before [run_sharded] returns,
     so the delta — hence the data campaign's goal list — is the same at
     any [jobs]. *)
  let cov_keys =
    if config.greybox then
      Switchv_obs.Coverage.edge_keys (Stack.program control_stack)
    else []
  in
  let cov_before = List.map (fun k -> Telemetry.counter tele k) cov_keys in
  let control_incidents, control_stats =
    Control_campaign.run_sharded ~jobs:config.jobs ~stack0:control_stack mk_stack
      { config.control with
        max_incidents = config.max_incidents;
        greybox = config.greybox }
  in
  let covered_edges =
    List.filter_map
      (fun (k, before) ->
        if Telemetry.counter tele k > before then Some k else None)
      (List.combine cov_keys cov_before)
  in
  (* §7 extension: harvest the entries the fuzzing campaign left on the
     switch (filtered to ones valid for the model — a buggy switch may
     claim to hold invalid state) and use them as a second data-plane
     workload. *)
  let fuzzed_entries =
    if not config.fuzzed_data_pass then []
    else begin
      let info = Stack.info control_stack in
      snd
        (Oracle.spec_valid info
           (sort_by_dependencies info (Stack.read control_stack).entries))
    end
  in
  let data_config entries =
    { (Data_campaign.default_config entries) with
      max_incidents = config.max_incidents;
      incremental = config.incremental;
      taint = config.taint;
      compile = config.compile;
      covered_edges }
  in
  let data_stack = mk_stack () in
  let data_incidents, data_stats =
    Data_campaign.run ~jobs:config.jobs data_stack
      { (data_config config.data_entries) with
        cache = config.cache;
        shards = config.data_shards;
        extra_goals =
          (if config.exploratory then Data_campaign.exploratory_goals
           else fun _ -> []) }
  in
  let fuzzed_incidents =
    if fuzzed_entries = [] then []
    else begin
      let incidents, _ =
        Data_campaign.run (mk_stack ())
          { (data_config fuzzed_entries) with test_packet_io = false }
      in
      List.map
        (fun (i : Report.incident) ->
          { i with Report.kind = "fuzzed-entry pass: " ^ i.kind })
        incidents
    end
  in
  let incidents, clusters =
    let all = control_incidents @ data_incidents @ fuzzed_incidents in
    match config.triage with
    | None -> (all, None)
    | Some t -> run_triage mk_stack t all
  in
  (* Every control incident is a p4-fuzzer one, and no other campaign's is. *)
  let control_incidents, data_incidents =
    List.partition
      (fun (i : Report.incident) -> i.detector = Report.Fuzzer)
      incidents
  in
  { Report.program_name = (Stack.program data_stack).p_name;
    control_incidents;
    data_incidents;
    fabric_incidents = [];
    control_stats = Some control_stats;
    data_stats = Some data_stats;
    fabric_stats = None;
    clusters;
    telemetry = Some (Telemetry.snapshot tele);
    coverage =
      Some (Switchv_obs.Coverage.of_registry tele (Stack.program data_stack)) }

let detect mk_stack config = Report.detected_by (validate mk_stack config)
