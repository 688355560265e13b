module Stack = Switchv_switch.Stack
module Fuzzer = Switchv_fuzzer.Fuzzer
module Greybox = Switchv_fuzzer.Greybox
module Oracle = Switchv_oracle.Oracle
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module Rng = Switchv_bitvec.Rng
module Telemetry = Switchv_telemetry.Telemetry
module Repro = Switchv_triage.Repro
module Shard = Switchv_parallel.Shard

type config = {
  batches : int;
  fuzzer_config : Fuzzer.config;
  seed : int;
  max_incidents : int;
  shards : int;
  greybox : bool;
}

let default_config =
  { batches = 20; fuzzer_config = Fuzzer.default_config; seed = 7;
    max_incidents = 25; shards = 1; greybox = true }

(* Probe packets injected after each batch with the feedback loop on:
   control batches execute no packets themselves, so the probes are what
   turn installed state into coverage deltas the scheduler can learn
   from. *)
let probes_per_batch = 2

(* One shard of the campaign: a fresh stack, a fresh fuzzer seeded with
   [seed + shard], and [slots], this shard's slice of the batch budget. The
   decomposition depends only on [config] (never on worker count), so the
   same shard always produces the same incidents. The directed sweep runs
   in shard 0 only — it is deterministic per-program, so running it once
   preserves the sequential campaign's output at [shards = 1]. The budget
   is checked between batches: the oracle judges a batch as a unit, so a
   batch's incidents are kept together even past the cap. *)
let fuzz_shard stack config shard sink (_, slots) =
  let seed = config.seed + shard in
  let start = Telemetry.Clock.now () in
  let n_updates = ref 0 in
  let n_valid = ref 0 in
  let n_invalid = ref 0 in
  let n_batches = ref 0 in
  (* Entries installed before the current batch, per the switch's own
     read-back: the reproducer prefix for incidents in that batch. *)
  let prefix = ref [] in
  let p4info = Stack.push_p4info stack in
  if not (Status.is_ok p4info) then
    Campaign.add sink "p4info rejected"
      ~repro:(Repro.Control { cr_seed = seed; cr_prefix = []; cr_batch = [] })
      (Format.asprintf "Set P4Info failed: %a" Status.pp p4info);
  (* Shard-local feedback state: starts empty and sees only this shard's
     own execution deltas, so scheduling is a pure function of
     (config, shard) — see the determinism note in [Greybox]. *)
  let greybox =
    if config.greybox then
      Some (Greybox.create ~program:(Stack.program stack) ~seed ())
    else None
  in
  if Status.is_ok p4info then
    Telemetry.with_span (Telemetry.get ()) "campaign.control" (fun () ->
    let fuzzer =
      Fuzzer.create ~config:config.fuzzer_config ?greybox (Stack.info stack)
        (Rng.create seed)
    in
    let oracle = Oracle.create (Stack.info stack) in
    let process annotated =
      incr n_batches;
      let updates = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
      n_updates := !n_updates + List.length updates;
      List.iter
        (fun (a : Fuzzer.annotated_update) ->
          match a.mutation with
          | Some _ -> incr n_invalid
          | None -> incr n_valid)
        annotated;
      let resp = Stack.write stack { Request.updates } in
      let read_back = Stack.read stack in
      let batch_incidents = Oracle.judge_batch oracle updates resp ~read_back in
      (if batch_incidents <> [] then begin
         (* One reproducer and one context per batch; the oracle judges
            the batch as a unit, so its incidents share both. *)
         let mutated =
           List.find_opt
             (fun (a : Fuzzer.annotated_update) -> a.mutation <> None)
             annotated
         in
         let table =
           match mutated with
           | Some a -> Some a.update.entry.e_table
           | None -> (
               (* Directed-sweep batches target a single table; use it
                  when the whole batch agrees. *)
               match updates with
               | (u : Request.update) :: rest
                 when List.for_all
                        (fun (v : Request.update) ->
                          String.equal v.entry.e_table u.entry.e_table)
                        rest ->
                   Some u.entry.e_table
               | _ -> None)
         in
         let context =
           Report.context ?table
             ?mutation:(Option.bind mutated
                          (fun (a : Fuzzer.annotated_update) -> a.mutation))
             ~batch:!n_batches ()
         in
         let repro =
           Repro.Control
             { cr_seed = seed; cr_prefix = !prefix; cr_batch = updates }
         in
         Campaign.add_batch sink ~context ~repro
           (List.map
              (fun (i : Oracle.incident) ->
                (Oracle.kind_to_string i.inc_kind, i.inc_detail))
              batch_incidents)
       end);
      prefix := read_back.entries;
      (* Feedback: inject a few probe packets through the state this batch
         left behind and fold the coverage delta into the novelty map.
         Probes that reached shard-novel edges enter the corpus themselves,
         and the batch that set up the state is credited alongside them. *)
      (match greybox with
      | Some gb when not (Stack.crashed stack) ->
          let tele = Telemetry.get () in
          let tables =
            List.sort_uniq String.compare
              (List.map (fun (u : Request.update) -> u.entry.e_table) updates)
          in
          let novel = ref 0 in
          for _ = 1 to probes_per_batch do
            let before = Greybox.snapshot gb tele in
            let port, bytes = Greybox.probe_packet gb in
            Telemetry.incr tele "fuzzer.greybox.probes";
            ignore (Stack.inject stack ~ingress_port:port bytes);
            novel :=
              !novel
              + Greybox.observe gb tele ~before ~tables
                  ~seed:(Greybox.Packet (port, bytes)) ()
          done;
          if !novel > 0 then
            Greybox.admit gb
              (Greybox.Batch
                 (List.map (fun (u : Request.update) -> u.entry) updates))
              ~energy:!novel
      | _ -> ());
      (* A wedged switch cannot produce more signal; stop the campaign. *)
      if Stack.crashed stack then raise Exit
    in
    let check_budget () = if not (Campaign.room sink) then raise Exit in
    (* Directed sweep first (every table, every mutation), then the random
       phase. *)
    try
      if shard = 0 then
        List.iter
          (fun batch ->
            check_budget ();
            process batch)
          (Fuzzer.sweep fuzzer);
      List.iter
        (fun _ ->
          check_budget ();
          process (Fuzzer.next_batch fuzzer))
        slots
    with Exit -> ());
  let greybox_total f = match greybox with Some gb -> float (f gb) | None -> 0. in
  [ ("batches", float !n_batches); ("updates", float !n_updates);
    ("valid", float !n_valid); ("invalid", float !n_invalid);
    ("novel_edges", greybox_total Greybox.novel_edges);
    ("corpus_seeds", greybox_total Greybox.corpus_size);
    ("duration", Telemetry.Clock.duration ~since:start) ]

let stats totals =
  let n name = int_of_float (Campaign.total totals name) in
  { Report.cs_batches = n "batches";
    cs_updates = n "updates";
    cs_valid_updates = n "valid";
    cs_invalid_updates = n "invalid";
    cs_novel_edges = n "novel_edges";
    cs_corpus_seeds = n "corpus_seeds";
    cs_duration = Campaign.total totals "duration" }

let batch_slots config = List.init config.batches Fun.id

let run_shard stack config ~shard =
  let sink = Campaign.sink ~cap:config.max_incidents Report.Fuzzer in
  let slices = Shard.partition ~shards:(max 1 config.shards) (batch_slots config) in
  let totals = fuzz_shard stack config shard sink slices.(shard) in
  (Campaign.incidents sink, stats totals)

let run stack config = run_shard stack { config with shards = 1 } ~shard:0

let run_sharded ?jobs ?stack0 mk_stack config =
  let stack_for shard =
    match stack0 with Some s when shard = 0 -> s | _ -> mk_stack ()
  in
  let sink = Campaign.sink ~cap:config.max_incidents Report.Fuzzer in
  let totals =
    Campaign.run ?jobs
      ~parent_shards:(if stack0 <> None then [ 0 ] else [])
      sink ~shards:config.shards
      (fun shard -> fuzz_shard (stack_for shard) config shard)
      (batch_slots config)
  in
  (Campaign.incidents sink, stats totals)
