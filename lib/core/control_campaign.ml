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
module Pool = Switchv_parallel.Pool

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
   [seed + shard], and this shard's slice of the batch budget. The
   decomposition depends only on [config] (never on worker count), so the
   same shard always produces the same incidents. The directed sweep runs
   in shard 0 only — it is deterministic per-program, so running it once
   preserves the sequential campaign's output at [shards = 1]. *)
let run_shard ?(push_p4info = true) stack config ~shard =
  let shards = max 1 config.shards in
  let seed = config.seed + shard in
  let batches = (Shard.counts ~total:config.batches ~shards).(shard) in
  let start = Telemetry.Clock.now () in
  let incidents = ref [] in
  (* Counted separately: [List.length !incidents] per batch made the cutoff
     check quadratic in max_incidents. *)
  let n_incidents = ref 0 in
  let n_updates = ref 0 in
  let n_valid = ref 0 in
  let n_invalid = ref 0 in
  let n_batches = ref 0 in
  (* Entries installed before the current batch, per the switch's own
     read-back: the reproducer prefix for incidents in that batch. *)
  let prefix = ref [] in
  let add ?context ?repro detector kind detail =
    incr n_incidents;
    Telemetry.incr (Telemetry.get ()) "campaign.incidents";
    incidents := Report.incident ?context ?repro detector ~kind ~detail :: !incidents
  in
  (if push_p4info then begin
     let s = Stack.push_p4info stack in
     if not (Status.is_ok s) then
       add Report.Fuzzer "p4info rejected"
         ~repro:(Repro.Control { cr_seed = seed; cr_prefix = []; cr_batch = [] })
         (Format.asprintf "Set P4Info failed: %a" Status.pp s)
   end);
  (* Shard-local feedback state: starts empty and sees only this shard's
     own execution deltas, so scheduling is a pure function of
     (config, shard) — see the determinism note in [Greybox]. *)
  let greybox =
    if config.greybox then
      Some (Greybox.create ~program:(Stack.program stack) ~seed ())
    else None
  in
  if !incidents = [] then
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
            List.iter
              (fun (i : Oracle.incident) ->
                let kind =
                  match i.inc_kind with
                  | `Status_violation -> "status violation"
                  | `State_divergence -> "state divergence"
                  | `Unresponsive -> "unresponsive"
                  | `P4info_rejected -> "p4info rejected"
                in
                add ~context ~repro Report.Fuzzer kind i.inc_detail)
              batch_incidents
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
    (try
       (* Directed sweep first (every table, every mutation), then the
          random phase. *)
       if shard = 0 then
         List.iter
           (fun batch ->
             if !n_incidents >= config.max_incidents then raise Exit;
             process batch)
           (Fuzzer.sweep fuzzer);
       for _ = 1 to batches do
         if !n_incidents >= config.max_incidents then raise Exit;
         process (Fuzzer.next_batch fuzzer)
       done
     with Exit -> ()));
  let stats =
    { Report.cs_batches = !n_batches;
      cs_updates = !n_updates;
      cs_valid_updates = !n_valid;
      cs_invalid_updates = !n_invalid;
      cs_novel_edges =
        (match greybox with Some gb -> Greybox.novel_edges gb | None -> 0);
      cs_corpus_seeds =
        (match greybox with Some gb -> Greybox.corpus_size gb | None -> 0);
      cs_duration = Telemetry.Clock.duration ~since:start }
  in
  (List.rev !incidents, stats)

let run ?push_p4info stack config =
  run_shard ?push_p4info stack { config with shards = 1 } ~shard:0

(* --- sharded execution ---------------------------------------------------- *)

let shard_to_json (incidents, (s : Report.control_stats)) =
  Report.shard_to_json incidents
    (List.map float_of_int
       [ s.cs_batches; s.cs_updates; s.cs_valid_updates; s.cs_invalid_updates;
         s.cs_novel_edges; s.cs_corpus_seeds ]
    @ [ s.cs_duration ])

let shard_of_json payload =
  match Report.shard_of_json payload with
  | Ok (incidents, [ batches; updates; valid; invalid; novel; seeds; cs_duration ]) ->
      Ok
        ( incidents,
          { Report.cs_batches = int_of_float batches;
            cs_updates = int_of_float updates;
            cs_valid_updates = int_of_float valid;
            cs_invalid_updates = int_of_float invalid;
            cs_novel_edges = int_of_float novel;
            cs_corpus_seeds = int_of_float seeds;
            cs_duration } )
  | Ok _ -> Error "control shard payload: wrong totals"
  | Error e -> Error e

let run_sharded ?(push_p4info = true) ?(jobs = 1) ?stack0 mk_stack config =
  let shards = max 1 config.shards in
  let stack_for shard =
    match stack0 with Some s when shard = 0 -> s | _ -> mk_stack ()
  in
  let results =
    Pool.map ~jobs ~shards
      ~parent_shards:(if stack0 <> None then [ 0 ] else [])
      ~encode:shard_to_json ~decode:shard_of_json
      (fun shard -> run_shard ~push_p4info (stack_for shard) config ~shard)
  in
  match results with
  | [ single ] when shards = 1 -> single
  | _ ->
      (* Merge in shard order: each shard ran with the full incident
         budget, so truncating the concatenation to [max_incidents] yields
         the same prefix whether shards ran sequentially or in any
         parallel interleaving. *)
      ( List.filteri (fun i _ -> i < config.max_incidents)
          (List.concat_map fst results),
        Report.merge_control_stats (List.map snd results) )
