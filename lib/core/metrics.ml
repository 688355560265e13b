module Stack = Switchv_switch.Stack
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Fuzzer = Switchv_fuzzer.Fuzzer
module Oracle = Switchv_oracle.Oracle
module Dataplane = Switchv_oracle.Dataplane
module Taint = Switchv_analysis.Taint
module Interp = Switchv_bmv2.Interp
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Rng = Switchv_bitvec.Rng
module Term = Switchv_smt.Term

type table_metric = {
  tm_table : string;
  tm_fuzzed : int;
  tm_fuzz_ok : int;
  tm_entries : int;
  tm_covered : int;
  tm_behaved : int;
}

type t = table_metric list

let empty_metric table =
  { tm_table = table; tm_fuzzed = 0; tm_fuzz_ok = 0; tm_entries = 0; tm_covered = 0;
    tm_behaved = 0 }

let collect ?(batches = 10) ?(seed = 3) mk_stack entries =
  let tallies : (string, table_metric) Hashtbl.t = Hashtbl.create 16 in
  let get table =
    match Hashtbl.find_opt tallies table with
    | Some m -> m
    | None ->
        let m = empty_metric table in
        Hashtbl.replace tallies table m;
        m
  in
  let update table f = Hashtbl.replace tallies table (f (get table)) in

  (* --- control plane: per-update oracle verdicts --- *)
  let stack = mk_stack () in
  ignore (Stack.push_p4info stack);
  let fuzzer = Fuzzer.create (Stack.info stack) (Rng.create seed) in
  let oracle = Oracle.create (Stack.info stack) in
  let judge annotated =
    let updates = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
    let resp = Stack.write stack { Request.updates } in
    let read_back = Stack.read stack in
    let detailed = Oracle.judge_batch_detailed oracle updates resp ~read_back in
    if List.length detailed.per_update_ok = List.length updates then
      List.iter2
        (fun (u : Request.update) ok ->
          if Switchv_p4ir.P4info.find_table (Stack.info stack) u.entry.e_table = None
          then () (* mutations with invented table ids are not a feature *)
          else
          update u.entry.e_table (fun m ->
              { m with
                tm_fuzzed = m.tm_fuzzed + 1;
                tm_fuzz_ok = (m.tm_fuzz_ok + if ok then 1 else 0) }))
        updates detailed.per_update_ok
  in
  List.iter judge (Fuzzer.sweep fuzzer);
  for _ = 1 to batches do
    judge (Fuzzer.next_batch fuzzer)
  done;

  (* --- data plane: per-entry coverage and behaviour --- *)
  let stack = mk_stack () in
  ignore (Stack.push_p4info stack);
  List.iter
    (fun e ->
      update e.Entry.e_table (fun m -> { m with tm_entries = m.tm_entries + 1 });
      ignore (Stack.write stack { Request.updates = [ Request.insert e ] }))
    entries;
  let oracle =
    Dataplane.create (Dataplane.model (Stack.program stack) entries)
      ~taint:Taint.empty
  in
  let encoding = Symexec.encode (Stack.program stack) entries in
  let prefer = Term.not_ encoding.enc_dropped in
  let goals =
    (* Entry goals only (not defaults/branches): the metric is per entry. *)
    List.filter
      (fun (g : Packetgen.goal) ->
        match g.goal_kind with
        | Packetgen.G_entry { ge_label; _ } -> ge_label <> "<default>"
        | _ -> false)
      (Packetgen.entry_coverage_goals ~prefer encoding)
  in
  let result = Packetgen.generate encoding goals in
  List.iter
    (fun (tp : Packetgen.test_packet) ->
      match tp.tp_kind with
      | Packetgen.G_entry { ge_table = table; _ } -> (
          match tp.tp_bytes with
          | None -> ()
          | Some bytes ->
              let behaved =
                let switch = Stack.inject stack ~ingress_port:tp.tp_port bytes in
                match Dataplane.judge oracle ~ingress_port:tp.tp_port ~bytes ~switch with
                | Dataplane.Admitted -> true
                | Dataplane.Diverged _ | (exception Interp.Parse_failure _) -> false
              in
              update table (fun m ->
                  { m with
                    tm_covered = m.tm_covered + 1;
                    tm_behaved = (m.tm_behaved + if behaved then 1 else 0) }))
      | _ -> ())
    result.packets;
  Hashtbl.fold (fun _ m acc -> m :: acc) tallies []
  |> List.sort (fun a b -> String.compare a.tm_table b.tm_table)

let feature t ~name ~tables =
  List.fold_left
    (fun acc m ->
      if List.mem m.tm_table tables then
        { acc with
          tm_fuzzed = acc.tm_fuzzed + m.tm_fuzzed;
          tm_fuzz_ok = acc.tm_fuzz_ok + m.tm_fuzz_ok;
          tm_entries = acc.tm_entries + m.tm_entries;
          tm_covered = acc.tm_covered + m.tm_covered;
          tm_behaved = acc.tm_behaved + m.tm_behaved }
      else acc)
    (empty_metric name) t

let ratio num den = if den = 0 then None else Some (float_of_int num /. float_of_int den)

let fuzz_score m = ratio m.tm_fuzz_ok m.tm_fuzzed
let behave_score m = ratio m.tm_behaved m.tm_covered

let pp fmt t =
  let pct = function
    | Some r -> Printf.sprintf "%3.0f%%" (100. *. r)
    | None -> "  - "
  in
  Format.fprintf fmt "@[<v>%-32s %14s %20s@,"
    "table" "fuzz handled" "packets behave";
  List.iter
    (fun m ->
      Format.fprintf fmt "%-32s %s (%4d/%-4d) %s (%4d/%-4d)@," m.tm_table
        (pct (fuzz_score m)) m.tm_fuzz_ok m.tm_fuzzed
        (pct (behave_score m)) m.tm_behaved m.tm_covered)
    t;
  Format.fprintf fmt "@]"
