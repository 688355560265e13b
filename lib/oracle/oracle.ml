module P4info = Switchv_p4ir.P4info
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State
module Validate = Switchv_p4runtime.Validate
module Telemetry = Switchv_telemetry.Telemetry

type t = {
  info : P4info.t;
  mutable state : State.t;
}

let create info = { info; state = State.create () }

let observed t = t.state

type expectation = Must_accept | Must_reject of string | May_either of string

type kind =
  [ `Status_violation | `State_divergence | `Unresponsive | `P4info_rejected ]

let kind_to_string : kind -> string = function
  | `Status_violation -> "status violation"
  | `State_divergence -> "state divergence"
  | `Unresponsive -> "unresponsive"
  | `P4info_rejected -> "p4info rejected"

type incident = { inc_kind : kind; inc_detail : string }

let pp_incident fmt i =
  Format.fprintf fmt "[%s] %s" (kind_to_string i.inc_kind) i.inc_detail

let spec_valid info entries =
  let state = State.create () in
  let entries =
    List.filter
      (fun e ->
        Validate.check_entry info e = Ok ()
        && Validate.check_references info e ~exists:(fun ~table ~key value ->
               State.exists_value state ~table ~key value)
           = Ok ()
        && State.insert state e = Ok ())
      entries
  in
  (state, entries)

(* A batch is classified in full before any of it is applied, so
   [t.state] is the pre-batch state throughout and its live reference
   counts answer for the whole batch. *)
let classify t (u : Request.update) =
  let e = u.entry in
  match Validate.check_entry t.info e with
  | Error s -> Must_reject (Format.asprintf "invalid request: %a" Status.pp s)
  | Ok () -> (
      let exists = Option.is_some (State.find t.state e) in
      match u.op with
      | Request.Insert -> (
          if exists then Must_reject "duplicate insert"
          else
            match
              Validate.check_references t.info e ~exists:(fun ~table ~key value ->
                  State.exists_value t.state ~table ~key value)
            with
            | Error s -> Must_reject (Format.asprintf "dangling reference: %a" Status.pp s)
            | Ok () -> (
                match P4info.find_table t.info e.e_table with
                | Some ti when State.count t.state e.e_table >= ti.ti_size ->
                    May_either "table at guaranteed capacity"
                | _ -> Must_accept))
      | Request.Modify -> (
          if not exists then Must_reject "modify of non-existent entry"
          else
            match
              Validate.check_references t.info e ~exists:(fun ~table ~key value ->
                  State.exists_value t.state ~table ~key value)
            with
            | Error s -> Must_reject (Format.asprintf "dangling reference: %a" Status.pp s)
            | Ok () -> Must_accept)
      | Request.Delete ->
          if not exists then Must_reject "delete of non-existent entry"
          else if State.provides_referenced t.state t.info (Option.get (State.find t.state e))
          then
            Must_reject "delete of a referenced entry"
          else Must_accept)

type detailed = {
  incidents : incident list;
  per_update_ok : bool list;
}

let incident_counter kind =
  "oracle.incidents."
  ^ String.map (function ' ' -> '_' | c -> c) (kind_to_string kind)

(* Does [entries] list exactly [state]'s entry values, in its insertion
   order, as the same (physically equal) records? Then a state rebuilt
   from [entries] would hold the same entries in the same order. *)
let lists_state state entries =
  List.compare_length_with entries (State.total state) = 0
  && List.for_all2 ( == ) (State.all state) entries

let judge_batch_detailed t updates (resp : Request.write_response) ~read_back =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "oracle.judge_batch" @@ fun () ->
  Telemetry.incr tele "oracle.batches_judged";
  Telemetry.incr ~n:(List.length updates) tele "oracle.updates_judged";
  let incidents = ref [] in
  let verdicts = ref [] in
  let add kind detail =
    Telemetry.incr tele (incident_counter kind);
    incidents := { inc_kind = kind; inc_detail = detail } :: !incidents
  in
  if List.length resp.statuses <> List.length updates then
    add `Status_violation
      (Printf.sprintf "response has %d statuses for %d updates"
         (List.length resp.statuses) (List.length updates));
  let n_unavailable =
    List.length
      (List.filter (fun (s : Status.t) -> s.code = Status.Unavailable) resp.statuses)
  in
  if n_unavailable > 0 && n_unavailable = List.length resp.statuses then
    add `Unresponsive "switch returned UNAVAILABLE for the entire batch";
  (* Status vector vs expectations, and the implied state. Capacity is
     judged against the whole batch: if the batch's inserts could take a
     table past its guaranteed size mid-batch, rejection of any insert to
     that table is admissible (the execution order is unspecified). *)
  let batch_inserts = Hashtbl.create 8 in
  List.iter
    (fun (u : Request.update) ->
      if u.op = Request.Insert then
        Hashtbl.replace batch_inserts u.entry.e_table
          (1 + Option.value ~default:0 (Hashtbl.find_opt batch_inserts u.entry.e_table)))
    updates;
  if List.length resp.statuses = List.length updates then begin
    List.iter2
      (fun (u : Request.update) (s : Status.t) ->
        let expectation =
          match classify t u with
          | Must_accept
            when u.op = Request.Insert
                 && (match P4info.find_table t.info u.entry.e_table with
                    | Some ti ->
                        State.count t.state u.entry.e_table
                        + Option.value ~default:0
                            (Hashtbl.find_opt batch_inserts u.entry.e_table)
                        > ti.ti_size
                    | None -> false) ->
              May_either "batch may exceed guaranteed capacity"
          | e -> e
        in
        match (expectation, Status.is_ok s) with
        | Must_accept, false ->
            verdicts := false :: !verdicts;
            add `Status_violation
              (Format.asprintf "valid update rejected (%a): %a" Status.pp s
                 Request.pp_update u)
        | Must_reject why, true ->
            verdicts := false :: !verdicts;
            add `Status_violation
              (Format.asprintf "invalid update accepted (%s): %a" why Request.pp_update u)
        | Must_accept, true | Must_reject _, false | May_either _, _ ->
            verdicts := true :: !verdicts)
      updates resp.statuses;
    (* With every update judged against the pre-batch state, turn the
       state into the one implied by the switch's own statuses. Apply only
       updates that make sense; contradictory accepts were already
       reported above. *)
    List.iter2
      (fun (u : Request.update) (s : Status.t) ->
        if Status.is_ok s then
          match u.op with
          | Request.Insert -> ignore (State.insert t.state u.entry)
          | Request.Modify -> ignore (State.modify t.state u.entry)
          | Request.Delete -> ignore (State.delete t.state u.entry))
      updates resp.statuses
  end;
  (* Read-back must equal the implied state. A read-back that lists the
     implied state's own entry values in its own order is that state, so
     the oracle keeps it along with its maintained counts. Otherwise it
     rebuilds the switch's claimed state, compares, and adopts it as the
     new baseline (§4.3: forget the prior state). *)
  if not (lists_state t.state read_back.Request.entries) then begin
    let actual = State.create () in
    List.iter (fun e -> ignore (State.insert actual e)) read_back.entries;
    if not (State.equal t.state actual) then begin
      let diffs = State.diff t.state actual in
      let shown = List.filteri (fun i _ -> i < 5) diffs in
      add `State_divergence
        (Printf.sprintf "switch state does not match reported statuses (%d differences): %s"
           (List.length diffs) (String.concat " | " shown))
    end;
    t.state <- actual
  end;
  { incidents = List.rev !incidents; per_update_ok = List.rev !verdicts }

let judge_batch t updates resp ~read_back =
  (judge_batch_detailed t updates resp ~read_back).incidents
