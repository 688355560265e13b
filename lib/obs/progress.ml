module Telemetry = Switchv_telemetry.Telemetry

(* The periodic stderr heartbeat of a running campaign: one line with the
   numbers an operator actually watches (PAPER.md §6 ran SwitchV as a
   monitored service). Reads the ambient registry; the coverage closure
   is injected so this module stays program-agnostic. *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [campaign.incidents] counts every incident the campaigns record
   (including oracle-flagged ones, so adding the two would double-count);
   the per-kind oracle counters stand in when only the oracle ran. *)
let incident_total tele =
  let snap = Telemetry.snapshot tele in
  let oracle =
    List.fold_left
      (fun acc (name, v) ->
        if has_prefix ~prefix:"oracle.incidents." name then acc + v else acc)
      0 snap.Telemetry.snap_counters
  in
  max (Telemetry.counter tele "campaign.incidents") oracle

let render tele ~coverage ~elapsed =
  let c name = Telemetry.counter tele name in
  let goals_total = c "goals.total" in
  let goals_done = c "symbolic.goals_covered" + c "symbolic.goals_uncoverable" in
  let packets = c "switch.packets_injected" in
  let incidents = incident_total tele in
  let b = Buffer.create 128 in
  Printf.bprintf b "[switchv] %6.1fs" elapsed;
  if goals_total > 0 then Printf.bprintf b " | goals %d/%d" goals_done goals_total
  else if goals_done > 0 then Printf.bprintf b " | goals %d" goals_done;
  Printf.bprintf b " | packets %d | incidents %d" packets incidents;
  (match coverage () with
  | Some (covered, total) when total > 0 ->
      Printf.bprintf b " | coverage %d/%d (%.1f%%)" covered total
        (100. *. float_of_int covered /. float_of_int total)
  | _ -> ());
  if goals_total > 0 && goals_done > 0 && goals_done < goals_total then
    Printf.bprintf b " | eta %.0fs"
      (elapsed /. float_of_int goals_done *. float_of_int (goals_total - goals_done));
  Buffer.contents b

type t = { mutable stopped : bool }

let start tele ~coverage =
  let started = Telemetry.Clock.now () in
  let state = { stopped = false } in
  let loop () =
    while not state.stopped do
      Thread.delay 2.0;
      if not state.stopped then begin
        let elapsed = Telemetry.Clock.duration ~since:started in
        prerr_string (render tele ~coverage ~elapsed ^ "\n");
        flush stderr
      end
    done
  in
  ignore (Thread.create loop ());
  state

let stop t =
  t.stopped <- true
  (* No join: the thread wakes at the next interval tick and exits; the
     final report should not wait on it. *)
