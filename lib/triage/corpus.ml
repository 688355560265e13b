module Stack = Switchv_switch.Stack
module Oracle = Switchv_oracle.Oracle
module Dataplane = Switchv_oracle.Dataplane
module Taint = Switchv_analysis.Taint
module Interp = Switchv_bmv2.Interp
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module Json = Switchv_telemetry.Telemetry.Json
module Jsonp = Switchv_telemetry.Jsonp

type record = {
  c_program : string;
  c_detector : string;
  c_kind : string;
  c_fingerprint : Fingerprint.t;
  c_faults : string list;
  c_repro : Repro.t;
}

let record_to_json r =
  Json.obj
    [ ("program", Json.str r.c_program); ("detector", Json.str r.c_detector);
      ("kind", Json.str r.c_kind); ("fingerprint", Json.str r.c_fingerprint);
      ("faults", Json.arr (List.map Json.str r.c_faults));
      ("repro", Repro.to_json r.c_repro) ]

let record_of_json line =
  let ( let* ) = Result.bind in
  let* j = Jsonp.parse line in
  let str name =
    match Option.bind (Jsonp.member name j) Jsonp.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or bad field %S" name)
  in
  let* program = str "program" in
  let* detector = str "detector" in
  let* kind = str "kind" in
  let* fingerprint = str "fingerprint" in
  let* faults =
    match Option.bind (Jsonp.member "faults" j) Jsonp.to_arr with
    | None -> Error "missing or bad field \"faults\""
    | Some xs -> (
        match List.map Jsonp.to_str xs with
        | ids when List.for_all Option.is_some ids ->
            Ok (List.filter_map Fun.id ids)
        | _ -> Error "non-string fault id")
  in
  let* repro =
    match Jsonp.member "repro" j with
    | None -> Error "missing field \"repro\""
    | Some r -> Repro.of_json r
  in
  Ok
    { c_program = program; c_detector = detector; c_kind = kind;
      c_fingerprint = fingerprint; c_faults = faults; c_repro = repro }

let save ?(append = true) path records =
  let flags =
    [ Open_wronly; Open_creat; (if append then Open_append else Open_trunc) ]
  in
  let oc = open_out_gen flags 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (record_to_json r);
          output_char oc '\n')
        records)

let load path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go (n + 1) acc rest
    | line :: rest -> (
        match record_of_json line with
        | Ok r -> go (n + 1) (r :: acc) rest
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
  in
  go 1 [] lines

(* --- replay ---------------------------------------------------------------- *)

type outcome = {
  o_reproduced : bool;
  o_incidents : int;
  o_detail : string;
}

let replay_control stack (c : Repro.control) note =
  let s = Stack.push_p4info stack in
  if not (Status.is_ok s) then
    note (Format.asprintf "p4info rejected: Set P4Info failed: %a" Status.pp s)
  else begin
    let oracle = Oracle.create (Stack.info stack) in
    let send updates =
      if updates <> [] && not (Stack.crashed stack) then begin
        let resp = Stack.write stack { Request.updates } in
        let read_back = Stack.read stack in
        List.iter
          (fun (i : Oracle.incident) ->
            note (Oracle.kind_to_string i.inc_kind ^ ": " ^ i.inc_detail))
          (Oracle.judge_batch oracle updates resp ~read_back)
      end
    in
    List.iter send (Request.insert_batches c.cr_prefix);
    send c.cr_batch
  end

let replay_data stack (d : Repro.data) note =
  let s = Stack.push_p4info stack in
  if not (Status.is_ok s) then
    note (Format.asprintf "p4info rejected: Set P4Info failed: %a" Status.pp s)
  else begin
    (* The campaign's workload is spec-valid by construction; an archived
       (or ddmin-shrunk) entry set need not be. The reference model covers
       only the spec-valid subset, and only a spec-valid entry's rejection
       is an observation — a switch refusing a dangling reference is
       correct, not a divergence. *)
    let _, model_entries = Oracle.spec_valid (Stack.info stack) d.dr_entries in
    let is_model_entry e = List.exists (Entry.equal e) model_entries in
    List.iter
      (fun updates ->
        let resp = Stack.write stack { Request.updates } in
        List.iter2
          (fun (u : Request.update) (st : Status.t) ->
            if (not (Status.is_ok st)) && is_model_entry u.entry then
              note
                (Format.asprintf "entry rejected during replay setup: %a: %a"
                   Status.pp st Entry.pp u.entry))
          updates resp.statuses)
      (Request.insert_batches d.dr_entries);
    (* The campaign's verdict with an empty taint summary, i.e. plain
       round-robin enumeration: whether a reproducer reproduces never
       depends on static analysis. *)
    let oracle =
      Dataplane.create
        (Dataplane.model (Stack.program stack) model_entries)
        ~taint:Taint.empty
    in
    let switch_b = Stack.inject stack ~ingress_port:d.dr_port d.dr_bytes in
    match
      Dataplane.judge oracle ~ingress_port:d.dr_port ~bytes:d.dr_bytes ~switch:switch_b
    with
    | exception Interp.Parse_failure msg ->
        note (Printf.sprintf "model parse failure: %s" msg)
    | Dataplane.Admitted -> ()
    | Dataplane.Diverged model_bs ->
        note
          (Format.asprintf
             "behavior divergence (port %d): switch behaved %a, model admits %a"
             d.dr_port Interp.pp_behavior switch_b Interp.pp_behavior_set model_bs)
  end

let replay_repro stack repro =
  let observations = ref [] in
  let note s = observations := s :: !observations in
  (match repro with
  | Repro.Control c -> replay_control stack c note
  | Repro.Data d -> replay_data stack d note);
  let obs = List.rev !observations in
  { o_reproduced = obs <> [];
    o_incidents = List.length obs;
    o_detail = (match obs with [] -> "clean" | first :: _ -> first) }

let replay ~mk_stack record = replay_repro (mk_stack ()) record.c_repro
