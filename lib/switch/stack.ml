module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Bitvec = Switchv_bitvec.Bitvec
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State
module Validate = Switchv_p4runtime.Validate
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Workload = Switchv_sai.Workload
module Telemetry = Switchv_telemetry.Telemetry

type t = {
  s_program : Ast.program;          (* the contract (what SwitchV validates against) *)
  asic_program : Ast.program;       (* the ASIC's actual behaviour (may be perturbed) *)
  s_info : P4info.t;
  s_faults : Fault.t list;
  server : State.t;
  asic : State.t;
  hash_seed : int;
  eval : Interp.evaluator;          (* the ASIC data plane's evaluator *)
  mutable p4info_ok : bool;
  mutable is_crashed : bool;
}

(* --- fault lookup helpers -------------------------------------------------- *)

(* Does a seeded fault take effect here? Every fault whose kind satisfies
   [trigger] is counted as fired, per catalogue id ("fault.PINS-042"), so
   campaigns can see which seeded bugs changed observable behaviour — and
   how often — independent of detection. Ask only where the answer
   changes what the switch does: a fault that waives a check is asked
   once the check has failed. *)
let rec fires_in trigger = function
  | [] -> false
  | (f : Fault.t) :: rest ->
      let fired = trigger f.Fault.kind in
      if fired then Telemetry.incr (Telemetry.get ()) ("fault." ^ f.id);
      fires_in trigger rest || fired

let fires t trigger = fires_in trigger t.s_faults

(* --- data-plane program perturbations -------------------------------------- *)

let reverse_bytes_expr e width =
  (* Byte-swap a value: the Cerberus endianness bug. *)
  let nbytes = width / 8 in
  let byte i = Ast.E_slice (((i + 1) * 8) - 1, i * 8, e) in
  let rec build i acc = if i >= nbytes then acc else build (i + 1) (Ast.E_concat (acc, byte i)) in
  build 1 (byte 0)

let perturb_program faults program =
  List.fold_left
    (fun (p : Ast.program) (f : Fault.t) ->
      match f.Fault.kind with
      | Fault.Encap_reversed_dst ->
          let actions =
            List.map
              (fun (a : Ast.action) ->
                if String.equal a.a_name "set_gre_encap" then
                  { a with
                    a_body =
                      List.map
                        (function
                          | Ast.S_assign (fr, Ast.E_param "encap_dst")
                            when String.equal fr.fr_field "dst_addr" ->
                              Ast.S_assign
                                (fr, reverse_bytes_expr (Ast.E_param "encap_dst") 32)
                          | s -> s)
                        a.a_body }
                else a)
              p.p_actions
          in
          { p with p_actions = actions }
      | _ -> p)
    program faults

let create ?(faults = []) ?(hash_seed = 0x5EED) ?(compile = true) program =
  { s_program = program;
    asic_program = perturb_program faults program;
    s_info = P4info.of_program program;
    s_faults = faults;
    server = State.create ();
    asic = State.create ();
    hash_seed;
    eval = Compile.select ~compile;
    p4info_ok = false;
    is_crashed = false }

let faults t = t.s_faults
let program t = t.s_program
let info t = t.s_info
let server_state t = t.server
let asic_state t = t.asic
let crashed t = t.is_crashed

let push_p4info t =
  if t.is_crashed then Status.make Status.Unavailable "switch is unresponsive"
  else if fires t (function Fault.P4info_push_fails -> true | _ -> false) then
    Status.make Status.Internal "failed to apply forwarding-pipeline config"
  else begin
    t.p4info_ok <- true;
    Status.ok
  end

(* --- control plane ---------------------------------------------------------- *)

let unavailable = Status.make Status.Unavailable "switch is unresponsive"

let on_table (e : Entry.t) tbl = String.equal tbl e.e_table

(* Validation as the (possibly buggy) server performs it. *)
let server_validate t (e : Entry.t) =
  let syntactic =
    match Validate.syntactic t.s_info e with
    | Error s
      when String.starts_with ~prefix:"non-positive weight" s.Status.message
           && fires t (function Fault.Accept_invalid_weight -> true | _ -> false) ->
        Ok ()
    | r -> r
  in
  match syntactic with
  | Error s -> Error s
  | Ok () -> (
      match P4info.find_table t.s_info e.e_table with
      | None -> Ok ()
      | Some ti -> (
          let waived () =
            fires t (function
              | Fault.Accept_constraint_violation tbl -> on_table e tbl
              | _ -> false)
          in
          match Validate.constraint_compliant ti e with
          | Ok true -> Ok ()
          | _ when waived () -> Ok ()
          | Ok false ->
              Error
                (Status.makef Status.Invalid_argument
                   "entry violates @entry_restriction of table %s" ti.ti_name)
          | Error msg ->
              Error
                (Status.makef Status.Invalid_argument
                   "entry restriction evaluation failed: %s" msg)))

let server_check_references t (e : Entry.t) =
  match
    Validate.check_references t.s_info e ~exists:(fun ~table ~key value ->
        State.exists_value t.server ~table ~key value)
  with
  | Error _
    when fires t (function
           | Fault.Accept_dangling_reference tbl -> on_table e tbl
           | _ -> false) ->
      Ok ()
  | r -> r

(* The server refuses an insert at the table's guaranteed size, or earlier
   under a Resource_exhausted_early fault, which fires only when its
   lowered limit is what refuses the insert. *)
let table_full t table_name =
  match P4info.find_table t.s_info table_name with
  | None -> false
  | Some ti ->
      let count = State.count t.server table_name in
      count >= ti.ti_size
      || fires t (function
           | Fault.Resource_exhausted_early (tbl, limit) ->
               String.equal tbl table_name && count >= limit
           | _ -> false)

(* Apply a server-accepted update to the ASIC, modulo sync-layer faults. *)
let sync_to_asic t (u : Request.update) =
  Telemetry.with_span (Telemetry.get ()) "switch.syncd.sync" @@ fun () ->
  let e = u.entry in
  if not (fires t (function Fault.Syncd_drops_table tbl -> on_table e tbl | _ -> false))
  then begin
    let e =
      if fires t (function Fault.Syncd_offsets_port_arg tbl -> on_table e tbl | _ -> false)
      then begin
        (* The ASIC receives port arguments off by one. *)
        let fix (ai : Entry.action_invocation) =
          if String.equal ai.ai_name "set_port_and_src_mac" then
            match ai.ai_args with
            | port :: rest ->
                { ai with ai_args = Bitvec.add port (Bitvec.of_int ~width:16 1) :: rest }
            | [] -> ai
          else ai
        in
        Entry.with_action e
          (match e.e_action with
          | Entry.Single ai -> Entry.Single (fix ai)
          | Entry.Weighted ais -> Entry.Weighted (List.map (fun (ai, w) -> (fix ai, w)) ais))
      end
      else e
    in
    (* Buggy WCMP group handling: groups never make it to the ASIC, so
       packets resolving through them fall to the default (drop). *)
    let wcmp_lost =
      (match e.e_action with Entry.Weighted _ -> true | Entry.Single _ -> false)
      && fires t (function Fault.Wcmp_update_removes_member -> true | _ -> false)
    in
    if not wcmp_lost then
    match u.op with
    | Request.Insert -> ignore (State.insert t.asic e)
    | Request.Modify -> ignore (State.modify t.asic e)
    | Request.Delete -> ignore (State.delete t.asic e)
  end

(* Two buckets of a WCMP group invoking the same action with the same
   arguments: valid, but refused under Reject_duplicate_wcmp_actions. *)
let duplicate_members (e : Entry.t) =
  match e.e_action with
  | Entry.Weighted ais ->
      let names =
        List.map
          (fun ((ai : Entry.action_invocation), _) ->
            Format.asprintf "%s(%s)" ai.ai_name
              (String.concat "," (List.map Bitvec.to_hex_string ai.ai_args)))
          ais
      in
      List.length names <> List.length (List.sort_uniq String.compare names)
  | Entry.Single _ -> false

let process_update t (u : Request.update) =
  let e = u.entry in
  match
    Telemetry.with_span (Telemetry.get ()) "switch.server.validate" (fun () ->
        server_validate t e)
  with
  | Error s -> s
  | Ok () -> (
      if
        u.op = Request.Insert
        && fires t (function Fault.Reject_valid_insert tbl -> on_table e tbl | _ -> false)
      then
        Status.makef Status.Invalid_argument "internal: unsupported key format in table %s"
          e.e_table
      else if
        fires t (function
          | Fault.Reject_duplicate_wcmp_actions -> duplicate_members e
          | _ -> false)
      then Status.make Status.Invalid_argument "duplicate action in WCMP group"
      else
        match u.op with
        | Request.Insert -> (
            match server_check_references t e with
            | Error s -> s
            | Ok () ->
                if table_full t e.e_table then
                  Status.makef Status.Resource_exhausted "table %s is full" e.e_table
                else begin
                  match State.insert t.server e with
                  | Ok () ->
                      sync_to_asic t u;
                      Status.ok
                  | Error s
                    when s.Status.code = Status.Already_exists
                         && fires t (function
                              | Fault.Accept_duplicate_insert tbl -> on_table e tbl
                              | _ -> false) ->
                      Status.ok (* pretends to accept; keeps the original *)
                  | Error s -> s
                end)
        | Request.Modify -> (
            match server_check_references t e with
            | Error s -> s
            | Ok () ->
                if
                  fires t (function
                    | Fault.Modify_keeps_old_args tbl -> on_table e tbl
                    | _ -> false)
                then
                  if Option.is_some (State.find t.server e) then Status.ok
                  else Status.makef Status.Not_found "no such entry in %s" e.e_table
                else begin
                  match State.modify t.server e with
                  | Ok () ->
                      sync_to_asic t u;
                      Status.ok
                  | Error s -> s
                end)
        | Request.Delete -> (
            match State.find t.server e with
            | None -> Status.makef Status.Not_found "no such entry in %s" e.e_table
            | Some installed ->
                if
                  String.equal e.e_table "vrf_table"
                  && (State.count t.server "ipv4_table" > 0
                     || State.count t.server "ipv6_table" > 0)
                  && fires t (function
                       | Fault.Reject_vrf_delete_with_any_routes -> true
                       | _ -> false)
                then
                  Status.make Status.Failed_precondition
                    "cannot delete VRF while routes exist"
                else if State.is_referenced t.server t.s_info installed then
                  Status.make Status.Failed_precondition
                    "entry is referenced by other entries"
                else if
                  fires t (function
                    | Fault.Delete_leaves_entry tbl -> on_table e tbl
                    | _ -> false)
                then Status.ok
                else begin
                  match State.delete t.server e with
                  | Ok () ->
                      sync_to_asic t u;
                      Status.ok
                  | Error s -> s
                end))

let write t (req : Request.write_request) =
  Telemetry.with_span (Telemetry.get ()) "switch.write"
    ~attrs:[ ("updates", string_of_int (List.length req.updates)) ]
  @@ fun () ->
  if t.is_crashed then
    { Request.statuses = List.map (fun _ -> unavailable) req.updates }
  else if not t.p4info_ok then
    { Request.statuses =
        List.map
          (fun _ -> Status.make Status.Failed_precondition "no forwarding pipeline config")
          req.updates }
  else begin
    (* Crash fault: too many deletes in one batch wedges the switch. *)
    let n_deletes =
      List.length (List.filter (fun (u : Request.update) -> u.op = Request.Delete) req.updates)
    in
    if
      fires t (function
        | Fault.Crash_on_delete_sequence n -> n_deletes >= n
        | _ -> false)
    then begin
      t.is_crashed <- true;
      { Request.statuses = List.map (fun _ -> unavailable) req.updates }
    end
    else begin
      let missing_delete (u : Request.update) =
        u.op = Request.Delete && Option.is_none (State.find t.server u.entry)
      in
      if
        fires t (function
          | Fault.Delete_nonexistent_fails_batch -> List.exists missing_delete req.updates
          | _ -> false)
      then begin
        { Request.statuses =
            List.map
              (fun _ ->
                Status.make Status.Unknown "batch aborted: delete of non-existent entry")
              req.updates }
      end
      else
        { Request.statuses = List.map (process_update t) req.updates }
    end
  end

let read t =
  Telemetry.with_span (Telemetry.get ()) "switch.read" @@ fun () ->
  if t.is_crashed then { Request.entries = [] }
  else begin
    let entries = State.all t.server in
    let kept =
      List.filter
        (fun e ->
          not (fires t (function Fault.Read_drops_table tbl -> on_table e tbl | _ -> false)))
        entries
    in
    let entries =
      if kept <> [] && fires t (function Fault.Read_zeroes_priority -> true | _ -> false)
      then List.map (fun e -> Entry.with_priority e 0) kept
      else kept
    in
    { Request.entries }
  end

(* --- data plane -------------------------------------------------------------- *)

let interp_config t =
  { Interp.program = t.asic_program;
    state = t.asic;
    hash_mode = Interp.Seeded t.hash_seed;
    mirror_map = Workload.mirror_map (State.all t.asic) }

(* Byte-level packet inspection for data-plane faults (models with a plain
   ethernet + ipv4 layout; offsets per the standard headers). *)
let ether_type bytes =
  if String.length bytes >= 14 then
    Some ((Char.code bytes.[12] lsl 8) lor Char.code bytes.[13])
  else None

let ipv4_field bytes offset len =
  match ether_type bytes with
  | Some 0x0800 when String.length bytes >= 14 + offset + len ->
      let v = ref 0 in
      for i = 0 to len - 1 do
        v := (!v lsl 8) lor Char.code bytes.[14 + offset + i]
      done;
      Some !v
  | _ -> None

let perturb_behavior t ~ingress_port in_bytes (b : Interp.behavior) =
  List.fold_left
    (fun (b : Interp.behavior) (f : Fault.t) ->
      (* Each arm returns [Some b'] when the fault's trigger condition held
         (a firing, counted by catalogue id) and [None] when it did not. *)
      let fired =
        match f.Fault.kind with
        | Fault.Drop_on_port p when ingress_port = p -> Some { b with b_egress = None }
        | Fault.Ttl_trap_always -> (
            match ipv4_field in_bytes 8 1 with
            | Some ttl when ttl <= 1 -> Some { b with b_egress = None; b_punted = true }
            | _ -> None)
        | Fault.Ttl_trap_threshold n -> (
            (* Trap threshold misprogrammed: the chip punts IPv4 arrivals
               with TTL <= n. Invisible to edge traffic injected above the
               threshold; bites once a path has decremented into it. *)
            match ipv4_field in_bytes 8 1 with
            | Some ttl when ttl <= n -> Some { b with b_egress = None; b_punted = true }
            | _ -> None)
        | Fault.Drop_dst_ip ip -> (
            (* Drops the whole /24 the address identifies (a route's worth of
               traffic), matching how such hardware bugs manifest. *)
            match ipv4_field in_bytes 16 4 with
            | Some dst
              when Bitvec.equal
                     (Bitvec.shift_right (Bitvec.of_int ~width:32 dst) 8)
                     (Bitvec.shift_right ip 8) ->
                Some { b with b_egress = None }
            | _ -> None)
        | Fault.Punt_ether_type et -> (
            match ether_type in_bytes with
            | Some t' when t' = et -> Some { b with b_punted = true }
            | _ -> None)
        | Fault.Dscp_remark_zero d -> (
            (* Re-marks any DSCP >= d to 0 on forwarded packets. *)
            match (b.b_egress, ipv4_field b.b_packet 1 1) with
            | Some _, Some tos when d > 0 && tos lsr 2 >= d ->
                let bytes = Bytes.of_string b.b_packet in
                Bytes.set bytes 15 (Char.chr (tos land 0x03));
                Some { b with b_packet = Bytes.to_string bytes }
            | _ -> None)
        | Fault.Mirror_ignored when b.b_mirrors <> [] -> Some { b with b_mirrors = [] }
        | Fault.Punt_lost when b.b_punted -> Some { b with b_punted = false }
        | Fault.Forward_wrong_port_for_port p -> (
            match b.b_egress with
            | Some p' when p' = p -> Some { b with b_egress = Some (p + 1) }
            | _ -> None)
        | _ -> None
      in
      match fired with
      | Some b' ->
          Telemetry.incr (Telemetry.get ()) ("fault." ^ f.id);
          b'
      | None -> b)
    b t.s_faults

let drop_behavior bytes =
  { Interp.b_egress = None;
    b_punted = false;
    b_mirrors = [];
    b_packet = bytes;
    b_trace = [ ("<fault>", "dropped") ] }

let crashed_behavior bytes =
  { Interp.b_egress = None;
    b_punted = false;
    b_mirrors = [];
    b_packet = bytes;
    b_trace = [ ("<crashed>", "dropped") ] }

let inject t ~ingress_port bytes =
  Telemetry.with_span (Telemetry.get ()) "switch.inject" @@ fun () ->
  Telemetry.incr (Telemetry.get ()) "switch.packets_injected";
  (* A crashed stack is link-dead: everything arriving at it vanishes.
     Matters for fabrics, where a crashed mid-path switch must read as a
     drop at the dead hop rather than as a live pipeline. *)
  if t.is_crashed then crashed_behavior bytes
  else
    match Interp.run_with t.eval (interp_config t) ~ingress_port bytes with
    | b -> perturb_behavior t ~ingress_port bytes b
    | exception Interp.Parse_failure _ -> drop_behavior bytes

let packet_out t (po : Request.packet_out) =
  Telemetry.with_span (Telemetry.get ()) "switch.packet_out" @@ fun () ->
  if t.is_crashed then
    crashed_behavior (Switchv_packet.Packet.to_bytes po.po_payload)
  else
  let run () =
    Interp.run_packet_out_with t.eval (interp_config t) ~egress_port:po.po_egress_port
      po.po_payload
  in
  match po.po_egress_port with
  | Some _ ->
      let b = run () in
      if fires t (function Fault.Packet_out_punted_back -> true | _ -> false) then
        { b with b_punted = true }
      else b
  | None ->
      let bytes = Switchv_packet.Packet.to_bytes po.po_payload in
      if fires t (function Fault.Submit_to_ingress_dropped -> true | _ -> false) then
        drop_behavior bytes
      else perturb_behavior t ~ingress_port:0 bytes (run ())
