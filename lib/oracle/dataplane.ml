module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module State = Switchv_p4runtime.State
module Workload = Switchv_sai.Workload
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Taint = Switchv_analysis.Taint
module Telemetry = Switchv_telemetry.Telemetry
module SSet = Set.Make (String)

type t = {
  dp_cfg : Interp.config;
  dp_eval : Interp.evaluator;
  dp_taint : Taint.summary;
  dp_rounds : int;
  dp_candidates : int list;
  dp_egress_masked : bool;  (* std.egress_port reaches the exit tainted *)
  dp_header_masks : (string, (int * int) list * int) Hashtbl.t;
      (* header -> (offset, width) of each exit-tainted field, header width *)
}

type verdict = Admitted | Diverged of Interp.behavior list

(* The static egress-port candidate set: every port an installed entry (or
   the default action) of a tainted egress-writer table can select. An
   over-approximation of the per-packet member set — any port outside it is
   definitely a fault; a port inside it that this packet could not reach is
   caught by enumeration only, which is the precision the paper's
   round-robin stub had. Unresolvable writes (egress computed from another
   field) simply contribute nothing: a missing candidate can only cause
   escalation, never a wrong acceptance. *)
let candidates (cfg : Interp.config) (taint : Taint.summary) =
  let program = cfg.Interp.program in
  let ports = ref [] in
  let add_port v =
    match Bitvec.to_int_exn v with 0 -> () | p -> ports := p :: !ports
  in
  List.iter
    (fun (tname, aname) ->
      match (Ast.find_table program tname, Ast.find_action program aname) with
      | Some table, Some action ->
          let egress_exprs =
            List.filter_map
              (function
                | Ast.S_assign (fr, e)
                  when String.equal fr.Ast.fr_header "std"
                       && String.equal fr.Ast.fr_field "egress_port" ->
                    Some e
                | _ -> None)
              action.Ast.a_body
          in
          let param_index p =
            let rec go i = function
              | [] -> None
              | (q : Ast.param) :: rest ->
                  if String.equal q.Ast.p_name p then Some i else go (i + 1) rest
            in
            go 0 action.Ast.a_params
          in
          List.iter
            (function
              | Ast.E_const c -> add_port c
              | Ast.E_param p -> (
                  match param_index p with
                  | None -> ()
                  | Some idx ->
                      List.iter
                        (fun (entry : Entry.t) ->
                          let invocations =
                            match entry.Entry.e_action with
                            | Entry.Single ai -> [ ai ]
                            | Entry.Weighted ms -> List.map fst ms
                          in
                          List.iter
                            (fun (ai : Entry.action_invocation) ->
                              if String.equal ai.Entry.ai_name aname then
                                Option.iter add_port
                                  (List.nth_opt ai.Entry.ai_args idx))
                            invocations)
                        (State.entries_of cfg.Interp.state tname);
                      let dname, dargs = table.Ast.t_default_action in
                      if String.equal dname aname then
                        Option.iter add_port (List.nth_opt dargs idx))
              | _ -> ())
            egress_exprs
      | _ -> ())
    taint.Taint.s_egress_writers;
  List.sort_uniq compare !ports

let model program entries =
  let state = State.create () in
  List.iter (fun e -> ignore (State.insert state e)) entries;
  { Interp.program; state; hash_mode = Interp.Fixed 0;
    mirror_map = Workload.mirror_map entries }

(* The exit-tainted fields of every header, as bit ranges within it, so a
   byte compare walks ranges instead of naming fields. *)
let header_masks (program : Ast.program) masked =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (h : Header.t) ->
      let _, ranges =
        List.fold_left
          (fun (off, ranges) (f : Header.field) ->
            ( off + f.Header.f_width,
              if SSet.mem (h.Header.name ^ "." ^ f.Header.f_name) masked then
                (off, f.Header.f_width) :: ranges
              else ranges ))
          (0, []) h.Header.fields
      in
      if not (Hashtbl.mem tbl h.Header.name) then
        Hashtbl.add tbl h.Header.name (ranges, Header.width h))
    program.Ast.p_headers;
  tbl

let create ?(compile = true) (cfg : Interp.config) ~taint =
  let cfg = { cfg with Interp.hash_mode = Interp.Fixed 0 } in
  let masked = SSet.of_list (List.map fst taint.Taint.s_exit_fields) in
  { dp_cfg = cfg;
    dp_eval = Compile.select ~compile;
    dp_taint = taint;
    dp_rounds = Interp.hash_rounds cfg;
    dp_candidates = candidates cfg taint;
    dp_egress_masked = SSet.mem "std.egress_port" masked;
    dp_header_masks = header_masks cfg.Interp.program masked }

let candidate_ports t = t.dp_candidates

(* Byte comparison with taint-masked bits: walk the model's valid headers
   in wire order, skip the bits of exit-tainted fields, compare everything
   else (including the payload) exactly. *)
let masked_equal t (info : Interp.run_info) a b =
  String.length a = String.length b
  && begin
       let n = String.length a in
       let mask = Bytes.make n '\xff' in
       let base = ref 0 in
       List.iter
         (fun hname ->
           match Hashtbl.find_opt t.dp_header_masks hname with
           | None -> ()
           | Some (ranges, width) ->
               List.iter
                 (fun (off, w) ->
                   for k = !base + off to !base + off + w - 1 do
                     let byte = k / 8 and b_in = 7 - (k mod 8) in
                     if byte < n then
                       Bytes.set mask byte
                         (Char.chr
                            (Char.code (Bytes.get mask byte)
                            land (lnot (1 lsl b_in) land 0xff)))
                   done)
                 ranges;
               base := !base + width)
         info.Interp.ri_valid;
       let ok = ref true in
       for i = 0 to n - 1 do
         let m = Char.code (Bytes.get mask i) in
         if Char.code a.[i] land m <> Char.code b.[i] land m then ok := false
       done;
       !ok
     end

(* The set-valued acceptance test for a switch behaviour that differs from
   the [Fixed 0] model run: both sides forwarded, the egress port is either
   deterministic-and-equal or inside the static candidate set, punt and
   mirror observables agree exactly, and the forwarded bytes agree on every
   untainted bit. Validity-tainted headers make the wire layout itself
   nondeterministic, so their presence disables the fast test entirely. *)
let set_admits t (info : Interp.run_info) (switch : Interp.behavior) =
  let model = info.Interp.ri_behavior in
  info.Interp.ri_hash_calls > 0
  && t.dp_taint.Taint.s_valid_tainted = []
  && (match (switch.Interp.b_egress, model.Interp.b_egress) with
     | Some p, Some q ->
         (if t.dp_egress_masked then
            p = q || List.mem p t.dp_candidates
          else p = q)
         && switch.Interp.b_punted = model.Interp.b_punted
         && switch.Interp.b_mirrors = model.Interp.b_mirrors
         && masked_equal t info switch.Interp.b_packet model.Interp.b_packet
     | _ -> false)

let member switch bs =
  if List.exists (Interp.behavior_equal switch) bs then Admitted else Diverged bs

let judge_info t ~ingress_port ~bytes ~switch =
  let tele = Telemetry.get () in
  let info = Interp.run_info_with t.dp_eval t.dp_cfg ~ingress_port bytes in
  let verdict =
    if Interp.behavior_equal switch info.Interp.ri_behavior then begin
      Telemetry.incr tele "oracle.dataplane_fast";
      if t.dp_rounds > 1 then
        Telemetry.incr tele ~n:(t.dp_rounds - 1) "oracle.enum_rounds_saved";
      Admitted
    end
    else if t.dp_rounds <= 1 then
      (* Enumeration would run exactly one [Fixed 0] round — reuse it, so
         hash-free campaigns execute the model the same number of times and
         produce byte-identical incidents with the pass on or off. *)
      Diverged [ info.Interp.ri_behavior ]
    else if set_admits t info switch then begin
      Telemetry.incr tele "oracle.dataplane_set_admits";
      Telemetry.incr tele ~n:(t.dp_rounds - 1) "oracle.enum_rounds_saved";
      Admitted
    end
    else begin
      (* Escalate: the full round-robin enumeration is the authoritative
         verdict, so a fast-path refusal can never create a new false
         positive — only spend the rounds the fast path tried to save. *)
      Telemetry.incr tele "oracle.dataplane_escalations";
      member switch
        (Interp.behavior_set t.dp_cfg (fun cfg ->
             Interp.run_with t.dp_eval cfg ~ingress_port bytes))
    end
  in
  (verdict, info)

let judge t ~ingress_port ~bytes ~switch =
  fst (judge_info t ~ingress_port ~bytes ~switch)

(* A directed packet-out bypasses the pipeline, so its contract is the
   disposition alone: out of the requested port, not punted back. A
   submit-to-ingress one runs the pipeline and is judged against every
   hash round, like an escalated packet. *)
let judge_packet_out t (po : Request.packet_out) ~switch =
  let run cfg =
    Interp.run_packet_out_with t.dp_eval cfg ~egress_port:po.Request.po_egress_port
      po.Request.po_payload
  in
  match po.Request.po_egress_port with
  | Some _ ->
      let model = run t.dp_cfg in
      ( (if switch.Interp.b_egress = model.Interp.b_egress
            && switch.Interp.b_punted = model.Interp.b_punted
         then Admitted
         else Diverged [ model ]),
        model )
  | None ->
      let bs = Interp.behavior_set t.dp_cfg run in
      (member switch bs, List.hd bs)

let masked_bytes_equal = masked_equal
