module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Packet = Switchv_packet.Packet
module Header = Switchv_packet.Header
module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Telemetry = Switchv_telemetry.Telemetry

type hash_mode = Seeded of int | Fixed of int

type config = {
  program : Ast.program;
  state : State.t;
  hash_mode : hash_mode;
  mirror_map : (int * int) list;
}

type behavior = {
  b_egress : int option;
  b_punted : bool;
  b_mirrors : (int * string) list;
  b_packet : string;
  b_trace : (string * string) list;
}

let behavior_equal a b =
  a.b_egress = b.b_egress && a.b_punted = b.b_punted && a.b_mirrors = b.b_mirrors
  && (a.b_egress = None || String.equal a.b_packet b.b_packet)

let pp_behavior fmt b =
  (match b.b_egress with
  | Some p ->
      Format.fprintf fmt "forward(port=%d, %d bytes, %s)" p (String.length b.b_packet)
        (String.sub (Digest.to_hex (Digest.string b.b_packet)) 0 8)
  | None -> Format.fprintf fmt "drop");
  if b.b_punted then Format.fprintf fmt " + punt";
  List.iter (fun (p, _) -> Format.fprintf fmt " + mirror(port=%d)" p) b.b_mirrors

let pp_behavior_set fmt bs =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_behavior)
    bs

exception Parse_failure of string

(* Mutable per-packet execution state. *)
type rt = {
  cfg : config;
  fields : (string, Bitvec.t) Hashtbl.t;    (* "hdr.field" -> value *)
  valid : (string, bool) Hashtbl.t;         (* header name -> validity *)
  mutable payload : string;
  mutable trace : (string * string) list;
  mutable hash_calls : int;
}

let fkey hdr field = hdr ^ "." ^ field

let field_width rt (fr : Ast.field_ref) = Ast.field_width rt.cfg.program fr

let read_field rt (fr : Ast.field_ref) =
  match Hashtbl.find_opt rt.fields (fkey fr.fr_header fr.fr_field) with
  | Some v -> v
  | None -> Bitvec.zero (field_width rt fr)

let write_field rt (fr : Ast.field_ref) v =
  Hashtbl.replace rt.fields (fkey fr.fr_header fr.fr_field) v

let is_valid rt hdr = Option.value ~default:false (Hashtbl.find_opt rt.valid hdr)

(* FNV-1a over the big-endian bytes of the argument values, plus seed. *)
let concrete_hash seed values =
  let h = ref (0x811C9DC5 lxor seed) in
  List.iter
    (fun v ->
      let padded = Bitvec.zero_extend (((Bitvec.width v + 7) / 8) * 8) v in
      String.iter
        (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
        (Bitvec.to_bytes_be padded))
    values;
  !h land 0xFFFF

let hash_value rt values =
  rt.hash_calls <- rt.hash_calls + 1;
  match rt.cfg.hash_mode with
  | Seeded seed -> concrete_hash seed values
  | Fixed n -> n

let rec eval_expr rt params (e : Ast.expr) : Bitvec.t =
  match e with
  | E_const c -> c
  | E_field fr -> read_field rt fr
  | E_param name -> (
      match List.assoc_opt name params with
      | Some v -> v
      | None -> invalid_arg ("Interp: unbound action parameter " ^ name))
  | E_not a -> Bitvec.lognot (eval_expr rt params a)
  | E_and (a, b) -> Bitvec.logand (eval_expr rt params a) (eval_expr rt params b)
  | E_or (a, b) -> Bitvec.logor (eval_expr rt params a) (eval_expr rt params b)
  | E_xor (a, b) -> Bitvec.logxor (eval_expr rt params a) (eval_expr rt params b)
  | E_add (a, b) -> Bitvec.add (eval_expr rt params a) (eval_expr rt params b)
  | E_sub (a, b) -> Bitvec.sub (eval_expr rt params a) (eval_expr rt params b)
  | E_slice (hi, lo, a) -> Bitvec.extract ~hi ~lo (eval_expr rt params a)
  | E_concat (a, b) -> Bitvec.concat (eval_expr rt params a) (eval_expr rt params b)
  | E_hash (_, args) ->
      Bitvec.of_int ~width:16 (hash_value rt (List.map (eval_expr rt params) args))

let rec eval_bexpr rt params (b : Ast.bexpr) : bool =
  match b with
  | B_true -> true
  | B_false -> false
  | B_is_valid h -> is_valid rt h
  | B_eq (a, b) -> Bitvec.equal (eval_expr rt params a) (eval_expr rt params b)
  | B_ne (a, b) -> not (Bitvec.equal (eval_expr rt params a) (eval_expr rt params b))
  | B_ult (a, b) -> Bitvec.ult (eval_expr rt params a) (eval_expr rt params b)
  | B_ule (a, b) -> Bitvec.ule (eval_expr rt params a) (eval_expr rt params b)
  | B_not a -> not (eval_bexpr rt params a)
  | B_and (a, b) -> eval_bexpr rt params a && eval_bexpr rt params b
  | B_or (a, b) -> eval_bexpr rt params a || eval_bexpr rt params b

(* --- parsing ------------------------------------------------------------- *)

let parse_packet rt bytes =
  let total_bits = 8 * String.length bytes in
  let all = if bytes = "" then None else Some (Bitvec.of_bytes_be bytes) in
  let offset = ref 0 in
  let extract_header hdr_name =
    let hdr =
      match Ast.find_header rt.cfg.program hdr_name with
      | Some h -> h
      | None -> raise (Parse_failure ("unknown header " ^ hdr_name))
    in
    let w = Header.width hdr in
    if !offset + w > total_bits then
      raise (Parse_failure (Printf.sprintf "truncated packet: need %d bits for %s" w hdr_name));
    let all = Option.get all in
    List.iter
      (fun (f : Header.field) ->
        let hi = total_bits - 1 - !offset in
        let lo = hi - f.f_width + 1 in
        Hashtbl.replace rt.fields (fkey hdr_name f.f_name) (Bitvec.extract ~hi ~lo all);
        offset := !offset + f.f_width)
      hdr.Header.fields;
    Hashtbl.replace rt.valid hdr_name true
  in
  let find_state name =
    match
      List.find_opt
        (fun (s : Ast.parser_state) -> String.equal s.ps_name name)
        rt.cfg.program.p_parser.states
    with
    | Some s -> s
    | None -> raise (Parse_failure ("unknown parser state " ^ name))
  in
  let rec step state_name fuel =
    if fuel = 0 then raise (Parse_failure "parser did not terminate")
    else begin
      let state = find_state state_name in
      Option.iter extract_header state.ps_extract;
      match state.ps_next with
      | T_accept -> ()
      | T_select (e, cases, default) ->
          let v = eval_expr rt [] e in
          let target =
            match List.find_opt (fun (c, _) -> Bitvec.equal c v) cases with
            | Some (_, t) -> t
            | None -> default
          in
          if String.equal target "accept" then () else step target (fuel - 1)
    end
  in
  step rt.cfg.program.p_parser.start 64;
  if !offset mod 8 <> 0 then
    raise (Parse_failure "parsed headers not byte-aligned");
  rt.payload <- String.sub bytes (!offset / 8) (String.length bytes - (!offset / 8))

(* --- deparsing ----------------------------------------------------------- *)

let deparse rt =
  let bufs =
    List.filter_map
      (fun (h : Header.t) ->
        if is_valid rt h.name then begin
          let bits =
            List.fold_left
              (fun acc (f : Header.field) ->
                let v =
                  match Hashtbl.find_opt rt.fields (fkey h.name f.f_name) with
                  | Some v -> v
                  | None -> Bitvec.zero f.f_width
                in
                match acc with None -> Some v | Some acc -> Some (Bitvec.concat acc v))
              None h.fields
          in
          Option.map Bitvec.to_bytes_be bits
        end
        else None)
      rt.cfg.program.p_headers
  in
  String.concat "" bufs ^ rt.payload

(* --- table application --------------------------------------------------- *)

let match_value_ok key_value = function
  | Entry.M_exact v -> Bitvec.equal v key_value
  | Entry.M_lpm p -> Prefix.matches p key_value
  | Entry.M_ternary t -> Ternary.matches t key_value
  | Entry.M_optional (Some v) -> Bitvec.equal v key_value
  | Entry.M_optional None -> true

let entry_matches (table : Ast.table) key_values (e : Entry.t) =
  List.for_all
    (fun (k : Ast.key) ->
      let kv = List.assoc k.k_name key_values in
      match Entry.find_match e k.k_name with
      | None -> true (* omitted = wildcard *)
      | Some mv -> match_value_ok kv mv)
    table.t_keys

let lpm_specificity (table : Ast.table) (e : Entry.t) =
  List.fold_left
    (fun acc (k : Ast.key) ->
      match (k.k_kind, Entry.find_match e k.k_name) with
      | Ast.Lpm, Some (Entry.M_lpm p) -> acc + Prefix.len p
      | _ -> acc)
    0 table.t_keys

let requires_priority (table : Ast.table) =
  List.exists
    (fun (k : Ast.key) -> match k.k_kind with Ast.Ternary | Ast.Optional -> true | _ -> false)
    table.t_keys

(* Entries in match-precedence order: the first matching entry wins.
   Precedence is an explicit lexicographic order — (priority descending,
   insertion order ascending) for tables with ternary/optional keys,
   (LPM specificity descending, insertion order ascending) otherwise — so
   equal-priority entries resolve to the earliest-inserted one by
   contract, not as an accident of scan position. [State.entries_of]
   returns entries in insertion-seq order, which supplies the tie-break
   index here; [Switchv_match.Index] implements the same (rank, seq)
   order for the compiled evaluator's indexed lookup. *)
let ordered_entries (table : Ast.table) entries =
  let rank : Entry.t -> int =
    if requires_priority table then fun e -> -e.e_priority
    else fun e -> -lpm_specificity table e
  in
  List.mapi (fun i e -> (rank e, i, e)) entries
  |> List.sort (fun (ra, ia, _) (rb, ib, _) ->
         let c = Int.compare ra rb in
         if c <> 0 then c else Int.compare ia ib)
  |> List.map (fun (_, _, e) -> e)

let select_winner rt (table : Ast.table) key_values =
  let entries = ordered_entries table (State.entries_of rt.cfg.state table.t_name) in
  List.find_opt (entry_matches table key_values) entries

let exec_stmt rt params = function
  | Ast.S_nop -> ()
  | Ast.S_assign (fr, e) -> write_field rt fr (eval_expr rt params e)
  | Ast.S_set_valid (h, b) ->
      Hashtbl.replace rt.valid h b;
      if b then
        (* Newly added headers start zero-filled unless assigned. *)
        Option.iter
          (fun (hdr : Header.t) ->
            List.iter
              (fun (f : Header.field) ->
                if not (Hashtbl.mem rt.fields (fkey h f.f_name)) then
                  Hashtbl.replace rt.fields (fkey h f.f_name) (Bitvec.zero f.f_width))
              hdr.fields)
          (Ast.find_header rt.cfg.program h)

let exec_action rt (action : Ast.action) args =
  let params =
    List.map2 (fun (p : Ast.param) arg -> (p.p_name, arg)) action.a_params args
  in
  List.iter (exec_stmt rt params) action.a_body

let selector_hash_inputs rt =
  (* Flow-dependent inputs: every field of every currently valid header. *)
  List.concat_map
    (fun (h : Header.t) ->
      if is_valid rt h.name then
        List.map
          (fun (f : Header.field) ->
            match Hashtbl.find_opt rt.fields (fkey h.name f.f_name) with
            | Some v -> v
            | None -> Bitvec.zero f.f_width)
          h.fields
      else [])
    rt.cfg.program.p_headers

let pick_weighted rt members =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 members in
  let h = hash_value rt (selector_hash_inputs rt) mod total in
  let rec pick h = function
    | [] -> assert false
    | (ai, w) :: rest -> if h < w then ai else pick (h - w) rest
  in
  pick h members

(* Edge-coverage accounting. Keys live in the ambient telemetry registry as
   plain counters so they merge across forked shards like every other
   counter; lib/obs turns them into the coverage map. Action keys name the
   CFG edge taken through a table ({!Switchv_analysis.Cfg.N_action}); branch
   keys use the same pre-order ids as [Symexec]'s [branch.N.*] goal labels. *)
let cov_action table_name ~hit aname =
  Telemetry.incr (Telemetry.get ()) (Ast.action_key table_name ~hit aname)

let cov_branch id taken =
  Telemetry.incr (Telemetry.get ()) (Ast.coverage_key (Ast.branch_label id taken))

let apply_table rt table_name =
  let table = Ast.find_table_exn rt.cfg.program table_name in
  let key_values =
    List.map (fun (k : Ast.key) -> (k.k_name, eval_expr rt [] k.k_expr)) table.t_keys
  in
  let invoke label (ai : Entry.action_invocation) =
    let action = Ast.find_action_exn rt.cfg.program ai.ai_name in
    rt.trace <- (table_name, label ^ ai.ai_name) :: rt.trace;
    cov_action table_name ~hit:true ai.ai_name;
    exec_action rt action ai.ai_args
  in
  match select_winner rt table key_values with
  | Some e -> (
      match e.Entry.e_action with
      | Entry.Single ai -> invoke "" ai
      | Entry.Weighted members -> invoke "wcmp:" (pick_weighted rt members))
  | None ->
      let dname, dargs = table.t_default_action in
      let action = Ast.find_action_exn rt.cfg.program dname in
      rt.trace <- (table_name, "<default>" ^ dname) :: rt.trace;
      cov_action table_name ~hit:false dname;
      exec_action rt action dargs

(* [next] is the branch id of the first [C_if] in execution order, in
   {!Ast.count_ifs}'s pre-order numbering, so coverage counters line up
   with symbolic branch goals. *)
let rec exec_control rt next = function
  | Ast.C_nop -> ()
  | Ast.C_stmt s -> exec_stmt rt [] s
  | Ast.C_seq (a, b) ->
      exec_control rt next a;
      exec_control rt (next + Ast.count_ifs a) b
  | Ast.C_table name -> apply_table rt name
  | Ast.C_if (cond, a, b) ->
      let taken = eval_bexpr rt [] cond in
      cov_branch next taken;
      if taken then exec_control rt (next + 1) a
      else exec_control rt (next + 1 + Ast.count_ifs a) b

(* --- top level ------------------------------------------------------------ *)

let fresh_rt cfg =
  let rt =
    { cfg;
      fields = Hashtbl.create 64;
      valid = Hashtbl.create 8;
      payload = "";
      trace = [];
      hash_calls = 0 }
  in
  (* Standard and user metadata start zeroed. *)
  List.iter
    (fun (n, w) -> Hashtbl.replace rt.fields (fkey "std" n) (Bitvec.zero w))
    Ast.standard_metadata;
  List.iter
    (fun (n, w) -> Hashtbl.replace rt.fields (fkey "meta" n) (Bitvec.zero w))
    cfg.program.p_metadata;
  rt

let finish rt =
  let std name = read_field rt (Ast.std name) in
  let out_bytes = deparse rt in
  let dropped =
    (not (Bitvec.is_zero (std "drop"))) || Bitvec.is_zero (std "egress_port")
  in
  let punted = not (Bitvec.is_zero (std "punt")) in
  let mirrors =
    let session = Bitvec.to_int_exn (std "mirror_session") in
    if session = 0 then []
    else
      match List.assoc_opt session rt.cfg.mirror_map with
      | Some port -> [ (port, out_bytes) ]
      | None -> []
  in
  { b_egress = (if dropped then None else Some (Bitvec.to_int_exn (std "egress_port")));
    b_punted = punted;
    b_mirrors = mirrors;
    b_packet = out_bytes;
    b_trace = List.rev rt.trace }

(* --- evaluators and entry points -------------------------------------------

   An evaluator supplies one packet's stages for a program; everything
   around them (metadata setup, finishing, run info, packet-out, the hash
   rounds) is written once here, for the AST walk below and for
   {!Compile}'s staged closures alike. *)

type pipeline = {
  parse : rt -> string -> unit;
  ingress : rt -> unit;
  egress : rt -> unit;
}

type evaluator = Ast.program -> pipeline

let walk (p : Ast.program) =
  let egress_base = 1 + Ast.count_ifs p.p_ingress in
  { parse = parse_packet;
    ingress = (fun rt -> exec_control rt 1 p.p_ingress);
    egress = (fun rt -> exec_control rt egress_base p.p_egress) }

(* One packet through the pipeline, after setting the standard metadata
   field that says how it arrived. *)
let exec eval cfg (field, value) bytes =
  let p = eval cfg.program in
  let rt = fresh_rt cfg in
  write_field rt (Ast.std field) value;
  p.parse rt bytes;
  p.ingress rt;
  p.egress rt;
  rt

let arrival ingress_port = ("ingress_port", Bitvec.of_int ~width:16 ingress_port)

let run_with eval cfg ~ingress_port bytes =
  finish (exec eval cfg (arrival ingress_port) bytes)

type run_info = {
  ri_behavior : behavior;
  ri_hash_calls : int;
  ri_valid : string list;
}

let run_info_with eval cfg ~ingress_port bytes =
  let rt = exec eval cfg (arrival ingress_port) bytes in
  { ri_behavior = finish rt;
    ri_hash_calls = rt.hash_calls;
    ri_valid =
      List.filter_map
        (fun (h : Header.t) -> if is_valid rt h.name then Some h.name else None)
        cfg.program.p_headers }

let run_packet_out_with eval cfg ~egress_port packet =
  match egress_port with
  | Some port ->
      { b_egress = Some port;
        b_punted = false;
        b_mirrors = [];
        b_packet = Packet.to_bytes packet;
        b_trace = [ ("<packet-out>", "direct") ] }
  | None ->
      finish
        (exec eval cfg
           ("submit_to_ingress", Bitvec.of_int ~width:1 1)
           (Packet.to_bytes packet))

let run = run_with walk
let run_packet cfg ~ingress_port packet = run cfg ~ingress_port (Packet.to_bytes packet)
let run_packet_out = run_packet_out_with walk

(* Hash outcomes worth distinguishing: Fixed h selects WCMP bucket
   [h mod total_weight], so rounds 0 .. max_total_weight - 1 reach every
   member of every group. *)
let hash_rounds cfg =
  List.fold_left
    (fun acc (t : Ast.table) ->
      if not t.t_selector then acc
      else
        List.fold_left
          (fun acc (e : Entry.t) ->
            match e.e_action with
            | Entry.Weighted members ->
                max acc (List.fold_left (fun s (_, w) -> s + w) 0 members)
            | Entry.Single _ -> acc)
          acc
          (State.entries_of cfg.state t.t_name))
    1 cfg.program.p_tables

let behavior_set cfg run =
  let rounds = min 32 (hash_rounds cfg) in
  let rec go round acc =
    if round >= rounds then List.rev acc
    else
      let b = run { cfg with hash_mode = Fixed round } in
      go (round + 1) (if List.exists (behavior_equal b) acc then acc else b :: acc)
  in
  go 0 []
