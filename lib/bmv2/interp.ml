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

(* --- runtime layout ------------------------------------------------------

   Every field a program can name has a slot in one per-program layout:
   the standard metadata first, then the user metadata, then each
   header's fields in program header order. Headers are indexed by their
   position in [p_headers]. The staged evaluator resolves names to slots
   once, at staging; the walk resolves them on each access. Either way a
   packet's fields live in one array and its validity bits in another. *)

type layout = {
  l_slots : (string, int) Hashtbl.t;    (* "hdr.field" -> slot *)
  l_headers : (string, int) Hashtbl.t;  (* header name -> index *)
  l_names : string array;               (* header index -> name *)
  l_first : int array;
      (* header index -> its first field's slot; one more element closes
         the last header's range *)
  l_zeros : Bitvec.t array;             (* slot -> zero of the field's width *)
}

let fkey hdr field = hdr ^ "." ^ field

let build_layout (program : Ast.program) =
  let headers = Array.of_list program.p_headers in
  let fields =
    List.map (fun (n, w) -> ("std", n, w)) Ast.standard_metadata
    @ List.map (fun (n, w) -> ("meta", n, w)) program.p_metadata
    @ List.concat_map
        (fun (h : Header.t) ->
          List.map (fun (f : Header.field) -> (h.name, f.f_name, f.f_width)) h.fields)
        program.p_headers
  in
  let l_slots = Hashtbl.create 64 and l_headers = Hashtbl.create 8 in
  (* First definition wins, like [Ast.find_header]; only programs the
     typechecker rejects repeat a name. *)
  let add tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v in
  List.iteri (fun slot (h, f, _) -> add l_slots (fkey h f) slot) fields;
  Array.iteri (fun i (h : Header.t) -> add l_headers h.name i) headers;
  let l_first = Array.make (Array.length headers + 1) 0 in
  l_first.(0) <- List.length Ast.standard_metadata + List.length program.p_metadata;
  Array.iteri
    (fun i (h : Header.t) -> l_first.(i + 1) <- l_first.(i) + List.length h.fields)
    headers;
  { l_slots;
    l_headers;
    l_names = Array.map (fun (h : Header.t) -> h.name) headers;
    l_first;
    l_zeros = Array.of_list (List.map (fun (_, _, w) -> Bitvec.zero w) fields) }

(* Layouts are memoized per program by physical equality with a small
   bound, like {!Compile.stage}'s pipelines. *)
let layouts : (Ast.program * layout) list ref = ref []
let layouts_bound = 8

let layout program =
  match List.find_opt (fun (p, _) -> p == program) !layouts with
  | Some (_, l) -> l
  | None ->
      let l = build_layout program in
      layouts := (program, l) :: List.filteri (fun i _ -> i < layouts_bound - 1) !layouts;
      l

(* An unknown field or header raises [Not_found] when the access runs,
   as [Ast.field_width] does: only programs the typechecker rejects name
   one. *)
let field_slot l (fr : Ast.field_ref) = Hashtbl.find l.l_slots (fkey fr.fr_header fr.fr_field)
let header_index l h = Hashtbl.find_opt l.l_headers h
let first_slot l i = l.l_first.(i)

let std_slot name =
  let rec go i = function
    | [] -> invalid_arg ("Interp: no standard metadata field " ^ name)
    | (n, _) :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 Ast.standard_metadata

let s_ingress_port = std_slot "ingress_port"
let s_egress_port = std_slot "egress_port"
let s_drop = std_slot "drop"
let s_punt = std_slot "punt"
let s_submit_to_ingress = std_slot "submit_to_ingress"
let s_mirror_session = std_slot "mirror_session"

(* Mutable per-packet execution state. *)
type rt = {
  cfg : config;
  layout : layout;
  fields : Bitvec.t array;  (* slot -> value *)
  valid : bool array;       (* header index -> validity *)
  mutable payload : string;
  mutable trace : (string * string) list;
  mutable hash_calls : int;
}

let read_field rt fr = rt.fields.(field_slot rt.layout fr)
let write_field rt fr v = rt.fields.(field_slot rt.layout fr) <- v

let is_valid rt hdr =
  match header_index rt.layout hdr with Some i -> rt.valid.(i) | None -> false

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
    let h = Option.get (header_index rt.layout hdr_name) in
    List.iteri
      (fun k (f : Header.field) ->
        rt.fields.(first_slot rt.layout h + k) <- Bitvec.read_be bytes !offset f.f_width;
        offset := !offset + f.f_width)
      hdr.Header.fields;
    rt.valid.(h) <- true
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

(* The valid headers in program header order, then the payload, written
   into one buffer. A header's size comes from its field values, so an
   action argument of the wrong width shows on the wire; a header that is
   not then a whole number of bytes cannot be emitted. *)
let deparse rt =
  let l = rt.layout in
  let bits = ref 0 in
  for h = 0 to Array.length rt.valid - 1 do
    if rt.valid.(h) then begin
      let header_bits = ref 0 in
      for s = l.l_first.(h) to l.l_first.(h + 1) - 1 do
        header_bits := !header_bits + Bitvec.width rt.fields.(s)
      done;
      if !header_bits mod 8 <> 0 then
        invalid_arg "Bitvec.to_bytes_be: width not a byte multiple";
      bits := !bits + !header_bits
    end
  done;
  let n = !bits / 8 in
  let out = Bytes.make (n + String.length rt.payload) '\000' in
  let off = ref 0 in
  for h = 0 to Array.length rt.valid - 1 do
    if rt.valid.(h) then
      for s = l.l_first.(h) to l.l_first.(h + 1) - 1 do
        Bitvec.blit_be rt.fields.(s) out !off;
        off := !off + Bitvec.width rt.fields.(s)
      done
  done;
  Bytes.blit_string rt.payload 0 out n (String.length rt.payload);
  Bytes.unsafe_to_string out

(* The names of the valid headers, in program header order. *)
let valid_headers rt =
  List.filteri (fun h _ -> rt.valid.(h)) (Array.to_list rt.layout.l_names)

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

(* Header fields start zero, so a header made valid reads zero on every
   field nothing assigned, and one made valid again keeps its values. *)
let exec_stmt rt params = function
  | Ast.S_nop -> ()
  | Ast.S_assign (fr, e) -> write_field rt fr (eval_expr rt params e)
  | Ast.S_set_valid (h, b) -> (
      match header_index rt.layout h with
      | Some i -> rt.valid.(i) <- b
      | None -> raise Not_found)

let exec_action rt (action : Ast.action) args =
  let params =
    List.map2 (fun (p : Ast.param) arg -> (p.p_name, arg)) action.a_params args
  in
  List.iter (exec_stmt rt params) action.a_body

(* Flow-dependent WCMP selector inputs: every field of every currently
   valid header, in program header order. *)
let selector_hash_inputs rt =
  let l = rt.layout in
  let acc = ref [] in
  for h = Array.length rt.valid - 1 downto 0 do
    if rt.valid.(h) then
      for s = l.l_first.(h + 1) - 1 downto l.l_first.(h) do
        acc := rt.fields.(s) :: !acc
      done
  done;
  !acc

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

(* Every slot starts at its field's zero and every header invalid. *)
let fresh_rt cfg layout =
  { cfg;
    layout;
    fields = Array.copy layout.l_zeros;
    valid = Array.make (Array.length layout.l_names) false;
    payload = "";
    trace = [];
    hash_calls = 0 }

let finish rt =
  let std slot = rt.fields.(slot) in
  let out_bytes = deparse rt in
  let dropped =
    (not (Bitvec.is_zero (std s_drop))) || Bitvec.is_zero (std s_egress_port)
  in
  let punted = not (Bitvec.is_zero (std s_punt)) in
  let mirrors =
    let session = Bitvec.to_int_exn (std s_mirror_session) in
    if session = 0 then []
    else
      match List.assoc_opt session rt.cfg.mirror_map with
      | Some port -> [ (port, out_bytes) ]
      | None -> []
  in
  { b_egress = (if dropped then None else Some (Bitvec.to_int_exn (std s_egress_port)));
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
  layout : layout;
  parse : rt -> string -> unit;
  ingress : rt -> unit;
  egress : rt -> unit;
}

type evaluator = Ast.program -> pipeline

let walk (p : Ast.program) =
  let egress_base = 1 + Ast.count_ifs p.p_ingress in
  { layout = layout p;
    parse = parse_packet;
    ingress = (fun rt -> exec_control rt 1 p.p_ingress);
    egress = (fun rt -> exec_control rt egress_base p.p_egress) }

(* One packet through the pipeline, after setting the standard metadata
   slot that says how it arrived. *)
let exec eval cfg (slot, value) bytes =
  let p = eval cfg.program in
  let rt = fresh_rt cfg p.layout in
  rt.fields.(slot) <- value;
  p.parse rt bytes;
  p.ingress rt;
  p.egress rt;
  rt

let arrival ingress_port = (s_ingress_port, Bitvec.of_int ~width:16 ingress_port)

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
    ri_valid = valid_headers rt }

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
           (s_submit_to_ingress, Bitvec.of_int ~width:1 1)
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
