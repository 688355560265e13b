module Ast = Switchv_p4ir.Ast
module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Header = Switchv_packet.Header
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Interp = Switchv_bmv2.Interp
module Term = Switchv_smt.Term
module Telemetry = Switchv_telemetry.Telemetry

let field_var ~header ~field = Printf.sprintf "in.%s.%s" header field
let validity_var ~header = "valid." ^ header
let ingress_port_var = "in.std.ingress_port"

(* The model-extraction variables of a program, in a canonical order fixed
   by the program text alone: per header (program order) the validity bit
   then each field, then the ingress port. Packet generation uses this as
   the lexicographic preference order for canonical models, so the order —
   like the names — must not depend on entries, goals, or solver state. *)
let model_input_vars (program : Ast.program) =
  List.concat_map
    (fun (h : Header.t) ->
      `Bool (validity_var ~header:h.name)
      :: List.map
           (fun (f : Header.field) ->
             `Bv (field_var ~header:h.name ~field:f.f_name, f.f_width))
           h.fields)
    program.p_headers
  @ [ `Bv (ingress_port_var, 16) ]

type trace_point = {
  tp_table : string;
  tp_label : string;
  tp_guard : Term.boolean;
}

type encoding = {
  enc_program : Ast.program;
  enc_wellformed : Term.boolean;
  enc_trace : trace_point list;
  enc_egress : Term.bv;
  enc_dropped : Term.boolean;
  enc_punted : Term.boolean;
}

(* Symbolic machine state. *)
type sym = {
  program : Ast.program;
  entries : State.t;
  fields : (string, Term.bv) Hashtbl.t;       (* "hdr.field" -> value *)
  valid : (string, Term.boolean) Hashtbl.t;   (* header -> validity *)
  mutable trace : trace_point list;
  mutable fresh_counter : int;
  mutable branch_counter : int;
}

let fkey hdr field = hdr ^ "." ^ field

let fresh_var sym prefix width =
  sym.fresh_counter <- sym.fresh_counter + 1;
  Term.var (Printf.sprintf "%s.%d" prefix sym.fresh_counter) width

let read_field sym (fr : Ast.field_ref) =
  match Hashtbl.find_opt sym.fields (fkey fr.fr_header fr.fr_field) with
  | Some v -> v
  | None -> Term.of_int ~width:(Ast.field_width sym.program fr) 0

let write_field sym (fr : Ast.field_ref) v =
  Hashtbl.replace sym.fields (fkey fr.fr_header fr.fr_field) v

let read_validity sym hdr =
  match Hashtbl.find_opt sym.valid hdr with Some b -> b | None -> Term.fls

(* --- expression evaluation ---------------------------------------------------- *)

let rec eval_expr sym params (e : Ast.expr) : Term.bv =
  match e with
  | E_const c -> Term.const c
  | E_field fr -> read_field sym fr
  | E_param name -> (
      match List.assoc_opt name params with
      | Some v -> v
      | None -> invalid_arg ("Symexec: unbound action parameter " ^ name))
  | E_not a -> Term.bvnot (eval_expr sym params a)
  | E_and (a, b) -> Term.bvand (eval_expr sym params a) (eval_expr sym params b)
  | E_or (a, b) -> Term.bvor (eval_expr sym params a) (eval_expr sym params b)
  | E_xor (a, b) -> Term.bvxor (eval_expr sym params a) (eval_expr sym params b)
  | E_add (a, b) -> Term.bvadd (eval_expr sym params a) (eval_expr sym params b)
  | E_sub (a, b) -> Term.bvsub (eval_expr sym params a) (eval_expr sym params b)
  | E_slice (hi, lo, a) -> Term.extract ~hi ~lo (eval_expr sym params a)
  | E_concat (a, b) -> Term.concat (eval_expr sym params a) (eval_expr sym params b)
  | E_hash (name, _args) ->
      (* Free hash (§5): unconstrained fresh variable. *)
      fresh_var sym ("hash." ^ name) 16

let rec eval_bexpr sym params (b : Ast.bexpr) : Term.boolean =
  match b with
  | B_true -> Term.tru
  | B_false -> Term.fls
  | B_is_valid h -> read_validity sym h
  | B_eq (a, b) -> Term.eq (eval_expr sym params a) (eval_expr sym params b)
  | B_ne (a, b) -> Term.neq (eval_expr sym params a) (eval_expr sym params b)
  | B_ult (a, b) -> Term.ult (eval_expr sym params a) (eval_expr sym params b)
  | B_ule (a, b) -> Term.ule (eval_expr sym params a) (eval_expr sym params b)
  | B_not a -> Term.not_ (eval_bexpr sym params a)
  | B_and (a, b) -> Term.and_ (eval_bexpr sym params a) (eval_bexpr sym params b)
  | B_or (a, b) -> Term.or_ (eval_bexpr sym params a) (eval_bexpr sym params b)

(* --- parser well-formedness ----------------------------------------------------- *)

(* Evaluate a parser select expression over the raw input variables (on the
   path where this select runs, the involved headers are extracted). *)
let rec eval_parser_expr program (e : Ast.expr) : Term.bv =
  match e with
  | E_const c -> Term.const c
  | E_field fr -> Term.var (field_var ~header:fr.fr_header ~field:fr.fr_field)
                    (Ast.field_width program fr)
  | E_slice (hi, lo, a) -> Term.extract ~hi ~lo (eval_parser_expr program a)
  | E_concat (a, b) -> Term.concat (eval_parser_expr program a) (eval_parser_expr program b)
  | E_not a -> Term.bvnot (eval_parser_expr program a)
  | E_and (a, b) -> Term.bvand (eval_parser_expr program a) (eval_parser_expr program b)
  | E_or (a, b) -> Term.bvor (eval_parser_expr program a) (eval_parser_expr program b)
  | E_xor (a, b) -> Term.bvxor (eval_parser_expr program a) (eval_parser_expr program b)
  | E_add (a, b) -> Term.bvadd (eval_parser_expr program a) (eval_parser_expr program b)
  | E_sub (a, b) -> Term.bvsub (eval_parser_expr program a) (eval_parser_expr program b)
  | E_param _ | E_hash _ -> invalid_arg "Symexec: unsupported parser expression"

(* Enumerate parser paths: (path condition, extracted headers). *)
let parser_paths (program : Ast.program) =
  let find_state name =
    List.find_opt
      (fun (s : Ast.parser_state) -> String.equal s.ps_name name)
      program.p_parser.states
  in
  let rec go state_name cond extracted fuel =
    if fuel = 0 then []
    else if String.equal state_name "accept" then [ (cond, extracted) ]
    else
      match find_state state_name with
      | None -> []
      | Some state -> (
          let extracted =
            match state.ps_extract with
            | Some h -> h :: extracted
            | None -> extracted
          in
          match state.ps_next with
          | T_accept -> [ (cond, extracted) ]
          | T_select (e, cases, default) ->
              let sel = eval_parser_expr program e in
              let case_paths =
                List.concat_map
                  (fun (c, target) ->
                    go target (Term.and_ cond (Term.eq sel (Term.const c))) extracted
                      (fuel - 1))
                  cases
              in
              let default_cond =
                List.fold_left
                  (fun acc (c, _) -> Term.and_ acc (Term.neq sel (Term.const c)))
                  cond cases
              in
              case_paths @ go default (Term.and_ cond default_cond) extracted (fuel - 1))
  in
  go program.p_parser.start Term.tru [] 64

let wellformedness program =
  let paths = parser_paths program in
  List.fold_left
    (fun acc (h : Header.t) ->
      let v = Term.bvar (validity_var ~header:h.name) in
      let reachable =
        Term.disj
          (List.filter_map
             (fun (cond, extracted) ->
               if List.mem h.name extracted then Some cond else None)
             paths)
      in
      Term.and_ acc (Term.iff v reachable))
    Term.tru program.p_headers

(* --- tables ----------------------------------------------------------------------- *)

let match_condition sym (table : Ast.table) key_values (e : Entry.t) =
  Term.conj
    (List.map
       (fun (k : Ast.key) ->
         let kv = List.assoc k.k_name key_values in
         match Entry.find_match e k.k_name with
         | None -> Term.tru
         | Some (Entry.M_exact v) -> Term.eq kv (Term.const v)
         | Some (Entry.M_lpm p) -> Term.matches_prefix kv p
         | Some (Entry.M_ternary tn) ->
             Term.matches_ternary kv ~value:(Ternary.value tn) ~mask:(Ternary.mask tn)
         | Some (Entry.M_optional (Some v)) -> Term.eq kv (Term.const v)
         | Some (Entry.M_optional None) -> Term.tru)
       table.t_keys)
  |> fun c -> ignore sym; c

let exec_stmt sym params guard = function
  | Ast.S_nop -> ()
  | Ast.S_assign (fr, e) ->
      let v = eval_expr sym params e in
      write_field sym fr (Term.ite guard v (read_field sym fr))
  | Ast.S_set_valid (h, b) ->
      let old = read_validity sym h in
      Hashtbl.replace sym.valid h
        (Term.bite guard (if b then Term.tru else Term.fls) old)

let exec_action sym guard (action : Ast.action) args =
  let params =
    List.map2 (fun (p : Ast.param) arg -> (p.p_name, Term.const arg)) action.a_params args
  in
  List.iter (exec_stmt sym params guard) action.a_body

let exec_invocation sym guard (ai : Entry.action_invocation) =
  let action = Ast.find_action_exn sym.program ai.ai_name in
  exec_action sym guard action ai.ai_args

let apply_table sym context table_name =
  let table = Ast.find_table_exn sym.program table_name in
  let key_values =
    List.map (fun (k : Ast.key) -> (k.k_name, eval_expr sym [] k.k_expr)) table.t_keys
  in
  let ordered = Interp.ordered_entries table (State.entries_of sym.entries table_name) in
  (* nm = "no higher-precedence entry matched so far". *)
  let nm = ref Term.tru in
  List.iter
    (fun (e : Entry.t) ->
      let m = match_condition sym table key_values e in
      let guard = Term.and_ context (Term.and_ !nm m) in
      sym.trace <-
        { tp_table = table_name; tp_label = Entry.match_key e; tp_guard = guard }
        :: sym.trace;
      (match e.e_action with
      | Entry.Single ai -> exec_invocation sym guard ai
      | Entry.Weighted members ->
          (* Free selector hash: a fresh variable picks the member; member 0
             also absorbs out-of-range values so selection is total. *)
          let sel = fresh_var sym (Printf.sprintf "sel.%s" table_name) 8 in
          let n = List.length members in
          List.iteri
            (fun k ((ai : Entry.action_invocation), _w) ->
              let cond =
                if k = 0 then
                  Term.not_
                    (Term.disj
                       (List.init (n - 1) (fun j ->
                            Term.eq sel (Term.of_int ~width:8 (j + 1)))))
                else Term.eq sel (Term.of_int ~width:8 k)
              in
              exec_invocation sym (Term.and_ guard cond) ai)
            members);
      nm := Term.and_ !nm (Term.not_ m))
    ordered;
  (* Default action. *)
  let default_guard = Term.and_ context !nm in
  sym.trace <-
    { tp_table = table_name; tp_label = "<default>"; tp_guard = default_guard }
    :: sym.trace;
  let dname, dargs = table.t_default_action in
  exec_action sym default_guard (Ast.find_action_exn sym.program dname) dargs

let rec exec_control sym context = function
  | Ast.C_nop -> ()
  | Ast.C_stmt s -> exec_stmt sym [] context s
  | Ast.C_seq (a, b) ->
      exec_control sym context a;
      exec_control sym context b
  | Ast.C_table name -> apply_table sym context name
  | Ast.C_if (cond, a, b) ->
      sym.branch_counter <- sym.branch_counter + 1;
      let id = sym.branch_counter in
      let c = eval_bexpr sym [] cond in
      let then_guard = Term.and_ context c in
      let else_guard = Term.and_ context (Term.not_ c) in
      sym.trace <-
        { tp_table = "<if>"; tp_label = Ast.branch_label id true; tp_guard = then_guard }
        :: { tp_table = "<if>"; tp_label = Ast.branch_label id false; tp_guard = else_guard }
        :: sym.trace;
      exec_control sym then_guard a;
      exec_control sym else_guard b

(* --- top level ---------------------------------------------------------------------- *)

let encode (program : Ast.program) entries =
  Telemetry.with_span (Telemetry.get ()) "symbolic.encode"
    ~attrs:[ ("program", program.p_name) ]
  @@ fun () ->
  let state = State.create () in
  List.iter (fun e -> ignore (State.insert state e)) entries;
  let sym =
    { program;
      entries = state;
      fields = Hashtbl.create 128;
      valid = Hashtbl.create 16;
      trace = [];
      fresh_counter = 0;
      branch_counter = 0 }
  in
  (* Initial symbolic state: header fields are input variables masked by
     validity (reads of unparsed headers yield 0, matching the concrete
     interpreter); metadata starts zeroed; the ingress port is free. *)
  List.iter
    (fun (h : Header.t) ->
      let v = Term.bvar (validity_var ~header:h.name) in
      Hashtbl.replace sym.valid h.name v;
      List.iter
        (fun (f : Header.field) ->
          let input = Term.var (field_var ~header:h.name ~field:f.f_name) f.f_width in
          Hashtbl.replace sym.fields (fkey h.name f.f_name)
            (Term.ite v input (Term.of_int ~width:f.f_width 0)))
        h.fields)
    program.p_headers;
  List.iter
    (fun (n, w) -> Hashtbl.replace sym.fields (fkey "meta" n) (Term.of_int ~width:w 0))
    program.p_metadata;
  List.iter
    (fun (n, w) -> Hashtbl.replace sym.fields (fkey "std" n) (Term.of_int ~width:w 0))
    Ast.standard_metadata;
  Hashtbl.replace sym.fields (fkey "std" "ingress_port") (Term.var ingress_port_var 16);
  exec_control sym Term.tru program.p_ingress;
  exec_control sym Term.tru program.p_egress;
  let std name = Hashtbl.find sym.fields (fkey "std" name) in
  let egress = std "egress_port" in
  let dropped =
    Term.or_
      (Term.eq (std "drop") (Term.of_int ~width:1 1))
      (Term.eq egress (Term.of_int ~width:16 0))
  in
  let punted = Term.eq (std "punt") (Term.of_int ~width:1 1) in
  { enc_program = program;
    enc_wellformed = wellformedness program;
    enc_trace = List.rev sym.trace;
    enc_egress = egress;
    enc_dropped = dropped;
    enc_punted = punted }
