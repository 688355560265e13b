module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Constraint_lang = Switchv_p4constraints.Constraint_lang

type field_ref = { fr_header : string; fr_field : string }

let field fr_header fr_field = { fr_header; fr_field }
let meta fr_field = { fr_header = "meta"; fr_field }
let std fr_field = { fr_header = "std"; fr_field }

let field_ref_to_string fr = fr.fr_header ^ "." ^ fr.fr_field

let field_ref_of_string s =
  match String.index_opt s '.' with
  | None -> invalid_arg ("Ast.field_ref_of_string: no dot in " ^ s)
  | Some i when i = 0 || i = String.length s - 1 ->
      invalid_arg ("Ast.field_ref_of_string: empty component in " ^ s)
  | Some i ->
      { fr_header = String.sub s 0 i;
        fr_field = String.sub s (i + 1) (String.length s - i - 1) }

let standard_metadata =
  [ ("ingress_port", 16);
    ("egress_port", 16);
    ("drop", 1);
    ("punt", 1);
    ("submit_to_ingress", 1);
    ("mirror_session", 16);
    ("vrf_action_taken", 1) ]

type expr =
  | E_const of Bitvec.t
  | E_field of field_ref
  | E_param of string
  | E_not of expr
  | E_and of expr * expr
  | E_or of expr * expr
  | E_xor of expr * expr
  | E_add of expr * expr
  | E_sub of expr * expr
  | E_slice of int * int * expr
  | E_concat of expr * expr
  | E_hash of string * expr list

type bexpr =
  | B_true
  | B_false
  | B_is_valid of string
  | B_eq of expr * expr
  | B_ne of expr * expr
  | B_ult of expr * expr
  | B_ule of expr * expr
  | B_not of bexpr
  | B_and of bexpr * bexpr
  | B_or of bexpr * bexpr

type stmt =
  | S_assign of field_ref * expr
  | S_set_valid of string * bool
  | S_nop

type param = {
  p_name : string;
  p_width : int;
  p_refers_to : (string * string) option;
}

let param ?refers_to p_name p_width = { p_name; p_width; p_refers_to = refers_to }

type action = {
  a_name : string;
  a_params : param list;
  a_body : stmt list;
}

let find_param a name = List.find_opt (fun p -> String.equal p.p_name name) a.a_params

type match_kind = Exact | Lpm | Ternary | Optional

type key = {
  k_name : string;
  k_expr : expr;
  k_kind : match_kind;
  k_refers_to : (string * string) option;
}

type table = {
  t_name : string;
  t_id : int;
  t_keys : key list;
  t_actions : string list;
  t_default_action : string * Bitvec.t list;
  t_size : int;
  t_entry_restriction : Constraint_lang.t option;
  t_selector : bool;
}

type transition =
  | T_accept
  | T_select of expr * (Bitvec.t * string) list * string

type parser_state = {
  ps_name : string;
  ps_extract : string option;
  ps_next : transition;
}

type parser = { start : string; states : parser_state list }

type control =
  | C_nop
  | C_seq of control * control
  | C_table of string
  | C_if of bexpr * control * control
  | C_stmt of stmt

type program = {
  p_name : string;
  p_headers : Header.t list;
  p_metadata : (string * int) list;
  p_parser : parser;
  p_actions : action list;
  p_tables : table list;
  p_ingress : control;
  p_egress : control;
}

let find_table p name = List.find_opt (fun t -> String.equal t.t_name name) p.p_tables

let find_table_exn p name =
  match find_table p name with
  | Some t -> t
  | None -> invalid_arg ("Ast.find_table_exn: no table " ^ name)

let find_action p name = List.find_opt (fun a -> String.equal a.a_name name) p.p_actions

let find_action_exn p name =
  match find_action p name with
  | Some a -> a
  | None -> invalid_arg ("Ast.find_action_exn: no action " ^ name)

let find_header p name =
  List.find_opt (fun h -> String.equal h.Header.name name) p.p_headers

let find_key t name = List.find_opt (fun k -> String.equal k.k_name name) t.t_keys

let field_width p fr =
  match fr.fr_header with
  | "std" -> List.assoc fr.fr_field standard_metadata
  | "meta" -> List.assoc fr.fr_field p.p_metadata
  | h -> (
      match find_header p h with
      | None -> raise Not_found
      | Some hdr -> Header.field_width hdr fr.fr_field)

let rec tables_in_control = function
  | C_nop | C_stmt _ -> []
  | C_seq (a, b) -> tables_in_control a @ tables_in_control b
  | C_table name -> [ name ]
  | C_if (_, a, b) -> tables_in_control a @ tables_in_control b

let rec count_ifs = function
  | C_nop | C_stmt _ | C_table _ -> 0
  | C_seq (a, b) -> count_ifs a + count_ifs b
  | C_if (_, a, b) -> 1 + count_ifs a + count_ifs b

let branch_label id arm = "branch." ^ string_of_int id ^ if arm then ".then" else ".else"
let coverage_key label = "cov." ^ label

let action_key table ~hit action =
  coverage_key ("action." ^ table ^ (if hit then ".hit." else ".miss.") ^ action)

let rec expr_width p action e =
  match e with
  | E_const c -> Bitvec.width c
  | E_field fr -> field_width p fr
  | E_param name -> (
      match action with
      | None -> invalid_arg "Ast.expr_width: parameter outside an action"
      | Some a -> (
          match find_param a name with
          | Some p -> p.p_width
          | None -> raise Not_found))
  | E_not a -> expr_width p action a
  | E_and (a, _) | E_or (a, _) | E_xor (a, _) | E_add (a, _) | E_sub (a, _) ->
      expr_width p action a
  | E_slice (hi, lo, _) -> hi - lo + 1
  | E_concat (a, b) -> expr_width p action a + expr_width p action b
  | E_hash _ -> 16

let key_width p _t k = expr_width p None k.k_expr

let seq controls = List.fold_right (fun c acc -> C_seq (c, acc)) controls C_nop

let normalize_control control =
  let rec flatten = function
    | C_nop -> []
    | C_seq (a, b) -> flatten a @ flatten b
    | C_table _ as c -> [ c ]
    | C_stmt _ as c -> [ c ]
    | C_if (cond, a, b) -> [ C_if (cond, normalize a, normalize b) ]
  and normalize c = seq (flatten c) in
  normalize control
