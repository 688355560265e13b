module Constraint_lang = Switchv_p4constraints.Constraint_lang
module Bdd = Switchv_p4constraints.Bdd

type match_field = {
  mf_name : string;
  mf_kind : Ast.match_kind;
  mf_width : int;
  mf_refers_to : (string * string) option;
}

type action_ref = {
  ar_name : string;
  ar_params : Ast.param list;
}

type table = {
  ti_name : string;
  ti_id : int;
  ti_match_fields : match_field list;
  ti_actions : action_ref list;
  ti_default_action : string;
  ti_size : int;
  ti_restriction : Constraint_lang.t option;
  ti_selector : bool;
}

type t = {
  pi_program : string;
  pi_tables : table list;
}

let of_program (p : Ast.program) =
  let action_ref name =
    let a = Ast.find_action_exn p name in
    { ar_name = a.Ast.a_name; ar_params = a.Ast.a_params }
  in
  let table (t : Ast.table) =
    { ti_name = t.t_name;
      ti_id = t.t_id;
      ti_match_fields =
        List.map
          (fun (k : Ast.key) ->
            { mf_name = k.k_name;
              mf_kind = k.k_kind;
              mf_width = Ast.key_width p t k;
              mf_refers_to = k.k_refers_to })
          t.t_keys;
      ti_actions = List.map action_ref t.t_actions;
      ti_default_action = fst t.t_default_action;
      ti_size = t.t_size;
      ti_restriction = t.t_entry_restriction;
      ti_selector = t.t_selector }
  in
  { pi_program = p.p_name; pi_tables = List.map table p.p_tables }

let find_table t name = List.find_opt (fun ti -> String.equal ti.ti_name name) t.pi_tables
let find_table_by_id t id = List.find_opt (fun ti -> ti.ti_id = id) t.pi_tables

let find_match_field ti name =
  List.find_opt (fun mf -> String.equal mf.mf_name name) ti.ti_match_fields

let find_action ti name =
  List.find_opt (fun ar -> String.equal ar.ar_name name) ti.ti_actions

let restriction_bdd ti =
  Option.bind ti.ti_restriction (fun c ->
      let names = Constraint_lang.keys c in
      let layout name =
        Option.bind (find_match_field ti name) (fun mf ->
            Option.map
              (fun kl_kind -> { Bdd.kl_name = name; kl_kind; kl_width = mf.mf_width })
              (match mf.mf_kind with
              | Ast.Exact -> Some Bdd.Exact
              | Ast.Optional -> Some Bdd.Optional
              | Ast.Ternary -> Some Bdd.Ternary
              | Ast.Lpm -> None))
      in
      let layouts = List.filter_map layout names in
      if List.length layouts <> List.length names then None
      else Result.to_option (Bdd.compile layouts c))

let requires_priority ti =
  List.exists
    (fun mf -> match mf.mf_kind with Ast.Ternary | Ast.Optional -> true | _ -> false)
    ti.ti_match_fields

(* No_sharing so the digest depends only on content, not on how the value
   was constructed in memory. *)
let digest t = Digest.to_hex (Digest.string (Marshal.to_string t [ Marshal.No_sharing ]))

let kind_to_string = function
  | Ast.Exact -> "exact"
  | Ast.Lpm -> "lpm"
  | Ast.Ternary -> "ternary"
  | Ast.Optional -> "optional"

let pp fmt t =
  Format.fprintf fmt "@[<v>P4Info for %s@," t.pi_program;
  List.iter
    (fun ti ->
      Format.fprintf fmt "@[<v 2>table %s (id %d, size %d%s)@," ti.ti_name ti.ti_id
        ti.ti_size (if ti.ti_selector then ", selector" else "");
      List.iter
        (fun mf ->
          Format.fprintf fmt "key %s : %s<%d>%s@," mf.mf_name (kind_to_string mf.mf_kind)
            mf.mf_width
            (match mf.mf_refers_to with
            | None -> ""
            | Some (tbl, k) -> Printf.sprintf " @refers_to(%s, %s)" tbl k))
        ti.ti_match_fields;
      List.iter
        (fun ar ->
          Format.fprintf fmt "action %s(%s)@," ar.ar_name
            (String.concat ", "
               (List.map
                  (fun (p : Ast.param) -> Printf.sprintf "%s:%d" p.p_name p.p_width)
                  ar.ar_params)))
        ti.ti_actions;
      (match ti.ti_restriction with
      | Some c -> Format.fprintf fmt "@entry_restriction(%s)@," (Constraint_lang.to_string c)
      | None -> ());
      Format.fprintf fmt "@]@,")
    t.pi_tables;
  Format.fprintf fmt "@]"
