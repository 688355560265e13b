module Ast = Switchv_p4ir.Ast
module SMap = Map.Make (String)
module SSet = Set.Make (String)
module IMap = Map.Make (Int)

(* A fact maps a field ("hdr.field") to the set of nondeterminism sources
   that may influence its value: ["hash:<name>"] for [E_hash] expressions,
   ["selector:<table>"] for one-shot action-selector member choice. A field
   absent from the map is untainted; a strong update to an untainted value
   therefore sanitizes (constant-assignment kills taint). *)
type fact = SSet.t SMap.t

module Domain = struct
  type t = fact

  let equal = SMap.equal SSet.equal
  let join a b = SMap.union (fun _ x y -> Some (SSet.union x y)) a b

  (* The lattice is finite (fields x source labels), so joining
     converges without a real widening operator. *)
  let widen = join
end

module F = Dataflow.Forward (Domain)

let field_key (fr : Ast.field_ref) = Ast.field_ref_to_string fr

let lookup map key =
  match SMap.find_opt key map with Some s -> s | None -> SSet.empty

let rec expr_taint fact = function
  | Ast.E_const _ | Ast.E_param _ -> SSet.empty
  | Ast.E_field fr -> lookup fact (field_key fr)
  | Ast.E_not a | Ast.E_slice (_, _, a) -> expr_taint fact a
  | Ast.E_and (a, b) | Ast.E_or (a, b) | Ast.E_xor (a, b) | Ast.E_add (a, b)
  | Ast.E_sub (a, b) | Ast.E_concat (a, b) ->
      SSet.union (expr_taint fact a) (expr_taint fact b)
  | Ast.E_hash (name, args) ->
      List.fold_left
        (fun acc e -> SSet.union acc (expr_taint fact e))
        (SSet.singleton ("hash:" ^ name))
        args

(* [vmap] carries validity taint: headers whose valid bit is set or cleared
   under nondeterministic control (e.g. a GRE encap action selected by a
   tainted tunnel key), so [isValid] reads of them are tainted too. *)
let rec bexpr_taint ~vmap fact = function
  | Ast.B_true | Ast.B_false -> SSet.empty
  | Ast.B_is_valid h -> lookup vmap h
  | Ast.B_eq (a, b) | Ast.B_ne (a, b) | Ast.B_ult (a, b) | Ast.B_ule (a, b) ->
      SSet.union (expr_taint fact a) (expr_taint fact b)
  | Ast.B_not c -> bexpr_taint ~vmap fact c
  | Ast.B_and (a, b) | Ast.B_or (a, b) ->
      SSet.union (bexpr_taint ~vmap fact a) (bexpr_taint ~vmap fact b)

let key_taint fact (t : Ast.table) =
  List.fold_left
    (fun acc (k : Ast.key) -> SSet.union acc (expr_taint fact k.Ast.k_expr))
    SSet.empty t.Ast.t_keys

(* Which entry of a table wins — and hence which action runs and which
   entry arguments feed [E_param] reads — depends on the key values, so
   every assignment inside an applied action inherits the key taint as an
   ambient source set; selector tables additionally inject the member
   choice itself on the hit edge. *)
let action_ambient fact (t : Ast.table) (role : Cfg.action_role) =
  let kt = key_taint fact t in
  if t.Ast.t_selector && role = Cfg.Hit then
    SSet.add ("selector:" ^ t.Ast.t_name) kt
  else kt

let assign ~extra ambient fact fr e =
  let key = field_key fr in
  let t = SSet.union (expr_taint fact e) ambient in
  let t = SSet.union t (lookup extra key) in
  if SSet.is_empty t then SMap.remove key fact else SMap.add key t fact

let apply_stmt ~extra ambient fact = function
  | Ast.S_assign (fr, e) -> assign ~extra ambient fact fr e
  | Ast.S_set_valid _ | Ast.S_nop -> fact

let action_body program name =
  match Ast.find_action program name with Some a -> a.Ast.a_body | None -> []

let transfer program ~extra (node : Cfg.node) fact =
  match node.Cfg.n_kind with
  | Cfg.N_stmt s -> apply_stmt ~extra SSet.empty fact s
  | Cfg.N_action (t, name, role) ->
      let ambient = action_ambient fact t role in
      List.fold_left (apply_stmt ~extra ambient) fact (action_body program name)
  | _ -> fact

(* --- region scan (implicit flow) -----------------------------------------

   Assignments and validity flips that execute only inside an arm of a
   tainted conditional are control-dependent on the taint, so the scan
   force-taints them (the [extra] map merged into every assignment of the
   next dataflow round) and records conditionals nested inside tainted
   regions — their path conditions cross a tainted branch even when their
   own condition is clean. Branch ids follow {!Ast.count_ifs}'s pre-order
   numbering, shared with Symexec, {!Cfg} and the evaluators. *)

type scan = {
  mutable sc_extra : fact;
  mutable sc_vmap : fact;  (* header name -> sources *)
  mutable sc_nested : SSet.t IMap.t;
}

let merge_into map key srcs =
  SMap.update key
    (function None -> Some srcs | Some s -> Some (SSet.union s srcs))
    map

let region_scan program tainted_conds =
  let sc = { sc_extra = SMap.empty; sc_vmap = SMap.empty; sc_nested = IMap.empty } in
  let stmt_in_region srcs = function
    | Ast.S_assign (fr, _) -> sc.sc_extra <- merge_into sc.sc_extra (field_key fr) srcs
    | Ast.S_set_valid (h, _) -> sc.sc_vmap <- merge_into sc.sc_vmap h srcs
    | Ast.S_nop -> ()
  in
  let table_in_region srcs tname =
    match Ast.find_table program tname with
    | None -> ()
    | Some t ->
        List.iter
          (fun a -> List.iter (stmt_in_region srcs) (action_body program a))
          (fst t.Ast.t_default_action :: t.Ast.t_actions)
  in
  let rec walk ambient next = function
    | Ast.C_nop -> ()
    | Ast.C_stmt s -> Option.iter (fun srcs -> stmt_in_region srcs s) ambient
    | Ast.C_table name -> Option.iter (fun srcs -> table_in_region srcs name) ambient
    | Ast.C_seq (a, b) ->
        walk ambient next a;
        walk ambient (next + Ast.count_ifs a) b
    | Ast.C_if (_, a, b) ->
        let here = IMap.find_opt next tainted_conds in
        let ambient' =
          match (ambient, here) with
          | None, x -> x
          | Some s, None ->
              sc.sc_nested <-
                IMap.update next
                  (function None -> Some s | Some t -> Some (SSet.union s t))
                  sc.sc_nested;
              Some s
          | Some s, Some t -> Some (SSet.union s t)
        in
        walk ambient' (next + 1) a;
        walk ambient' (next + 1 + Ast.count_ifs a) b
  in
  walk None 1 program.Ast.p_ingress;
  walk None (1 + Ast.count_ifs program.Ast.p_ingress) program.Ast.p_egress;
  sc

(* --- summary -------------------------------------------------------------- *)

type summary = {
  s_branches : (int * string list) list;
  s_branch_labels : string list;
  s_exit_fields : (string * string list) list;
  s_tainted_keys : (string * string list) list;
  s_egress_writers : (string * string) list;
  s_valid_tainted : string list;
}

let empty =
  { s_branches = []; s_branch_labels = []; s_exit_fields = [];
    s_tainted_keys = []; s_egress_writers = []; s_valid_tainted = [] }

let taint_free s =
  s.s_branches = [] && s.s_exit_fields = [] && s.s_tainted_keys = []
  && s.s_egress_writers = [] && s.s_valid_tainted = []

let exit_tainted s field = List.mem_assoc field s.s_exit_fields

let submap a b = SMap.for_all (fun k s -> SSet.subset s (lookup b k)) a

let analyze (cfg : Cfg.t) =
  let program = cfg.Cfg.program in
  let run extra = F.run cfg ~init:SMap.empty ~transfer:(transfer program ~extra) in
  (* Outer fixpoint over implicit flow: a dataflow round discovers tainted
     conditionals; the region scan converts their arms' effects into forced
     taint and validity taint for the next round. The state only grows and
     is bounded by fields x sources, so this terminates. *)
  let rec loop extra vmap =
    let res = run extra in
    let tainted_conds = ref IMap.empty in
    Cfg.iter
      (fun node ->
        match (node.Cfg.n_kind, res.Dataflow.before.(node.Cfg.n_id)) with
        | Cfg.N_cond (id, cond), Some fact ->
            let srcs = bexpr_taint ~vmap fact cond in
            if not (SSet.is_empty srcs) then
              tainted_conds := IMap.add id srcs !tainted_conds
        | _ -> ())
      cfg;
    let sc = region_scan program !tainted_conds in
    (* Validity flips reached under an ambient (key/selector) source are
       taint-dependent even outside tainted regions: the winning entry
       decides whether the encap action runs at all. *)
    Cfg.iter
      (fun node ->
        match (node.Cfg.n_kind, res.Dataflow.before.(node.Cfg.n_id)) with
        | Cfg.N_action (t, name, role), Some fact ->
            let ambient = action_ambient fact t role in
            if not (SSet.is_empty ambient) then
              List.iter
                (function
                  | Ast.S_set_valid (h, _) ->
                      sc.sc_vmap <- merge_into sc.sc_vmap h ambient
                  | Ast.S_assign _ | Ast.S_nop -> ())
                (action_body program name)
        | _ -> ())
      cfg;
    let extra' = SMap.union (fun _ a b -> Some (SSet.union a b)) extra sc.sc_extra in
    let vmap' = SMap.union (fun _ a b -> Some (SSet.union a b)) vmap sc.sc_vmap in
    if submap extra' extra && submap vmap' vmap then
      (res, !tainted_conds, sc.sc_nested, vmap, extra)
    else loop extra' vmap'
  in
  let res, tainted_conds, nested, vmap, extra = loop SMap.empty SMap.empty in
  let sources s = List.sort compare (SSet.elements s) in
  let s_branches =
    IMap.bindings tainted_conds |> List.map (fun (id, s) -> (id, sources s))
  in
  let all_cond_ids =
    IMap.union (fun _ a b -> Some (SSet.union a b)) tainted_conds nested
  in
  let s_branch_labels =
    IMap.bindings all_cond_ids
    |> List.concat_map (fun (id, _) ->
           [ Ast.branch_label id true; Ast.branch_label id false ])
  in
  (* Tables whose keys read tainted values, with the offending key names. *)
  let keys_by_table = Hashtbl.create 8 in
  let egress_writers = Hashtbl.create 8 in
  Cfg.iter
    (fun node ->
      match (node.Cfg.n_kind, res.Dataflow.before.(node.Cfg.n_id)) with
      | Cfg.N_table t, Some fact ->
          List.iter
            (fun (k : Ast.key) ->
              if not (SSet.is_empty (expr_taint fact k.Ast.k_expr)) then begin
                let prev =
                  Option.value ~default:SSet.empty
                    (Hashtbl.find_opt keys_by_table t.Ast.t_name)
                in
                Hashtbl.replace keys_by_table t.Ast.t_name
                  (SSet.add k.Ast.k_name prev)
              end)
            t.Ast.t_keys
      | Cfg.N_action (t, name, role), Some fact ->
          let ambient = action_ambient fact t role in
          ignore
            (List.fold_left
               (fun fact stmt ->
                 (match stmt with
                 | Ast.S_assign (fr, e)
                   when String.equal fr.Ast.fr_header "std"
                        && String.equal fr.Ast.fr_field "egress_port" ->
                     let t_srcs =
                       SSet.union (expr_taint fact e)
                         (SSet.union ambient (lookup extra (field_key fr)))
                     in
                     if not (SSet.is_empty t_srcs) then
                       Hashtbl.replace egress_writers (t.Ast.t_name, name) ()
                 | _ -> ());
                 apply_stmt ~extra ambient fact stmt)
               fact (action_body program name))
      | _ -> ())
    cfg;
  let s_tainted_keys =
    Hashtbl.fold
      (fun t ks acc -> (t, List.sort compare (SSet.elements ks)) :: acc)
      keys_by_table []
    |> List.sort compare
  in
  let s_egress_writers =
    Hashtbl.fold (fun k () acc -> k :: acc) egress_writers [] |> List.sort compare
  in
  let exit_fact =
    match res.Dataflow.before.(cfg.Cfg.exit_) with
    | Some f -> f
    | None -> SMap.empty
  in
  { s_branches;
    s_branch_labels;
    s_exit_fields =
      SMap.bindings exit_fact |> List.map (fun (f, s) -> (f, sources s));
    s_tainted_keys;
    s_egress_writers;
    s_valid_tainted = SMap.bindings vmap |> List.map fst }
