module Ast = Switchv_p4ir.Ast

type action_role = Hit | Miss

type node_kind =
  | N_entry
  | N_exit
  | N_parser_state of Ast.parser_state
  | N_parser_accept
  | N_stmt of Ast.stmt
  | N_cond of int * Ast.bexpr
  | N_table of Ast.table
  | N_action of Ast.table * string * action_role

type node = {
  n_id : int;
  n_kind : node_kind;
  n_where : string;
  mutable n_succ : int list;
  mutable n_pred : int list;
}

type t = {
  program : Ast.program;
  nodes : node array;
  entry : int;
  exit_ : int;
}

let build (program : Ast.program) =
  let nodes = ref [] in
  let count = ref 0 in
  let mk where kind =
    let n =
      { n_id = !count; n_kind = kind; n_where = where; n_succ = []; n_pred = [] }
    in
    incr count;
    nodes := n :: !nodes;
    n
  in
  (* Successor lists are built in reverse (cons — appending one id at a
     time was quadratic in a node's out-degree) and reversed once in the
     finalization pass below, which restores connect-call order. *)
  let connect n id = n.n_succ <- id :: n.n_succ in
  let entry = mk "" N_entry in
  let exit_ = mk "" N_exit in
  let accept = mk "parser" N_parser_accept in
  (* Parser states and their transitions. *)
  let state_nodes =
    List.map (fun s -> (s.Ast.ps_name, mk "parser" (N_parser_state s)))
      program.p_parser.states
  in
  let state_node name =
    if String.equal name "accept" then Some accept
    else List.assoc_opt name state_nodes
  in
  (match state_node program.p_parser.start with
  | Some s -> connect entry s.n_id
  | None -> connect entry accept.n_id);
  List.iter
    (fun s ->
      let node = List.assoc s.Ast.ps_name state_nodes in
      match s.Ast.ps_next with
      | Ast.T_accept -> connect node accept.n_id
      | Ast.T_select (_, cases, default) ->
          let seen = Hashtbl.create 4 in
          List.iter
            (fun target ->
              if not (Hashtbl.mem seen target) then begin
                Hashtbl.add seen target ();
                match state_node target with
                | Some n -> connect node n.n_id
                | None -> ()
              end)
            (List.map snd cases @ [ default ]))
    program.p_parser.states;
  (* Pipelines. [build_control c succ next] wires every exit of [c] to
     node [succ] and returns the entry node id; [next] is the branch id of
     the first [C_if] in execution order, matching Symexec's pre-order
     counter (incremented at each [C_if], then-arm before else-arm). *)
  let rec build_control where c succ next =
    match c with
    | Ast.C_nop -> succ
    | Ast.C_stmt s ->
        let n = mk where (N_stmt s) in
        connect n succ;
        n.n_id
    | Ast.C_seq (a, b) ->
        let b_entry = build_control where b succ (next + Ast.count_ifs a) in
        build_control where a b_entry next
    | Ast.C_table name -> (
        match Ast.find_table program name with
        | None -> succ
        | Some t ->
            let tn = mk where (N_table t) in
            let add_action aname role =
              let an = mk where (N_action (t, aname, role)) in
              connect tn an.n_id;
              connect an succ
            in
            List.iter (fun a -> add_action a Hit) t.t_actions;
            add_action (fst t.t_default_action) Miss;
            tn.n_id)
    | Ast.C_if (cond, a, b) ->
        let then_entry = build_control where a succ (next + 1) in
        let else_entry = build_control where b succ (next + 1 + Ast.count_ifs a) in
        let n = mk where (N_cond (next, cond)) in
        (* Positional invariant: successor 0 is then, 1 is else — stored
           reversed here, like every in-construction successor list, so the
           finalization reversal below restores then-first. *)
        n.n_succ <- [ else_entry; then_entry ];
        n.n_id
  in
  let ingress_ifs = Ast.count_ifs program.p_ingress in
  let egress_entry = build_control "egress" program.p_egress exit_.n_id (1 + ingress_ifs) in
  let ingress_entry = build_control "ingress" program.p_ingress egress_entry 1 in
  connect accept ingress_entry;
  let arr = Array.make !count entry in
  List.iter (fun n -> arr.(n.n_id) <- n) !nodes;
  Array.iter (fun n -> n.n_succ <- List.rev n.n_succ) arr;
  Array.iter
    (fun n -> List.iter (fun s -> arr.(s).n_pred <- n.n_id :: arr.(s).n_pred) n.n_succ)
    arr;
  { program; nodes = arr; entry = entry.n_id; exit_ = exit_.n_id }

let node_loc n =
  match n.n_kind with
  | N_entry -> "entry"
  | N_exit -> "exit"
  | N_parser_state s -> "parser state " ^ s.Ast.ps_name
  | N_parser_accept -> "parser accept"
  | N_stmt _ -> n.n_where
  | N_cond _ -> n.n_where
  | N_table t -> "table " ^ t.Ast.t_name
  | N_action (t, a, _) -> Printf.sprintf "action %s (table %s)" a t.Ast.t_name

let iter f t = Array.iter f t.nodes
