open Ast
module Header = Switchv_packet.Header
module Constraint_lang = Switchv_p4constraints.Constraint_lang

let check program =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun msg -> errors := msg :: !errors) fmt in

  let check_unique what names =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then err "duplicate %s: %s" what n
        else Hashtbl.add tbl n ())
      names
  in

  check_unique "header" (List.map (fun h -> h.Header.name) program.p_headers);
  check_unique "metadata field" (List.map fst program.p_metadata);
  check_unique "action" (List.map (fun a -> a.a_name) program.p_actions);
  check_unique "table" (List.map (fun t -> t.t_name) program.p_tables);
  check_unique "table id"
    (List.map (fun t -> string_of_int t.t_id) program.p_tables);
  List.iter
    (fun h ->
      if String.equal h.Header.name "meta" || String.equal h.Header.name "std" then
        err "header name %s is reserved" h.Header.name;
      if h.Header.fields = [] then err "header %s has no fields" h.Header.name;
      check_unique ("header " ^ h.Header.name ^ " field") (Header.field_names h);
      List.iter
        (fun (f : Header.field) ->
          if f.f_width < 1 then
            err "header %s: field %s has width %d" h.Header.name f.f_name f.f_width)
        h.Header.fields;
      (* Packets are bytes: a header that is not a whole number of them
         cannot be parsed into or deparsed from one. *)
      if Header.width h mod 8 <> 0 then
        err "header %s has width %d, not a whole number of bytes" h.Header.name
          (Header.width h))
    program.p_headers;
  List.iter
    (fun (name, w) -> if w < 1 then err "metadata field %s has width %d" name w)
    program.p_metadata;

  let field_ok where fr =
    match field_width program fr with
    | _ -> true
    | exception Not_found ->
        err "%s: unknown field %s" where (field_ref_to_string fr);
        false
  in

  (* Expression checking: returns width when determinable. *)
  let rec check_expr where action e =
    match e with
    | E_const c -> Some (Switchv_bitvec.Bitvec.width c)
    | E_field fr -> if field_ok where fr then Some (field_width program fr) else None
    | E_param name -> (
        match action with
        | None ->
            err "%s: action parameter %s used outside an action" where name;
            None
        | Some a -> (
            match find_param a name with
            | Some p -> Some p.p_width
            | None ->
                err "%s: unknown action parameter %s" where name;
                None))
    | E_not a -> check_expr where action a
    | E_and (a, b) | E_or (a, b) | E_xor (a, b) | E_add (a, b) | E_sub (a, b) -> (
        let wa = check_expr where action a and wb = check_expr where action b in
        match (wa, wb) with
        | Some x, Some y when x <> y ->
            err "%s: width mismatch %d vs %d" where x y;
            None
        | Some x, Some _ -> Some x
        | _ -> None)
    | E_slice (hi, lo, a) -> (
        match check_expr where action a with
        | Some w ->
            if lo < 0 || hi >= w || hi < lo then begin
              err "%s: bad slice [%d:%d] of width %d" where hi lo w;
              None
            end
            else Some (hi - lo + 1)
        | None -> None)
    | E_concat (a, b) -> (
        match (check_expr where action a, check_expr where action b) with
        | Some x, Some y -> Some (x + y)
        | _ -> None)
    | E_hash (_, args) ->
        List.iter (fun a -> ignore (check_expr where action a)) args;
        Some 16
  in

  let rec check_bexpr where action b =
    match b with
    | B_true | B_false -> ()
    | B_is_valid h ->
        if find_header program h = None then err "%s: isValid on unknown header %s" where h
    | B_eq (a, b) | B_ne (a, b) | B_ult (a, b) | B_ule (a, b) -> (
        match (check_expr where action a, check_expr where action b) with
        | Some x, Some y when x <> y -> err "%s: comparison width mismatch %d vs %d" where x y
        | _ -> ())
    | B_not a -> check_bexpr where action a
    | B_and (a, b) | B_or (a, b) ->
        check_bexpr where action a;
        check_bexpr where action b
  in

  (* Actions *)
  List.iter
    (fun a ->
      let where = "action " ^ a.a_name in
      check_unique (where ^ " parameter")
        (List.map (fun (p : param) -> p.p_name) a.a_params);
      List.iter
        (fun (p : param) ->
          if p.p_width < 1 then
            err "%s: parameter %s has width %d" where p.p_name p.p_width;
          match p.p_refers_to with
          | None -> ()
          | Some (target_table, target_key) -> (
              match find_table program target_table with
              | None ->
                  err "%s: parameter %s @refers_to unknown table %s" where p.p_name
                    target_table
              | Some tt -> (
                  match find_key tt target_key with
                  | None ->
                      err "%s: parameter %s @refers_to %s.%s: no such key" where p.p_name
                        target_table target_key
                  | Some tk -> (
                      match check_expr ("table " ^ target_table) None tk.k_expr with
                      | Some w when w <> p.p_width ->
                          err "%s: parameter %s @refers_to %s.%s width mismatch (%d vs %d)"
                            where p.p_name target_table target_key p.p_width w
                      | _ -> ()))))
        a.a_params;
      List.iter
        (function
          | S_nop -> ()
          | S_set_valid (h, _) ->
              if find_header program h = None then
                err "%s: setValid on unknown header %s" where h
          | S_assign (fr, e) ->
              if field_ok where fr then begin
                let target_w = field_width program fr in
                match check_expr where (Some a) e with
                | Some w when w <> target_w ->
                    err "%s: assigning width %d to %s of width %d" where w
                      (field_ref_to_string fr) target_w
                | _ -> ()
              end
              else ignore (check_expr where (Some a) e))
        a.a_body)
    program.p_actions;

  (* Tables *)
  List.iter
    (fun t ->
      let where = "table " ^ t.t_name in
      check_unique (where ^ " key") (List.map (fun k -> k.k_name) t.t_keys);
      if t.t_size < 1 then err "%s: size %d < 1" where t.t_size;
      List.iter
        (fun k ->
          ignore (check_expr where None k.k_expr);
          (match k.k_refers_to with
          | None -> ()
          | Some (target_table, target_key) -> (
              match find_table program target_table with
              | None -> err "%s: @refers_to unknown table %s" where target_table
              | Some tt -> (
                  match find_key tt target_key with
                  | None ->
                      err "%s: @refers_to %s.%s: no such key" where target_table target_key
                  | Some tk -> (
                      match
                        ( check_expr where None k.k_expr,
                          check_expr ("table " ^ target_table) None tk.k_expr )
                      with
                      | Some w1, Some w2 when w1 <> w2 ->
                          err "%s: @refers_to %s.%s width mismatch (%d vs %d)" where
                            target_table target_key w1 w2
                      | _ -> ())))))
        t.t_keys;
      List.iter
        (fun aname ->
          if find_action program aname = None then err "%s: unknown action %s" where aname)
        t.t_actions;
      (let dname, dargs = t.t_default_action in
       match find_action program dname with
       | None -> err "%s: unknown default action %s" where dname
       | Some a ->
           if not (List.mem dname t.t_actions) then
             err "%s: default action %s not in the table's action list" where dname;
           if List.length dargs <> List.length a.a_params then
             err "%s: default action %s expects %d args, got %d" where dname
               (List.length a.a_params) (List.length dargs)
           else
             List.iter2
               (fun prm arg ->
                 if Switchv_bitvec.Bitvec.width arg <> prm.p_width then
                   err "%s: default arg for %s has width %d, expected %d" where prm.p_name
                     (Switchv_bitvec.Bitvec.width arg) prm.p_width)
               a.a_params dargs);
      (match t.t_entry_restriction with
      | None -> ()
      | Some c ->
          List.iter
            (fun kname ->
              if find_key t kname = None then
                err "%s: entry restriction references unknown key %s" where kname)
            (Constraint_lang.keys c)))
    program.p_tables;

  (* Parser *)
  let state_names = List.map (fun s -> s.ps_name) program.p_parser.states in
  check_unique "parser state" state_names;
  if not (List.mem program.p_parser.start state_names) then
    err "parser: unknown start state %s" program.p_parser.start;
  List.iter
    (fun s ->
      let where = "parser state " ^ s.ps_name in
      (match s.ps_extract with
      | Some h when find_header program h = None -> err "%s: extracts unknown header %s" where h
      | _ -> ());
      match s.ps_next with
      | T_accept -> ()
      | T_select (e, cases, default) ->
          let key_width = check_expr where None e in
          List.iter
            (fun (label, _) ->
              let w = Switchv_bitvec.Bitvec.width label in
              match key_width with
              | Some k when k <> w ->
                  err "%s: select label width %d vs key width %d" where w k
              | _ -> ())
            cases;
          List.iter
            (fun (_, target) ->
              if target <> "accept" && not (List.mem target state_names) then
                err "%s: transition to unknown state %s" where target)
            (cases @ [ (Switchv_bitvec.Bitvec.zero 1, default) ]))
    program.p_parser.states;

  (* Pipelines: references and the single-application restriction. *)
  let applied = tables_in_control program.p_ingress @ tables_in_control program.p_egress in
  List.iter
    (fun name ->
      if find_table program name = None then err "pipeline: unknown table %s" name)
    applied;
  check_unique "table application (tables cannot be revisited)" applied;
  let rec check_control where = function
    | C_nop | C_table _ -> ()
    | C_seq (a, b) ->
        check_control where a;
        check_control where b
    | C_if (cond, a, b) ->
        check_bexpr where None cond;
        check_control where a;
        check_control where b
    | C_stmt stmt -> (
        match stmt with
        | S_nop -> ()
        | S_set_valid (h, _) ->
            if find_header program h = None then
              err "%s: setValid on unknown header %s" where h
        | S_assign (fr, e) ->
            if field_ok where fr then begin
              let target_w = field_width program fr in
              match check_expr where None e with
              | Some w when w <> target_w ->
                  err "%s: assigning width %d to %s of width %d" where w
                    (field_ref_to_string fr) target_w
              | _ -> ()
            end
            else ignore (check_expr where None e))
  in
  check_control "ingress" program.p_ingress;
  check_control "egress" program.p_egress;

  (* The same defect can be reported from several walks (e.g. an unknown
     metadata field read in both pipelines); keep the first occurrence of
     each message so callers see each problem once, in discovery order. *)
  let seen = Hashtbl.create 16 in
  let msgs =
    List.filter
      (fun m ->
        if Hashtbl.mem seen m then false
        else begin
          Hashtbl.add seen m ();
          true
        end)
      (List.rev !errors)
  in
  match msgs with [] -> Ok () | msgs -> Error msgs

let check_exn program =
  match check program with
  | Ok () -> ()
  | Error msgs -> invalid_arg ("Typecheck: " ^ String.concat "; " msgs)
