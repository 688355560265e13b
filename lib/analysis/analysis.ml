module Ast = Switchv_p4ir.Ast
module Telemetry = Switchv_telemetry.Telemetry

type facts = {
  f_dead_tables : string list;
  f_unapplied_tables : string list;
  f_dead_branch_labels : string list;
  f_unsat_restriction_tables : string list;
  f_taint : Taint.summary;
}

let no_facts =
  { f_dead_tables = []; f_unapplied_tables = []; f_dead_branch_labels = [];
    f_unsat_restriction_tables = []; f_taint = Taint.empty }

type report = { r_diagnostics : Diagnostics.t list; r_facts : facts }

module SSet = Set.Make (String)

let run ?(check_restrictions = true) (program : Ast.program) =
  let tm = Telemetry.get () in
  Telemetry.with_span tm "analysis.run" (fun () ->
      Telemetry.incr tm "analysis.runs";
      let cfg = Cfg.build program in
      let validity = Validity.analyze cfg in
      let cp = Constprop.analyze cfg ~validity in
      let reach = Reachability.analyze cfg ~verdict:(Constprop.verdict cp) in
      let reachable = Reachability.reachable reach in
      let diags = ref [] in
      let add d = diags := d :: !diags in
      (* Header-validity reads (P4A001 / P4A002). *)
      List.iter add (Validity.check_reads ~reachable cfg validity);
      (* Table liveness: split defined tables into applied-and-reachable,
         applied-but-dead (P4A003), and never applied (P4A007). *)
      let applied = Hashtbl.create 16 and live = Hashtbl.create 16 in
      Cfg.iter
        (fun node ->
          match node.Cfg.n_kind with
          | Cfg.N_table t ->
              Hashtbl.replace applied t.Ast.t_name ();
              if reachable node.Cfg.n_id then
                Hashtbl.replace live t.Ast.t_name ()
          | _ -> ())
        cfg;
      let dead_tables = ref [] and unapplied = ref [] in
      List.iter
        (fun (t : Ast.table) ->
          let name = t.Ast.t_name in
          if not (Hashtbl.mem applied name) then begin
            unapplied := name :: !unapplied;
            add
              (Diagnostics.info "P4A007" ~loc:("table " ^ name)
                 "table is defined but never applied in any pipeline")
          end
          else if not (Hashtbl.mem live name) then begin
            dead_tables := name :: !dead_tables;
            add
              (Diagnostics.error "P4A003" ~loc:("table " ^ name)
                 "table is applied only on statically-unreachable paths")
          end)
        program.Ast.p_tables;
      let dead_tables = List.rev !dead_tables
      and unapplied = List.rev !unapplied in
      (* Unreachable parser states (P4A005). *)
      Cfg.iter
        (fun node ->
          match node.Cfg.n_kind with
          | Cfg.N_parser_state s when not (reachable node.Cfg.n_id) ->
              add
                (Diagnostics.warning "P4A005"
                   ~loc:("parser state " ^ s.Ast.ps_name)
                   "parser state is unreachable from the start state")
          | _ -> ())
        cfg;
      (* Statically-decided branches (P4A006) + dead symbolic branch
         labels. Unreachable conditionals contribute both arms to the
         dead-label set but no P4A006 (the enclosing dead path is already
         reported once, at its cause). *)
      let dead_labels = ref [] in
      let dead_label id arm = dead_labels := Ast.branch_label id arm :: !dead_labels in
      Cfg.iter
        (fun node ->
          match node.Cfg.n_kind with
          | Cfg.N_cond (id, _) ->
              if not (reachable node.Cfg.n_id) then begin
                dead_label id true;
                dead_label id false
              end
              else (
                match Constprop.verdict cp id with
                | Some b ->
                    dead_label id (not b);
                    add
                      (Diagnostics.warning "P4A006" ~loc:(Cfg.node_loc node)
                         "condition of branch %d is always %b; the %s arm \
                          never executes"
                         id b
                         (if b then "else" else "then"))
                | None -> ())
          | _ -> ())
        cfg;
      let dead_labels = List.rev !dead_labels in
      (* Actions referenced by no live table (P4A008). Never-applied
         tables still count — the control plane may exercise them. *)
      let referenced =
        List.fold_left
          (fun acc (t : Ast.table) ->
            if List.mem t.Ast.t_name dead_tables then acc
            else
              SSet.union acc
                (SSet.of_list (fst t.Ast.t_default_action :: t.Ast.t_actions)))
          SSet.empty program.Ast.p_tables
      in
      List.iter
        (fun (a : Ast.action) ->
          if not (SSet.mem a.Ast.a_name referenced) then
            add
              (Diagnostics.warning "P4A008" ~loc:("action " ^ a.Ast.a_name)
                 "action is referenced by no live table"))
        program.Ast.p_actions;
      (* Nondeterminism taint (P4A009 / P4A010). Warnings, not errors:
         matching on a hash-derived value is exactly what WCMP pipelines
         do on purpose — the findings tell the oracle (and the user) where
         deterministic prediction is impossible, not that the model is
         broken. *)
      let taint = Taint.analyze cfg in
      List.iter
        (fun (tname, keys) ->
          add
            (Diagnostics.warning "P4A009" ~loc:("table " ^ tname)
               "table matches on nondeterministic (hash/selector-tainted) \
                key%s %s"
               (if List.length keys = 1 then "" else "s")
               (String.concat ", " keys)))
        taint.Taint.s_tainted_keys;
      (match List.assoc_opt "std.egress_port" taint.Taint.s_exit_fields with
      | Some srcs ->
          add
            (Diagnostics.warning "P4A010" ~loc:"std.egress_port"
               "egress-port selection depends on nondeterministic sources \
                (%s); the oracle uses set-valued verdicts here"
               (String.concat ", " srcs))
      | None -> ());
      (* Entry-restriction satisfiability (P4A004). *)
      let unsat =
        if check_restrictions then Restriction.unsat_tables program else []
      in
      List.iter
        (fun name ->
          add
            (Diagnostics.error "P4A004" ~loc:("table " ^ name)
               "entry restriction is unsatisfiable: no entry can ever be \
                installed"))
        unsat;
      let diagnostics = Diagnostics.sort (Diagnostics.dedup (List.rev !diags)) in
      Telemetry.incr tm ~n:(Diagnostics.count Diagnostics.Error diagnostics)
        "analysis.diagnostics_error";
      Telemetry.incr tm ~n:(Diagnostics.count Diagnostics.Warning diagnostics)
        "analysis.diagnostics_warning";
      Telemetry.incr tm ~n:(Diagnostics.count Diagnostics.Info diagnostics)
        "analysis.diagnostics_info";
      { r_diagnostics = diagnostics;
        r_facts =
          { f_dead_tables = dead_tables; f_unapplied_tables = unapplied;
            f_dead_branch_labels = dead_labels;
            f_unsat_restriction_tables = unsat; f_taint = taint } })

let facts ?check_restrictions program =
  (run ?check_restrictions program).r_facts

let to_json ~min_severity (program : Ast.program) report =
  let module Json = Telemetry.Json in
  let all = report.r_diagnostics in
  let diag (d : Diagnostics.t) =
    Json.obj
      [ ("code", Json.str d.d_code);
        ("severity", Json.str (Diagnostics.severity_to_string d.d_severity));
        ("loc", Json.str d.d_loc);
        ("message", Json.str d.d_message) ]
  in
  Json.obj
    [ ("program", Json.str program.p_name);
      ("diagnostics", Json.arr (List.map diag (Diagnostics.filter ~min_severity all)));
      ("errors", Json.int (Diagnostics.count Diagnostics.Error all));
      ("warnings", Json.int (Diagnostics.count Diagnostics.Warning all));
      ("infos", Json.int (Diagnostics.count Diagnostics.Info all)) ]
