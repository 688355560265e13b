(* Tests for lib/analysis: the CFG + dataflow passes, the diagnostic
   codes, agreement of branch numbering with the symbolic engine, and
   goal pruning. *)

module Ast = Switchv_p4ir.Ast
module Typecheck = Switchv_p4ir.Typecheck
module Header = Switchv_packet.Header
module Bitvec = Switchv_bitvec.Bitvec
module Constraint_lang = Switchv_p4constraints.Constraint_lang
module Analysis = Switchv_analysis.Analysis
module Diagnostics = Switchv_analysis.Diagnostics
module Taint = Switchv_analysis.Taint
module P4parser = Switchv_p4ir.P4parser
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Telemetry = Switchv_telemetry.Telemetry

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let all_models =
  [ Switchv_sai.Figure2.program; Switchv_sai.Middleblock.program;
    Switchv_sai.Wan.program; Switchv_sai.Tor.program;
    Switchv_sai.Cerberus.program ]

let codes (report : Analysis.report) =
  List.map (fun (d : Diagnostics.t) -> d.Diagnostics.d_code) report.r_diagnostics

let has_code code report = List.mem code (codes report)

let c w n = Ast.E_const (Bitvec.of_int ~width:w n)

(* A minimal well-formed base: ethernet always extracted, ipv4 behind an
   ether_type select (so ipv4 is Maybe-valid in the pipelines), one
   metadata byte that is never assigned. *)
let base_parser =
  { Ast.start = "start";
    states =
      [ { Ast.ps_name = "start"; ps_extract = Some "ethernet";
          ps_next =
            Ast.T_select
              ( Ast.E_field (Ast.field "ethernet" "ether_type"),
                [ (Bitvec.of_int ~width:16 0x0800, "parse_ipv4") ],
                "accept" ) };
        { Ast.ps_name = "parse_ipv4"; ps_extract = Some "ipv4";
          ps_next = Ast.T_accept } ] }

let table ?(id = 1) ?restriction ?(actions = [ "no_action" ]) ?(selector = false)
    name keys =
  { Ast.t_name = name; t_id = id; t_keys = keys; t_actions = actions;
    t_default_action = (List.hd actions, []); t_size = 8;
    t_entry_restriction = restriction; t_selector = selector }

let key ?(kind = Ast.Exact) name expr =
  { Ast.k_name = name; k_expr = expr; k_kind = kind; k_refers_to = None }

let no_action = { Ast.a_name = "no_action"; a_params = []; a_body = [] }

let mk ?(headers = [ Header.ethernet; Header.ipv4 ]) ?(metadata = [ ("dbg", 8) ])
    ?(actions = [ no_action ]) ?(tables = []) ?(parser = base_parser)
    ?(ingress = Ast.C_nop) ?(egress = Ast.C_nop) name =
  let program =
    { Ast.p_name = name; p_headers = headers; p_metadata = metadata;
      p_parser = parser; p_actions = actions; p_tables = tables;
      p_ingress = ingress; p_egress = egress }
  in
  Typecheck.check_exn program;
  program

(* --- the five role models lint clean ---------------------------------------- *)

let test_models_error_clean () =
  List.iter
    (fun (p : Ast.program) ->
      let report = Analysis.run p in
      let errors =
        Diagnostics.filter ~min_severity:Diagnostics.Error report.r_diagnostics
      in
      if errors <> [] then
        Alcotest.failf "%s has lint errors: %s" p.Ast.p_name
          (String.concat "; "
             (List.map (fun d -> Format.asprintf "%a" Diagnostics.pp d) errors)))
    all_models

(* --- one fixture per diagnostic code ----------------------------------------- *)

let test_never_valid_read () =
  (* gre is declared but no parser state extracts it. *)
  let p =
    mk "p4a001"
      ~headers:[ Header.ethernet; Header.ipv4; Header.gre ]
      ~tables:
        [ table "t" [ key "proto" (Ast.E_field (Ast.field "gre" "protocol")) ] ]
      ~ingress:(Ast.C_table "t")
  in
  let report = Analysis.run p in
  check_bool "P4A001 fires" true (has_code "P4A001" report);
  check_bool "is an error" true (Diagnostics.has_errors report.r_diagnostics)

let test_set_invalid_then_read () =
  let p =
    mk "p4a001-decap"
      ~ingress:
        (Ast.seq
           [ Ast.C_stmt (Ast.S_set_valid ("ipv4", false));
             Ast.C_if
               ( Ast.B_eq (Ast.E_field (Ast.field "ipv4" "ttl"), c 8 0),
                 Ast.C_nop, Ast.C_nop ) ])
  in
  check_bool "P4A001 fires after setInvalid" true
    (has_code "P4A001" (Analysis.run p))

let test_maybe_valid_read () =
  (* ipv4 is only extracted behind the ether_type select. *)
  let p =
    mk "p4a002"
      ~ingress:
        (Ast.C_if
           ( Ast.B_eq (Ast.E_field (Ast.field "ipv4" "ttl"), c 8 0),
             Ast.C_nop, Ast.C_nop ))
  in
  let report = Analysis.run p in
  check_bool "P4A002 fires" true (has_code "P4A002" report);
  check_bool "only a warning" false (Diagnostics.has_errors report.r_diagnostics)

let test_guarded_read_is_clean () =
  (* The same read under isValid produces nothing. *)
  let p =
    mk "guarded"
      ~ingress:
        (Ast.C_if
           ( Ast.B_is_valid "ipv4",
             Ast.C_if
               ( Ast.B_eq (Ast.E_field (Ast.field "ipv4" "ttl"), c 8 0),
                 Ast.C_nop, Ast.C_nop ),
             Ast.C_nop ))
  in
  (* (the base fixture has no tables, so no_action legitimately fires
     P4A008 — only the validity codes must stay silent) *)
  let report = Analysis.run p in
  check_bool "no P4A001" false (has_code "P4A001" report);
  check_bool "no P4A002" false (has_code "P4A002" report)

let test_dead_table () =
  (* dbg is never assigned, so it is always 0 and the guard never holds. *)
  let p =
    mk "p4a003"
      ~tables:
        [ table "dead_t"
            [ key "et" (Ast.E_field (Ast.field "ethernet" "ether_type")) ] ]
      ~ingress:
        (Ast.C_if
           ( Ast.B_eq (Ast.E_field (Ast.meta "dbg"), c 8 2),
             Ast.C_table "dead_t", Ast.C_nop ))
  in
  let report = Analysis.run p in
  check_bool "P4A003 fires" true (has_code "P4A003" report);
  check_bool "P4A006 fires for the decided branch" true
    (has_code "P4A006" report);
  check_bool "dead table in facts" true
    (List.mem "dead_t" report.r_facts.f_dead_tables)

let test_unsat_restriction () =
  let restriction =
    match Constraint_lang.parse "k == 1 && k == 2" with
    | Ok c -> c
    | Error m -> Alcotest.failf "restriction parse: %s" m
  in
  let p =
    mk "p4a004"
      ~tables:
        [ table "locked" ~restriction
            [ key "k" (Ast.E_field (Ast.std "ingress_port")) ] ]
      ~ingress:(Ast.C_table "locked")
  in
  let report = Analysis.run p in
  check_bool "P4A004 fires" true (has_code "P4A004" report);
  check_bool "unsat table in facts" true
    (List.mem "locked" report.r_facts.f_unsat_restriction_tables);
  (* and the pass is skippable *)
  check_bool "skipped when disabled" false
    (has_code "P4A004" (Analysis.run ~check_restrictions:false p))

let test_unreachable_parser_state () =
  let parser =
    { base_parser with
      Ast.states =
        base_parser.Ast.states
        @ [ { Ast.ps_name = "orphan"; ps_extract = None;
              ps_next = Ast.T_accept } ] }
  in
  check_bool "P4A005 fires" true
    (has_code "P4A005" (Analysis.run (mk "p4a005" ~parser)))

let test_decided_branch () =
  let p =
    mk "p4a006"
      ~ingress:
        (Ast.C_if
           ( Ast.B_ule (Ast.E_field (Ast.meta "dbg"), c 8 5),
             Ast.C_nop, Ast.C_nop ))
  in
  let report = Analysis.run p in
  check_bool "P4A006 fires (always true)" true (has_code "P4A006" report);
  check_bool "else arm is a dead label" true
    (List.mem "branch.1.else" report.r_facts.f_dead_branch_labels)

let test_unapplied_table () =
  let p =
    mk "p4a007"
      ~tables:
        [ table "cp_only"
            [ key "et" (Ast.E_field (Ast.field "ethernet" "ether_type")) ] ]
  in
  let report = Analysis.run p in
  check_bool "P4A007 fires" true (has_code "P4A007" report);
  check_bool "info only, not an error" false
    (Diagnostics.has_errors report.r_diagnostics);
  check_bool "unapplied in facts" true
    (List.mem "cp_only" report.r_facts.f_unapplied_tables)

let test_unreferenced_action () =
  let orphan = { Ast.a_name = "orphan_action"; a_params = []; a_body = [] } in
  let report = Analysis.run (mk "p4a008" ~actions:[ no_action; orphan ]) in
  check_bool "P4A008 fires" true (has_code "P4A008" report)

(* --- taint: P4A009 / P4A010 ---------------------------------------------------- *)

let hash_of_src =
  Ast.E_hash ("crc32", [ Ast.E_field (Ast.field "ethernet" "src_addr") ])

let bucket_meta = [ ("bucket", 16) ]

(* meta.bucket <- hash; a table keys on it. *)
let test_tainted_key () =
  let p =
    mk "p4a009" ~metadata:bucket_meta
      ~tables:[ table "hashed_t" [ key "bucket" (Ast.E_field (Ast.meta "bucket")) ] ]
      ~ingress:
        (Ast.seq
           [ Ast.C_stmt (Ast.S_assign (Ast.meta "bucket", hash_of_src));
             Ast.C_table "hashed_t" ])
  in
  let report = Analysis.run p in
  check_bool "P4A009 fires" true (has_code "P4A009" report);
  check_bool "only a warning" false (Diagnostics.has_errors report.r_diagnostics);
  check_bool "in the summary" true
    (List.mem_assoc "hashed_t" report.r_facts.f_taint.Taint.s_tainted_keys)

(* near-miss: the constant overwrite sanitizes the bucket before the read *)
let test_sanitized_key_is_clean () =
  let p =
    mk "p4a009-clean" ~metadata:bucket_meta
      ~tables:[ table "hashed_t" [ key "bucket" (Ast.E_field (Ast.meta "bucket")) ] ]
      ~ingress:
        (Ast.seq
           [ Ast.C_stmt (Ast.S_assign (Ast.meta "bucket", hash_of_src));
             Ast.C_stmt (Ast.S_assign (Ast.meta "bucket", c 16 1));
             Ast.C_table "hashed_t" ])
  in
  let report = Analysis.run p in
  check_bool "no P4A009" false (has_code "P4A009" report);
  check_bool "taint-free summary" true (Taint.taint_free report.r_facts.f_taint)

let test_tainted_egress () =
  let p =
    mk "p4a010" ~metadata:bucket_meta
      ~ingress:
        (Ast.seq
           [ Ast.C_stmt (Ast.S_assign (Ast.meta "bucket", hash_of_src));
             Ast.C_stmt
               (Ast.S_assign
                  (Ast.std "egress_port", Ast.E_field (Ast.meta "bucket"))) ])
  in
  let report = Analysis.run p in
  check_bool "P4A010 fires" true (has_code "P4A010" report);
  check_bool "exit-tainted egress port" true
    (Taint.exit_tainted report.r_facts.f_taint "std.egress_port")

(* near-miss: the hash is computed but a constant port wins *)
let test_sanitized_egress_is_clean () =
  let p =
    mk "p4a010-clean" ~metadata:bucket_meta
      ~ingress:
        (Ast.seq
           [ Ast.C_stmt (Ast.S_assign (Ast.meta "bucket", hash_of_src));
             Ast.C_stmt
               (Ast.S_assign
                  (Ast.std "egress_port", Ast.E_field (Ast.meta "bucket")));
             Ast.C_stmt (Ast.S_assign (Ast.std "egress_port", c 16 3)) ])
  in
  let report = Analysis.run p in
  check_bool "no P4A010" false (has_code "P4A010" report);
  check_bool "egress port untainted at exit" false
    (Taint.exit_tainted report.r_facts.f_taint "std.egress_port")

(* action-selector member choice as a source: the selector table's action
   writes the egress port from its (member-chosen) parameter *)
let set_port =
  { Ast.a_name = "set_port"; a_params = [ Ast.param "port" 16 ];
    a_body = [ Ast.S_assign (Ast.std "egress_port", Ast.E_param "port") ] }

let selector_program =
  mk "selector" ~metadata:bucket_meta
    ~actions:[ no_action; set_port ]
    ~tables:
      [ table "wcmp_t" ~selector:true ~actions:[ "no_action"; "set_port" ]
          [ key "gid" (Ast.E_field (Ast.meta "bucket")) ] ]
    ~ingress:(Ast.C_table "wcmp_t")

let test_selector_source () =
  let report = Analysis.run selector_program in
  let taint = report.r_facts.f_taint in
  check_bool "P4A010 fires" true (has_code "P4A010" report);
  check_bool "selector is the source" true
    (match List.assoc_opt "std.egress_port" taint.Taint.s_exit_fields with
    | Some sources -> List.mem "selector:wcmp_t" sources
    | None -> false);
  check_bool "egress writer recorded" true
    (List.mem ("wcmp_t", "set_port") taint.Taint.s_egress_writers)

(* a tainted condition marks both arms (and nested arms) as tainted goals *)
let test_tainted_branch_labels () =
  let p =
    mk "tainted-branch" ~metadata:bucket_meta
      ~ingress:
        (Ast.seq
           [ Ast.C_stmt (Ast.S_assign (Ast.meta "bucket", hash_of_src));
             Ast.C_if
               ( Ast.B_eq (Ast.E_field (Ast.meta "bucket"), c 16 0),
                 Ast.C_nop, Ast.C_nop ) ])
  in
  let taint = (Analysis.facts p).Analysis.f_taint in
  check_bool "branch 1 recorded" true (List.mem_assoc 1 taint.Taint.s_branches);
  check_bool "both arms labelled" true
    (List.mem "branch.1.then" taint.Taint.s_branch_labels
    && List.mem "branch.1.else" taint.Taint.s_branch_labels)

(* the WCMP role model carries the expected summary *)
let test_middleblock_taint_summary () =
  let taint = (Analysis.facts Switchv_sai.Middleblock.program).Analysis.f_taint in
  check_bool "egress port tainted at exit" true
    (Taint.exit_tainted taint "std.egress_port");
  check_bool "nexthop key tainted by the selector" true
    (List.mem_assoc "nexthop_table" taint.Taint.s_tainted_keys);
  check_bool "an egress writer exists" true (taint.Taint.s_egress_writers <> []);
  check_bool "figure2 is taint-free" true
    (Taint.taint_free
       (Analysis.facts Switchv_sai.Figure2.program).Analysis.f_taint)

(* --- .p4 fixture files --------------------------------------------------------- *)

let parse_fixture name =
  (* dune runtest runs in test/; `dune exec test/...` runs in the root *)
  let path =
    let local = Filename.concat "fixtures" name in
    if Sys.file_exists local then local
    else Filename.concat "test/fixtures" name
  in
  let ic = open_in_bin path in
  let source = really_input_string ic (in_channel_length ic) in
  close_in ic;
  P4parser.parse_exn ~name source

let test_fixture_tainted () =
  let report = Analysis.run (parse_fixture "tainted.p4") in
  check_bool "P4A009 fires" true (has_code "P4A009" report);
  check_bool "P4A010 fires" true (has_code "P4A010" report);
  check_bool "warnings only" false (Diagnostics.has_errors report.r_diagnostics)

let test_fixture_untainted () =
  let report = Analysis.run (parse_fixture "untainted.p4") in
  check_bool "no P4A009" false (has_code "P4A009" report);
  check_bool "no P4A010" false (has_code "P4A010" report)

(* --- branch numbering agrees with the symbolic engine ------------------------ *)

(* ingress: if(valid ipv4) { if(dbg==2) t1 }  — branch 1 then branch 2;
   egress: if(valid ethernet) — branch 3. dbg is always 0 and ethernet is
   always valid, so branch.2.then and branch.3.else are dead. *)
let branchy =
  mk "branchy"
    ~tables:
      [ table "t1" [ key "et" (Ast.E_field (Ast.field "ethernet" "ether_type")) ] ]
    ~ingress:
      (Ast.C_if
         ( Ast.B_is_valid "ipv4",
           Ast.C_if
             ( Ast.B_eq (Ast.E_field (Ast.meta "dbg"), c 8 2),
               Ast.C_table "t1", Ast.C_nop ),
           Ast.C_nop ))
    ~egress:(Ast.C_if (Ast.B_is_valid "ethernet", Ast.C_nop, Ast.C_nop))

let test_branch_labels_match_symexec () =
  let facts = Analysis.facts branchy in
  check_bool "expected dead labels" true
    (List.sort compare facts.f_dead_branch_labels
    = [ "branch.2.then"; "branch.3.else" ]);
  let enc = Symexec.encode branchy [] in
  let symexec_labels =
    List.filter_map
      (fun (tp : Symexec.trace_point) ->
        if String.equal tp.tp_table "<if>" then Some tp.tp_label else None)
      enc.enc_trace
  in
  List.iter
    (fun label ->
      check_bool (label ^ " is a real symexec label") true
        (List.mem label symexec_labels))
    facts.f_dead_branch_labels

(* --- goal pruning ------------------------------------------------------------- *)

let test_prune_goals () =
  let enc = Symexec.encode branchy [] in
  let goals =
    Packetgen.entry_coverage_goals enc @ Packetgen.branch_coverage_goals enc
  in
  let tm = Telemetry.create () in
  Telemetry.with_registry tm (fun () ->
      let kept = Packetgen.prune_goals (Analysis.facts branchy) goals in
      (* t1 is dead: its <default> entry goal goes; so do the two dead
         branch-arm goals. *)
      check_int "three goals pruned" (List.length goals - 3) (List.length kept);
      check_int "counter recorded" 3 (Telemetry.counter tm "analysis.goals_pruned");
      check_bool "dead branch goal gone" true
        (List.for_all
           (fun (g : Packetgen.goal) ->
             g.goal_kind <> Packetgen.G_branch "branch.2.then")
           kept);
      (* custom goals survive, trace goals over dead tables do not *)
      let custom =
        Packetgen.custom_goal ~id:"explore:x" ~desc:"x" Switchv_smt.Term.tru
      in
      let trace_goal =
        { custom with
          Packetgen.goal_id = "trace:t1:x";
          goal_kind = Packetgen.G_trace "t1:<default> & other:e1" }
      in
      let kept2 =
        Packetgen.prune_goals (Analysis.facts branchy) [ custom; trace_goal ]
      in
      check_bool "custom kept, dead trace dropped" true
        (kept2 = [ custom ]))

let test_no_facts_prunes_nothing () =
  let enc = Symexec.encode branchy [] in
  let goals = Packetgen.branch_coverage_goals enc in
  let tm = Telemetry.create () in
  Telemetry.with_registry tm (fun () ->
      check_int "all kept" (List.length goals)
        (List.length (Packetgen.prune_goals Analysis.no_facts goals));
      check_int "counter materialised at 0" 0
        (Telemetry.counter tm "analysis.goals_pruned"))

(* --- diagnostics plumbing ------------------------------------------------------ *)

let test_diagnostics_module () =
  let d1 = Diagnostics.error "P4A001" ~loc:"x" "a" in
  let d2 = Diagnostics.warning "P4A002" ~loc:"y" "b" in
  let d3 = Diagnostics.info "P4A007" ~loc:"z" "c" in
  check_bool "severity order" true
    (Diagnostics.sort [ d3; d2; d1 ] = [ d1; d2; d3 ]);
  check_int "filter warning+" 2
    (List.length
       (Diagnostics.filter ~min_severity:Diagnostics.Warning [ d1; d2; d3 ]));
  check_bool "dedup keeps first" true
    (Diagnostics.dedup [ d1; d2; d1 ] = [ d1; d2 ]);
  check_bool "has_errors" true (Diagnostics.has_errors [ d3; d1 ]);
  check_bool "of_string" true
    (Diagnostics.severity_of_string "warn" = Some Diagnostics.Warning);
  check_bool "of_string unknown" true
    (Diagnostics.severity_of_string "fatal" = None)

(* identical findings surfaced through both arms of a conditional collapse
   to one reported diagnostic *)
let test_dedup_across_branch_arms () =
  let read_ttl =
    Ast.C_if
      (Ast.B_eq (Ast.E_field (Ast.field "ipv4" "ttl"), c 8 0), Ast.C_nop, Ast.C_nop)
  in
  let p =
    mk "dedup-arms"
      ~ingress:
        (Ast.C_if
           ( Ast.B_eq (Ast.E_field (Ast.field "ethernet" "ether_type"), c 16 1),
             read_ttl, read_ttl ))
  in
  let report = Analysis.run p in
  let p4a002 =
    List.filter
      (fun (d : Diagnostics.t) -> d.Diagnostics.d_code = "P4A002")
      report.r_diagnostics
  in
  check_int "one finding for both arms" 1 (List.length p4a002)

let test_sort_deterministic () =
  let w code loc msg = Diagnostics.warning code ~loc "%s" msg in
  let diags =
    [ w "P4A002" "b" "m"; w "P4A002" "a" "n"; w "P4A002" "a" "m";
      w "P4A001" "b" "m"; Diagnostics.info "P4A007" "a" ~loc:"a";
      Diagnostics.error "P4A001" "x" ~loc:"z" ]
  in
  let sorted = Diagnostics.sort diags in
  (* total key: severity desc, then loc, then code, then message — so any
     input permutation sorts identically *)
  check_bool "permutation-invariant" true
    (Diagnostics.sort (List.rev diags) = sorted);
  check_bool "error first" true
    ((List.hd sorted).Diagnostics.d_severity = Diagnostics.Error);
  let tail = List.tl sorted in
  check_bool "warnings ordered by loc, code, message" true
    (List.map (fun (d : Diagnostics.t) -> (d.Diagnostics.d_loc, d.Diagnostics.d_code, d.Diagnostics.d_message))
       (List.filteri (fun i _ -> i < 4) tail)
    = [ ("a", "P4A002", "m"); ("a", "P4A002", "n"); ("b", "P4A001", "m");
        ("b", "P4A002", "m") ])

let test_telemetry_counters () =
  let tm = Telemetry.create () in
  Telemetry.with_registry tm (fun () -> ignore (Analysis.run branchy));
  check_int "one run" 1 (Telemetry.counter tm "analysis.runs");
  (* branchy: P4A003 (error); P4A006 x2 (warning) + P4A008 for t1's
     no_action? no — dead t1 drops its actions, but no other table refs
     no_action either, so it fires too. Just check the counters exist and
     are consistent with the report. *)
  let report = Analysis.run branchy in
  check_int "error counter" (Diagnostics.count Diagnostics.Error report.r_diagnostics)
    (Telemetry.counter tm "analysis.diagnostics_error");
  check_int "warning counter"
    (Diagnostics.count Diagnostics.Warning report.r_diagnostics)
    (Telemetry.counter tm "analysis.diagnostics_warning")

(* [switchv lint -m middleblock --json]: well-formed, byte-stable, the
   taint findings present, every diagnostic with the stable field set. *)
let test_lint_json () =
  let module Jsonp = Switchv_telemetry.Jsonp in
  let program = Switchv_sai.Middleblock.program in
  let render () =
    Analysis.to_json ~min_severity:Diagnostics.Info program (Analysis.run program)
  in
  let json = render () in
  Alcotest.(check string) "byte-identical across calls" json (render ());
  match Result.map (Jsonp.member "diagnostics") (Jsonp.parse json) with
  | Error e -> Alcotest.failf "lint JSON does not parse: %s" e
  | Ok diags ->
      let diags = Option.value ~default:[] (Option.bind diags Jsonp.to_arr) in
      let field d name = Option.bind (Jsonp.member name d) Jsonp.to_str in
      check_bool "every diagnostic has code, severity, loc, message" true
        (diags <> []
        && List.for_all
             (fun d ->
               List.for_all (fun k -> field d k <> None)
                 [ "code"; "severity"; "loc"; "message" ])
             diags);
      let codes = List.filter_map (fun d -> field d "code") diags in
      check_bool "carries P4A009" true (List.mem "P4A009" codes);
      check_bool "carries P4A010" true (List.mem "P4A010" codes)

let () =
  Alcotest.run "analysis"
    [ ( "models",
        [ Alcotest.test_case "role models lint clean at error" `Quick
            test_models_error_clean ] );
      ( "codes",
        [ Alcotest.test_case "P4A001 never-valid read" `Quick test_never_valid_read;
          Alcotest.test_case "P4A001 setInvalid-then-read" `Quick
            test_set_invalid_then_read;
          Alcotest.test_case "P4A002 maybe-valid read" `Quick test_maybe_valid_read;
          Alcotest.test_case "guarded read clean" `Quick test_guarded_read_is_clean;
          Alcotest.test_case "P4A003 dead table" `Quick test_dead_table;
          Alcotest.test_case "P4A004 unsat restriction" `Quick test_unsat_restriction;
          Alcotest.test_case "P4A005 unreachable state" `Quick
            test_unreachable_parser_state;
          Alcotest.test_case "P4A006 decided branch" `Quick test_decided_branch;
          Alcotest.test_case "P4A007 unapplied table" `Quick test_unapplied_table;
          Alcotest.test_case "P4A008 unreferenced action" `Quick
            test_unreferenced_action;
          Alcotest.test_case "P4A009 tainted key" `Quick test_tainted_key;
          Alcotest.test_case "P4A009 sanitized near-miss" `Quick
            test_sanitized_key_is_clean;
          Alcotest.test_case "P4A010 tainted egress" `Quick test_tainted_egress;
          Alcotest.test_case "P4A010 sanitized near-miss" `Quick
            test_sanitized_egress_is_clean ] );
      ( "taint",
        [ Alcotest.test_case "selector source" `Quick test_selector_source;
          Alcotest.test_case "tainted branch labels" `Quick
            test_tainted_branch_labels;
          Alcotest.test_case "middleblock summary" `Quick
            test_middleblock_taint_summary;
          Alcotest.test_case "tainted.p4 fixture" `Quick test_fixture_tainted;
          Alcotest.test_case "untainted.p4 near-miss" `Quick
            test_fixture_untainted ] );
      ( "symexec agreement",
        [ Alcotest.test_case "branch labels" `Quick test_branch_labels_match_symexec ] );
      ( "pruning",
        [ Alcotest.test_case "prune goals" `Quick test_prune_goals;
          Alcotest.test_case "no facts" `Quick test_no_facts_prunes_nothing ] );
      ( "plumbing",
        [ Alcotest.test_case "diagnostics" `Quick test_diagnostics_module;
          Alcotest.test_case "dedup across branch arms" `Quick
            test_dedup_across_branch_arms;
          Alcotest.test_case "sort determinism" `Quick test_sort_deterministic;
          Alcotest.test_case "telemetry" `Quick test_telemetry_counters;
          Alcotest.test_case "lint json" `Quick test_lint_json ] ) ]
