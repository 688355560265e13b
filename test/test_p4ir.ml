(* Tests for the P4 IR: the type checker, P4Info derivation, and the
   pretty printer over the SAI role models. *)

module Ast = Switchv_p4ir.Ast
module Typecheck = Switchv_p4ir.Typecheck
module P4info = Switchv_p4ir.P4info
module Pretty = Switchv_p4ir.Pretty
module Bitvec = Switchv_bitvec.Bitvec
module Header = Switchv_packet.Header
module Figure2 = Switchv_sai.Figure2
module Middleblock = Switchv_sai.Middleblock
module Wan = Switchv_sai.Wan
module Tor = Switchv_sai.Tor
module Cerberus = Switchv_sai.Cerberus

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

let all_programs =
  [ Figure2.program; Middleblock.program; Wan.program; Tor.program;
    Cerberus.program ]

(* --- typechecking --------------------------------------------------------- *)

let test_models_typecheck () =
  List.iter
    (fun (p : Ast.program) ->
      match Typecheck.check p with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s does not typecheck: %s" p.p_name (String.concat "; " msgs))
    all_programs

let base = Figure2.program

let expect_errors label program =
  match Typecheck.check program with
  | Ok () -> Alcotest.failf "%s should not typecheck" label
  | Error _ -> ()

let test_detects_unknown_table () =
  expect_errors "unknown table in pipeline"
    { base with p_ingress = Ast.C_table "ghost_table" }

let test_detects_table_revisit () =
  (* Applying the same table twice violates the fixed-function restriction
     the paper calls out in §3. *)
  expect_errors "table applied twice"
    { base with
      p_ingress = Ast.C_seq (Ast.C_table "vrf_table", Ast.C_table "vrf_table") }

let test_detects_width_mismatch () =
  expect_errors "assignment width mismatch"
    { base with
      p_ingress =
        Ast.C_stmt
          (Ast.S_assign (Ast.meta "vrf_id", Ast.E_const (Bitvec.of_int ~width:8 1))) }

let test_detects_bad_refers_to () =
  let bad_action =
    { Ast.a_name = "bad";
      a_params = [ Ast.param ~refers_to:("no_such_table", "k") "x" 16 ];
      a_body = [] }
  in
  expect_errors "dangling @refers_to"
    { base with p_actions = bad_action :: base.p_actions }

let test_detects_bad_default_action () =
  let tables =
    List.map
      (fun (t : Ast.table) ->
        if t.t_name = "vrf_table" then { t with t_default_action = ("drop", []) }
        else t)
      base.p_tables
  in
  expect_errors "default action not in table's action list" { base with p_tables = tables }

let test_detects_duplicate_ids () =
  let tables =
    List.map (fun (t : Ast.table) -> { t with Ast.t_id = 1 }) base.p_tables
  in
  expect_errors "duplicate table ids" { base with p_tables = tables }

let test_detects_unknown_parser_state () =
  let parser =
    { Ast.start = "start";
      states =
        [ { Ast.ps_name = "start";
            ps_extract = Some "ethernet";
            ps_next = Ast.T_select (Ast.E_field (Ast.field "ethernet" "ether_type"), [], "ghost") } ] }
  in
  expect_errors "transition to unknown state" { base with p_parser = parser }

(* Zero widths parse, but no evaluator can hold a zero-width value: the
   typechecker is the gate that keeps them from Compile and Symexec. *)
let test_detects_zero_width_field () =
  expect_errors "bit<0> header field"
    { base with p_headers = Header.make "pad" [ ("x", 0) ] :: base.p_headers };
  expect_errors "bit<0> metadata field"
    { base with p_metadata = ("pad", 0) :: base.p_metadata }

let test_detects_select_label_width () =
  (* 7w0x00 against the 16-bit ether_type: Symexec would raise on the
     width mismatch. *)
  let parser =
    { Ast.start = "start";
      states =
        [ { Ast.ps_name = "start";
            ps_extract = Some "ethernet";
            ps_next =
              Ast.T_select
                ( Ast.E_field (Ast.field "ethernet" "ether_type"),
                  [ (Bitvec.of_int ~width:7 0, "accept") ],
                  "accept" ) } ] }
  in
  expect_errors "select label narrower than its key" { base with p_parser = parser }

let expect_error label msg program =
  match Typecheck.check program with
  | Ok () -> Alcotest.failf "%s should not typecheck" label
  | Error msgs -> check_bool label true (List.mem msg msgs)

(* Packets are bytes: packet generation and the deparser must turn each
   header into whole bytes. *)
let test_detects_unaligned_header () =
  expect_error "58-bit source address" "header eth58 has width 122, not a whole number of bytes"
    { base with
      p_headers = Header.make "eth58" [ ("dst", 48); ("src", 58); ("type", 16) ] :: base.p_headers };
  expect_error "4-bit header" "header tag has width 4, not a whole number of bytes"
    { base with p_headers = Header.make "tag" [ ("id", 4) ] :: base.p_headers }

(* Fields are found by name: with two of one name, packet building and
   the evaluators can each pick a different one, of another width. *)
let test_detects_duplicate_header_field () =
  expect_error "ihl declared twice" "duplicate header ip field: ihl"
    { base with
      p_headers =
        Header.make "ip" [ ("version", 4); ("ihl", 4); ("ihl", 8); ("ttl", 8) ] :: base.p_headers }

let test_error_accumulation () =
  (* All problems are reported, not just the first. *)
  let program =
    { base with
      p_ingress =
        Ast.C_seq (Ast.C_table "ghost_a", Ast.C_table "ghost_b") }
  in
  match Typecheck.check program with
  | Ok () -> Alcotest.fail "should not typecheck"
  | Error msgs -> check_bool "both errors reported" true (List.length msgs >= 2)

let test_error_dedup () =
  (* The same unknown field referenced twice in the same pipeline used to
     yield the identical message twice; now each problem is reported once,
     in first-occurrence order. *)
  let bad = Ast.C_stmt (Ast.S_assign (Ast.meta "ghost", Ast.E_const (Bitvec.of_int ~width:16 1))) in
  let program = { base with p_ingress = Ast.C_seq (bad, bad) } in
  match Typecheck.check program with
  | Ok () -> Alcotest.fail "should not typecheck"
  | Error msgs ->
      check_int "duplicate collapsed" (List.length (List.sort_uniq compare msgs))
        (List.length msgs)

(* --- lookups ---------------------------------------------------------------- *)

let test_field_width () =
  check_int "header field" 32 (Ast.field_width base (Ast.field "ipv4" "dst_addr"));
  check_int "metadata field" 16 (Ast.field_width base (Ast.meta "vrf_id"));
  check_int "standard metadata" 1 (Ast.field_width base (Ast.std "drop"));
  Alcotest.check_raises "unknown raises" Not_found (fun () ->
      ignore (Ast.field_width base (Ast.field "ipv4" "nope")))

let test_field_ref_strings () =
  let fr = Ast.field "ipv4" "ttl" in
  check_string "to_string" "ipv4.ttl" (Ast.field_ref_to_string fr);
  check_bool "roundtrip" true (Ast.field_ref_of_string "ipv4.ttl" = fr);
  (* The split is at the FIRST dot, so dotted field names round-trip
     (mirror of the ':' goal-id parsing bug). *)
  let dotted = Ast.field "tunnel" "inner.ttl" in
  check_bool "dotted field roundtrip" true
    (Ast.field_ref_of_string (Ast.field_ref_to_string dotted) = dotted);
  check_bool "first-dot split" true
    (Ast.field_ref_of_string "a.b.c" = Ast.field "a" "b.c");
  let rejects s =
    match Ast.field_ref_of_string s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "field_ref_of_string %S should raise" s
  in
  rejects "nodot";
  rejects ".field";
  rejects "header.";
  rejects "."

let test_tables_in_control () =
  let tables = Ast.tables_in_control base.p_ingress in
  check_bool "all three tables applied" true
    (tables = [ "acl_pre_ingress_table"; "vrf_table"; "ipv4_table" ])

(* --- P4Info ------------------------------------------------------------------ *)

let test_p4info_structure () =
  let info = Middleblock.info in
  check_int "13 tables" 13 (List.length info.pi_tables);
  let ipv4 = Option.get (P4info.find_table info "ipv4_table") in
  check_int "two match fields" 2 (List.length ipv4.ti_match_fields);
  let vrf_key = Option.get (P4info.find_match_field ipv4 "vrf_id") in
  check_bool "vrf key refers to vrf_table" true
    (vrf_key.mf_refers_to = Some ("vrf_table", "vrf_id"));
  check_bool "lpm kind" true
    ((Option.get (P4info.find_match_field ipv4 "ipv4_dst")).mf_kind = Ast.Lpm);
  check_bool "route tables need no priority" false (P4info.requires_priority ipv4);
  let acl = Option.get (P4info.find_table info "acl_ingress_table") in
  check_bool "acl needs priority" true (P4info.requires_priority acl);
  check_bool "wcmp is a selector" true
    ((Option.get (P4info.find_table info "wcmp_group_table")).ti_selector);
  check_bool "vrf table has a restriction" true
    ((Option.get (P4info.find_table info "vrf_table")).ti_restriction <> None)

let test_p4info_digest_stable () =
  let d1 = P4info.digest Middleblock.info in
  let d2 = P4info.digest (P4info.of_program Middleblock.program) in
  check_string "digest deterministic" d1 d2;
  check_bool "distinct programs have distinct digests" true
    (d1 <> P4info.digest Wan.info)

let test_find_by_id () =
  let info = Middleblock.info in
  check_bool "id lookup" true
    ((Option.get (P4info.find_table_by_id info 4)).ti_name = "ipv4_table")

(* --- role instantiations -------------------------------------------------------- *)

let test_roles_share_blueprint () =
  (* Same component library, role-specific ACL keys (§3). *)
  let tables p = List.map (fun (t : Ast.table) -> t.Ast.t_name) p.Ast.p_tables in
  check_bool "middleblock and tor have the same tables" true
    (tables Middleblock.program = tables Tor.program);
  let acl p = Ast.find_table_exn p "acl_ingress_table" in
  let keys t = List.map (fun (k : Ast.key) -> k.Ast.k_name) t.Ast.t_keys in
  check_bool "but different ACL key sets" true
    (keys (acl Middleblock.program) <> keys (acl Tor.program));
  check_bool "wan adds tunnel table" true
    (Ast.find_table Wan.program "tunnel_table" <> None);
  check_bool "middleblock has no tunnel table" true
    (Ast.find_table Middleblock.program "tunnel_table" = None);
  check_bool "cerberus has decap" true
    (Ast.find_table Cerberus.program "decap_table" <> None)

(* --- pretty printing -------------------------------------------------------------- *)

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let test_pretty_output () =
  let text = Pretty.program_to_string Figure2.program in
  List.iter
    (fun fragment ->
      check_bool (Printf.sprintf "output mentions %S" fragment) true
        (contains text fragment))
    [ "@entry_restriction(\"vrf_id != 0\")"; "table vrf_table";
      "@refers_to(vrf_table, vrf_id)"; "ipv4.dst_addr : lpm";
      "const default_action = drop()"; "if (headers.ipv4.isValid())" ]

(* --- textual frontend ----------------------------------------------------------- *)

module P4parser = Switchv_p4ir.P4parser

let normalize (q : Ast.program) =
  { q with
    p_ingress = Ast.normalize_control q.p_ingress;
    p_egress = Ast.normalize_control q.p_egress }

let test_parser_roundtrip () =
  List.iter
    (fun (p : Ast.program) ->
      match P4parser.roundtrip p with
      | Error msg -> Alcotest.failf "%s does not re-parse: %s" p.p_name msg
      | Ok p' ->
          check_bool (p.p_name ^ " roundtrips structurally") true
            (normalize p' = normalize p);
          check_string (p.p_name ^ " p4info digest stable")
            (P4info.digest (P4info.of_program p))
            (P4info.digest (P4info.of_program p')))
    all_programs

let test_parser_handwritten () =
  let source =
    {|
    // a tiny handwritten model
    header ethernet_t { bit<48> dst_addr; bit<48> src_addr; bit<16> ether_type; }
    struct metadata_t { bit<16> tag; }
    parser (start = start) {
      state start { packet.extract(headers.ethernet); transition accept; }
    }
    action set_tag(bit<16> tag) { meta.tag = tag; std.egress_port = tag; }
    action drop() { std.drop = 1w0x1; }
    @entry_restriction("tag != 0")
    @id(7)
    table tag_table {
      key = { meta.tag : exact @name("tag"); }
      actions = { set_tag; drop }
      const default_action = drop();
      size = 32;
    }
    control ingress {
      meta.tag = ethernet.ether_type[15:0];
      if (ethernet.ether_type == 16w0x800) { tag_table.apply(); }
    }
    control egress { }
  |}
  in
  match P4parser.parse ~name:"tiny" source with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
      (match Typecheck.check p with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "typecheck failed: %s" (String.concat "; " msgs));
      check_int "one table" 1 (List.length p.p_tables);
      let t = List.hd p.p_tables in
      check_int "table id from @id" 7 t.t_id;
      check_bool "restriction parsed" true (t.t_entry_restriction <> None);
      check_int "two actions" 2 (List.length p.p_actions)

let test_parser_errors () =
  let bad source =
    check_bool ("rejects " ^ source) true
      (P4parser.parse ~name:"bad" source |> Result.is_error)
  in
  bad "table t {";
  bad "header h_t { bit<8 f; }";
  bad "action a() { x; }";
  bad "control ingress { foo.bar(); }";
  bad "@unknown(3) table t { }"

let test_parser_empty_header () =
  check_bool "header without fields is an error" true
    (P4parser.parse ~name:"bad" "header h_t { }" |> Result.is_error)

let test_parser_zero_width_literal () =
  List.iter
    (fun source ->
      check_bool ("rejects " ^ source) true
        (P4parser.parse ~name:"bad" source |> Result.is_error))
    [ "control ingress { meta.x = 0w0x1; }";
      "control ingress { meta.x = 0w1; }";
      "control ingress { meta.x = 16w99999999999999999999; }" ]

let () =
  Alcotest.run "p4ir"
    [ ("typecheck",
       [ Alcotest.test_case "all models typecheck" `Quick test_models_typecheck;
         Alcotest.test_case "unknown table" `Quick test_detects_unknown_table;
         Alcotest.test_case "table revisit" `Quick test_detects_table_revisit;
         Alcotest.test_case "width mismatch" `Quick test_detects_width_mismatch;
         Alcotest.test_case "bad refers_to" `Quick test_detects_bad_refers_to;
         Alcotest.test_case "bad default action" `Quick test_detects_bad_default_action;
         Alcotest.test_case "duplicate ids" `Quick test_detects_duplicate_ids;
         Alcotest.test_case "unknown parser state" `Quick test_detects_unknown_parser_state;
         Alcotest.test_case "zero-width field" `Quick test_detects_zero_width_field;
         Alcotest.test_case "select label width" `Quick test_detects_select_label_width;
         Alcotest.test_case "unaligned header" `Quick test_detects_unaligned_header;
         Alcotest.test_case "duplicate header field" `Quick test_detects_duplicate_header_field;
         Alcotest.test_case "error accumulation" `Quick test_error_accumulation;
         Alcotest.test_case "error dedup" `Quick test_error_dedup ]);
      ("lookups",
       [ Alcotest.test_case "field widths" `Quick test_field_width;
         Alcotest.test_case "field ref strings" `Quick test_field_ref_strings;
         Alcotest.test_case "tables in control" `Quick test_tables_in_control ]);
      ("p4info",
       [ Alcotest.test_case "structure" `Quick test_p4info_structure;
         Alcotest.test_case "digest" `Quick test_p4info_digest_stable;
         Alcotest.test_case "find by id" `Quick test_find_by_id ]);
      ("roles", [ Alcotest.test_case "blueprint sharing" `Quick test_roles_share_blueprint ]);
      ("pretty", [ Alcotest.test_case "p4-like output" `Quick test_pretty_output ]);
      ("frontend",
       [ Alcotest.test_case "pretty-parse roundtrip" `Quick test_parser_roundtrip;
         Alcotest.test_case "handwritten source" `Quick test_parser_handwritten;
         Alcotest.test_case "syntax errors" `Quick test_parser_errors;
         Alcotest.test_case "empty header" `Quick test_parser_empty_header;
         Alcotest.test_case "zero-width literal" `Quick test_parser_zero_width_literal ]) ]
