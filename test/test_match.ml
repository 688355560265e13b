(* Differential tests for the indexed match structures and the staged
   evaluator.

   Three layers of gating (the ISSUE's satellites):
   - property-based: random entry sets over random key schemas, with
     interleaved inserts/deletes — Switchv_match.Index lookup must equal a
     linear-scan reference on every probe, with greedy shrinking of the
     operation list on mismatch;
   - the State-level index against the interpreter's own
     [ordered_entries] + [entry_matches] precedence (the retained
     linear-scan reference), plus the pinned equal-priority ternary
     tie-break regression;
   - compiled vs interpreted: the provisioned-middleblock behaviour
     cases and a 200-seed fuzz soak through both evaluators, comparing
     full behaviours (trace included), coverage-counter deltas, and
     parse-failure messages. *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng
module Index = Switchv_match.Index
module Packet = Switchv_packet.Packet
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Ast = Switchv_p4ir.Ast
module Interp = Switchv_bmv2.Interp
module Compile = Switchv_bmv2.Compile
module Middleblock = Switchv_sai.Middleblock
module Workload = Switchv_sai.Workload
module Telemetry = Switchv_telemetry.Telemetry

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* --- part 1: property-based Index vs linear reference ---------------------- *)

(* An operation log over one schema; the reference is the plain list the
   index claims to replace. *)
type op =
  | Insert of Index.mv option array * int (* mvs, priority *)
  | Delete of int                         (* drop the i-th live entry *)

type live = { l_mvs : Index.mv option array; l_prio : int; l_seq : int }

let rand_kind rng =
  match Rng.int rng 4 with
  | 0 -> Index.Exact
  | 1 -> Index.Lpm
  | 2 -> Index.Ternary
  | _ -> Index.Optional

let rand_schema rng =
  let n = 1 + Rng.int rng 3 in
  Array.init n (fun _ ->
      { Index.key_width = 2 + Rng.int rng 7; key_kind = rand_kind rng })

(* Match values are mostly kind-appropriate but sometimes arbitrary: the
   interpreter accepts any mv form on any key kind, so the index must
   too (routing odd shapes to its residual list). *)
let rand_mv rng (k : Index.key) =
  let w = k.Index.key_width in
  if Rng.int rng 10 = 0 then None
  else
    let pick =
      if Rng.int rng 10 < 7 then
        match k.Index.key_kind with
        | Index.Exact -> 0
        | Index.Lpm -> 1
        | Index.Ternary -> 2
        | Index.Optional -> 3
      else Rng.int rng 4
    in
    Some
      (match pick with
      | 0 -> Index.Mexact (Rng.bitvec rng w)
      | 1 ->
          (* canonical, as [Prefix.make] guarantees: value pre-masked *)
          let len = Rng.int rng (w + 1) in
          Index.Mlpm
            (Bitvec.logand (Rng.bitvec rng w) (Bitvec.prefix_mask ~width:w len), len)
      | 2 ->
          (* canonical, as [Ternary.make] guarantees *)
          let m = Rng.bitvec rng w in
          Index.Mternary (Bitvec.logand (Rng.bitvec rng w) m, m)
      | _ ->
          Index.Moptional
            (if Rng.int rng 4 = 0 then None else Some (Rng.bitvec rng w)))

let rand_ops rng schema =
  let n = Rng.int rng 40 in
  List.init n (fun _ ->
      if Rng.int rng 5 = 0 then Delete (Rng.int rng 1000)
      else
        Insert
          (Array.map (fun k -> rand_mv rng k) schema, Rng.int rng 4))

(* Linear-scan reference: the interpreter's (rank, seq) winner rule,
   written directly over the live list. *)
let ref_winner schema live values =
  let priority_mode =
    Array.exists
      (fun k ->
        match k.Index.key_kind with
        | Index.Ternary | Index.Optional -> true
        | _ -> false)
      schema
  in
  let matches l =
    let ok = ref true in
    Array.iteri
      (fun i mv ->
        match mv with
        | None -> ()
        | Some mv -> if not (Index.mv_matches values.(i) mv) then ok := false)
      l.l_mvs;
    !ok
  in
  let specificity l =
    let acc = ref 0 in
    Array.iteri
      (fun i mv ->
        match (schema.(i).Index.key_kind, mv) with
        | Index.Lpm, Some (Index.Mlpm (_, len)) -> acc := !acc + len
        | _ -> ())
      l.l_mvs;
    !acc
  in
  let rank l = if priority_mode then -l.l_prio else -specificity l in
  List.fold_left
    (fun best l ->
      if not (matches l) then best
      else
        match best with
        | None -> Some l
        | Some b ->
            let c = compare (rank l, l.l_seq) (rank b, b.l_seq) in
            if c < 0 then Some l else best)
    None live

(* Replay an op log, probing after every step with values derived from the
   live entries (so probes actually hit) plus uniform noise. Returns the
   step at which index and reference disagree, if any. *)
let replay schema ops =
  let ix = Index.create schema in
  let live = ref [] in
  let seq = ref 0 in
  let prng = Rng.create 0x9E3779B9 in
  let probe_of l =
    Array.mapi
      (fun i mv ->
        let w = schema.(i).Index.key_width in
        match mv with
        | Some (Index.Mexact v) -> v
        | Some (Index.Mlpm (v, len)) ->
            (* random bits under the prefix *)
            let noise = Rng.bitvec prng w in
            Bitvec.logor
              (Bitvec.logand v (Bitvec.prefix_mask ~width:w len))
              (Bitvec.logand noise
                 (Bitvec.lognot (Bitvec.prefix_mask ~width:w len)))
        | Some (Index.Mternary (v, m)) when Bitvec.width m = w ->
            Bitvec.logor (Bitvec.logand v m)
              (Bitvec.logand (Rng.bitvec prng w) (Bitvec.lognot m))
        | Some (Index.Moptional (Some v)) -> v
        | _ -> Rng.bitvec prng w)
      l.l_mvs
  in
  let disagree = ref None in
  List.iteri
    (fun step op ->
      if !disagree = None then begin
        (match op with
        | Insert (mvs, prio) ->
            let s = !seq in
            incr seq;
            Index.insert ix ~mvs ~priority:prio ~seq:s s;
            live := !live @ [ { l_mvs = mvs; l_prio = prio; l_seq = s } ]
        | Delete i -> (
            match !live with
            | [] -> ()
            | l ->
                let victim = List.nth l (i mod List.length l) in
                Index.remove ix ~mvs:victim.l_mvs ~seq:victim.l_seq;
                live := List.filter (fun x -> x.l_seq <> victim.l_seq) l));
        let probes =
          List.concat_map (fun l -> [ probe_of l ]) !live
          @ List.init 3 (fun _ ->
                Array.map
                  (fun k -> Rng.bitvec prng k.Index.key_width)
                  schema)
        in
        List.iter
          (fun values ->
            let want =
              Option.map (fun l -> l.l_seq) (ref_winner schema !live values)
            in
            let got = Index.lookup ix values in
            if want <> got then disagree := Some (step, values, want, got))
          probes
      end)
    ops;
  !disagree

let pp_mv fmt = function
  | Index.Mexact v -> Format.fprintf fmt "exact %s" (Bitvec.to_hex_string v)
  | Index.Mlpm (v, l) -> Format.fprintf fmt "lpm %s/%d" (Bitvec.to_hex_string v) l
  | Index.Mternary (v, m) ->
      Format.fprintf fmt "tern %s &%s" (Bitvec.to_hex_string v) (Bitvec.to_hex_string m)
  | Index.Moptional None -> Format.fprintf fmt "opt *"
  | Index.Moptional (Some v) -> Format.fprintf fmt "opt %s" (Bitvec.to_hex_string v)

let pp_op fmt = function
  | Insert (mvs, p) ->
      Format.fprintf fmt "insert p%d [%a]" p
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           (fun fmt -> function
             | None -> Format.pp_print_string fmt "_"
             | Some mv -> pp_mv fmt mv))
        (Array.to_list mvs)
  | Delete i -> Format.fprintf fmt "delete %d" i

(* Greedy shrink: repeatedly try dropping each op while the replay still
   disagrees — qgen's strategy, specialised to op lists. *)
let shrink_ops schema ops =
  let fails ops = replay schema ops <> None in
  let rec pass ops =
    let shrunk = ref None in
    let n = List.length ops in
    let without i = List.filteri (fun j _ -> j <> i) ops in
    (try
       for i = 0 to n - 1 do
         let cand = without i in
         if fails cand then begin
           shrunk := Some cand;
           raise Exit
         end
       done
     with Exit -> ());
    match !shrunk with Some ops' -> pass ops' | None -> ops
  in
  pass ops

let test_index_differential () =
  for seed = 0 to 149 do
    let rng = Rng.create (0xD1FF + seed) in
    let schema = rand_schema rng in
    let ops = rand_ops rng schema in
    match replay schema ops with
    | None -> ()
    | Some _ ->
        let ops = shrink_ops schema ops in
        let step, values, want, got =
          match replay schema ops with Some d -> d | None -> assert false
        in
        Alcotest.failf
          "seed %d: index disagrees with linear reference at step %d on \
           probe [%s]: want %s, got %s; shrunk ops:@.%a"
          seed step
          (String.concat "; "
             (Array.to_list (Array.map Bitvec.to_hex_string values)))
          (match want with None -> "miss" | Some s -> "seq " ^ string_of_int s)
          (match got with None -> "miss" | Some s -> "seq " ^ string_of_int s)
          (Format.pp_print_list pp_op)
          ops
  done

(* --- part 2: State.index_lookup vs Interp.ordered_entries ------------------ *)

let bv w n = Bitvec.of_int ~width:w n
let fm field value = { Entry.fm_field = field; fm_value = value }
let noop = Entry.Single { ai_name = "noop"; ai_args = [] }

let mk_table name keys =
  { Ast.t_name = name;
    t_id = 1;
    t_keys =
      List.mapi
        (fun i (kind, _w) ->
          { Ast.k_name = "k" ^ string_of_int i;
            k_expr = Ast.E_const (Bitvec.zero 1);
            k_kind = kind;
            k_refers_to = None })
        keys;
    t_actions = [ "noop" ];
    t_default_action = ("noop", []);
    t_size = 1024;
    t_entry_restriction = None;
    t_selector = false }

let specs_of keys =
  Array.of_list
    (List.mapi
       (fun i (kind, w) ->
         { State.ks_name = "k" ^ string_of_int i;
           ks_width = w;
           ks_kind =
             (match kind with
             | Ast.Exact -> Index.Exact
             | Ast.Lpm -> Index.Lpm
             | Ast.Ternary -> Index.Ternary
             | Ast.Optional -> Index.Optional) })
       keys)

(* The retained linear-scan reference: precedence-sorted scan, first
   match wins (what the interpreter executes). *)
let scan_winner table st values_assoc =
  List.find_opt
    (Interp.entry_matches table values_assoc)
    (Interp.ordered_entries table (State.entries_of st table.Ast.t_name))

let check_entry_opt msg want got =
  let eq = match (want, got) with
    | None, None -> true
    | Some a, Some b -> Entry.equal a b
    | _ -> false
  in
  if not eq then
    Alcotest.failf "%s: scan says %s, index says %s" msg
      (match want with None -> "miss" | Some e -> Format.asprintf "%a" Entry.pp e)
      (match got with None -> "miss" | Some e -> Format.asprintf "%a" Entry.pp e)

let test_state_index_differential () =
  let keys = [ (Ast.Exact, 8); (Ast.Lpm, 8) ] in
  let table = mk_table "t" keys in
  let specs = specs_of keys in
  let st = State.create () in
  let rng = Rng.create 0xAB1E in
  let mk_entry i =
    let vrf = Rng.int rng 4 in
    let len = Rng.int rng 9 in
    Entry.make ~table:"t"
      ~matches:
        ([ fm "k0" (Entry.M_exact (bv 8 vrf)) ]
        @
        if i mod 7 = 0 then []
        else [ fm "k1" (Entry.M_lpm (Prefix.make (Rng.bitvec rng 8) len)) ])
      noop
  in
  let probe () =
    let values = [| bv 8 (Rng.int rng 4); Rng.bitvec rng 8 |] in
    let assoc = [ ("k0", values.(0)); ("k1", values.(1)) ] in
    check_entry_opt "exact+lpm table"
      (scan_winner table st assoc)
      (State.index_lookup st ~table:"t" ~keys:specs values)
  in
  let inserted = ref [] in
  for i = 0 to 199 do
    let e = mk_entry i in
    (match State.insert st e with
    | Ok () -> inserted := e :: !inserted
    | Error _ -> ());
    (* interleaved deletes keep the incremental maintenance honest *)
    if i mod 11 = 10 then begin
      match !inserted with
      | victim :: rest when Rng.int rng 2 = 0 ->
          (match State.delete st victim with Ok () -> inserted := rest | Error _ -> ())
      | _ -> ()
    end;
    for _ = 0 to 3 do probe () done
  done

let test_ternary_tiebreak_pinned () =
  (* Two overlapping ternary entries at the same priority: the documented
     tie-break is insertion order, so A (first installed) wins; after
     deleting and re-inserting A, B has the earlier seq and wins. *)
  let keys = [ (Ast.Ternary, 8) ] in
  let table = mk_table "acl" keys in
  let specs = specs_of keys in
  let st = State.create () in
  let entry v m =
    Entry.make ~table:"acl" ~priority:5
      ~matches:[ fm "k0" (Entry.M_ternary (Ternary.make ~value:(bv 8 v) ~mask:(bv 8 m))) ]
      noop
  in
  let a = entry 0x10 0xF0 and b = entry 0x01 0x0F in
  check_bool "insert a" true (State.insert st a = Ok ());
  check_bool "insert b" true (State.insert st b = Ok ());
  let probe = [| bv 8 0x11 |] in
  let assoc = [ ("k0", probe.(0)) ] in
  let won = State.index_lookup st ~table:"acl" ~keys:specs probe in
  check_entry_opt "tie-break" (scan_winner table st assoc) won;
  check_bool "first-inserted wins the equal-priority tie" true
    (match won with Some e -> Entry.equal_key e a | None -> false);
  (* rotate: delete + re-insert A; insertion order now favours B *)
  check_bool "delete a" true (State.delete st a = Ok ());
  check_bool "re-insert a" true (State.insert st a = Ok ());
  let won = State.index_lookup st ~table:"acl" ~keys:specs probe in
  check_entry_opt "tie-break after rotate" (scan_winner table st assoc) won;
  check_bool "re-inserted entry moved to the back of the tie" true
    (match won with Some e -> Entry.equal_key e b | None -> false)

(* --- part 3: compiled vs interpreted --------------------------------------- *)

let provisioned () =
  let s = State.create () in
  let add e = ignore (State.insert s e) in
  let bv16 = Bitvec.of_int ~width:16 in
  add (Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)) ]
         (Entry.Single { ai_name = "no_action"; ai_args = [] }));
  add (Entry.make ~table:"router_interface_table"
         ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 1)) ]
         (Entry.Single
            { ai_name = "set_port_and_src_mac";
              ai_args = [ bv16 7; Packet.mac_of_string "02:00:00:00:bb:01" ] }));
  add (Entry.make ~table:"neighbor_table"
         ~matches:
           [ fm "router_interface_id" (Entry.M_exact (bv16 1));
             fm "neighbor_id" (Entry.M_exact (bv16 1)) ]
         (Entry.Single
            { ai_name = "set_dst_mac";
              ai_args = [ Packet.mac_of_string "02:00:00:00:cc:01" ] }));
  add (Entry.make ~table:"nexthop_table" ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 1)) ]
         (Entry.Single { ai_name = "set_ip_nexthop"; ai_args = [ bv16 1; bv16 1 ] }));
  add (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
         ~matches:[ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
         (Entry.Single { ai_name = "set_vrf"; ai_args = [ bv16 1 ] }));
  add (Entry.make ~table:"l3_admit_table" ~priority:1
         ~matches:
           [ fm "dst_mac"
               (Entry.M_ternary (Ternary.exact (Packet.mac_of_string "02:00:00:00:aa:01"))) ]
         (Entry.Single { ai_name = "l3_admit"; ai_args = [] }));
  add (Entry.make ~table:"ipv4_table"
         ~matches:
           [ fm "vrf_id" (Entry.M_exact (bv16 1));
             fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.1.0.0/16")) ]
         (Entry.Single { ai_name = "set_nexthop_id"; ai_args = [ bv16 1 ] }));
  s

let packet ?(dst_mac = "02:00:00:00:aa:01") ?(ttl = 64) ~dst () =
  Packet.to_bytes
    { Packet.headers =
        [ Packet.ethernet_frame ~dst:dst_mac ~ether_type:0x0800 ();
          Packet.ipv4_header ~ttl ~src:"192.0.2.1" ~dst ();
          Packet.udp_header ~src_port:1000 ~dst_port:2000 () ];
      payload = "xyz" }

type outcome =
  | B of Interp.behavior * (string * int) list  (* behavior + cov counters *)
  | Fail of string

(* Run one evaluator under a scratch registry; capture everything that
   must agree: the full behavior record (trace included — stricter than
   [behavior_equal]) and every emitted counter. *)
let observe run cfg ~ingress_port bytes =
  let scratch = Telemetry.create () in
  let res =
    Telemetry.with_registry scratch (fun () ->
        match run cfg ~ingress_port bytes with
        | b -> B (b, [])
        | exception Interp.Parse_failure m -> Fail m)
  in
  match res with
  | B (b, _) -> B (b, (Telemetry.export scratch).Telemetry.ex_counters)
  | f -> f

(* Both evaluators go through the same entry points; only the pipeline
   (the AST walk or the staged closures) differs. *)
let check_same_outcome msg cfg ~ingress_port bytes =
  let i = observe (Interp.run_with Interp.walk) cfg ~ingress_port bytes in
  let c = observe (Interp.run_with Compile.stage) cfg ~ingress_port bytes in
  match (i, c) with
  | B (bi, ci), B (bc, cc) ->
      if bi <> bc then
        Alcotest.failf "%s: behaviors differ:@.interp %a@.compiled %a" msg
          Interp.pp_behavior bi Interp.pp_behavior bc;
      if ci <> cc then
        Alcotest.failf "%s: coverage counters differ (interp %d keys, compiled %d keys)"
          msg (List.length ci) (List.length cc)
  | Fail a, Fail b ->
      Alcotest.check Alcotest.string (msg ^ ": parse-failure message") a b
  | Fail m, B _ ->
      Alcotest.failf "%s: interp failed (%s) but compiled succeeded" msg m
  | B _, Fail m ->
      Alcotest.failf "%s: compiled failed (%s) but interp succeeded" msg m

let mb_cfg state =
  { Interp.program = Middleblock.program; state; hash_mode = Interp.Seeded 5; mirror_map = [] }

let test_compiled_behavior_cases () =
  let cfg = mb_cfg (provisioned ()) in
  let cases =
    [ ("forward", packet ~dst:"10.1.2.3" ());
      ("route miss", packet ~dst:"99.1.2.3" ());
      ("not admitted", packet ~dst_mac:"02:00:00:00:00:99" ~dst:"10.1.2.3" ());
      ("ttl expiry", packet ~ttl:1 ~dst:"10.1.2.3" ());
      ("ttl 2", packet ~ttl:2 ~dst:"10.1.2.3" ());
      ("truncated", "\x00\x01");
      ("empty", "") ]
  in
  List.iter
    (fun (msg, bytes) -> check_same_outcome msg cfg ~ingress_port:1 bytes)
    cases;
  (* behavior-set enumeration must agree too (hash-round dispatch) *)
  let bytes = packet ~dst:"10.1.2.3" () in
  let set eval =
    Interp.behavior_set cfg (fun cfg -> Interp.run_with eval cfg ~ingress_port:1 bytes)
  in
  check_bool "enumerated behavior sets equal" true (set Interp.walk = set Compile.stage);
  let ii = Interp.run_info_with Interp.walk cfg ~ingress_port:1 bytes in
  let ic = Interp.run_info_with Compile.stage cfg ~ingress_port:1 bytes in
  check_int "hash calls" ii.Interp.ri_hash_calls ic.Interp.ri_hash_calls;
  check_bool "valid headers at deparse" true (ii.Interp.ri_valid = ic.Interp.ri_valid)

let test_compiled_fuzz_soak () =
  (* 200 seeds: workload-provisioned state, a structured packet with
     randomised fields, and a raw random byte string per seed. *)
  for seed = 0 to 199 do
    let rng = Rng.create (0x50AC + seed) in
    let state = State.create () in
    List.iter
      (fun e -> ignore (State.insert state e))
      (Workload.generate ~seed:(1 + (seed mod 5)) Middleblock.program
         (Workload.scaled 0.3 Workload.small));
    let cfg =
      { Interp.program = Middleblock.program;
        state;
        hash_mode = Interp.Seeded seed;
        mirror_map = [ (1, 30) ] }
    in
    let dst =
      Printf.sprintf "%d.%d.%d.%d" (Rng.int rng 256) (Rng.int rng 256)
        (Rng.int rng 256) (Rng.int rng 256)
    in
    let dst_mac =
      if Rng.int rng 2 = 0 then "02:00:00:00:aa:01"
      else Printf.sprintf "02:00:00:00:aa:%02x" (Rng.int rng 256)
    in
    let structured = packet ~dst_mac ~ttl:(Rng.int rng 256) ~dst () in
    let raw = String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256)) in
    let port = 1 + Rng.int rng 4 in
    check_same_outcome (Printf.sprintf "soak %d structured" seed) cfg
      ~ingress_port:port structured;
    check_same_outcome (Printf.sprintf "soak %d raw" seed) cfg
      ~ingress_port:port raw
  done

let test_compiled_packet_out () =
  let cfg = mb_cfg (provisioned ()) in
  let po = { Packet.headers = [ Packet.ethernet_frame ~dst:"02:00:00:00:aa:01" ~ether_type:0x0800 ();
                                Packet.ipv4_header ~ttl:9 ~src:"192.0.2.9" ~dst:"10.1.9.9" ();
                                Packet.udp_header ~src_port:7 ~dst_port:8 () ];
             payload = "po" }
  in
  List.iter
    (fun egress_port ->
      let set eval =
        Interp.behavior_set cfg (fun cfg ->
            Interp.run_packet_out_with eval cfg ~egress_port po)
      in
      check_bool "packet-out behavior sets equal" true
        (set Interp.walk = set Compile.stage))
    [ Some 3; None ]

let () =
  Alcotest.run "match"
    [ ( "index",
        [ Alcotest.test_case "differential vs linear scan (150 seeds)" `Quick
            test_index_differential;
          Alcotest.test_case "state-level differential" `Quick
            test_state_index_differential;
          Alcotest.test_case "equal-priority ternary tie-break" `Quick
            test_ternary_tiebreak_pinned ] );
      ( "compiled",
        [ Alcotest.test_case "behavior cases" `Quick test_compiled_behavior_cases;
          Alcotest.test_case "fuzz soak (200 seeds)" `Quick test_compiled_fuzz_soak;
          Alcotest.test_case "packet-out" `Quick test_compiled_packet_out ] ) ]
