(* Tests for the P4Runtime substrate: entries, state, and validation
   (syntactic validity, constraint compliance, referential integrity) —
   §4 "Valid and Invalid Requests". *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State
module Status = Switchv_p4runtime.Status
module Validate = Switchv_p4runtime.Validate
module Request = Switchv_p4runtime.Request
module P4info = Switchv_p4ir.P4info
module Figure2 = Switchv_sai.Figure2
module Middleblock = Switchv_sai.Middleblock
module Ast = Switchv_p4ir.Ast
module Rng = Switchv_bitvec.Rng

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let info = Figure2.info
let mb = Middleblock.info

let bv16 = Bitvec.of_int ~width:16
let fm field value = { Entry.fm_field = field; fm_value = value }
let single name args = Entry.Single { ai_name = name; ai_args = args }

let vrf n =
  Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 n)) ]
    (single "no_action" [])

let route ?(vrf = 1) ?(prefix = "10.0.0.0/8") ?(nexthop = 3) () =
  Entry.make ~table:"ipv4_table"
    ~matches:
      [ fm "vrf_id" (Entry.M_exact (bv16 vrf));
        fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string prefix)) ]
    (single "set_nexthop_id" [ bv16 nexthop ])

(* --- entry identity -------------------------------------------------------- *)

let test_match_key_order_insensitive () =
  let a =
    Entry.make ~table:"t"
      ~matches:[ fm "x" (Entry.M_exact (bv16 1)); fm "y" (Entry.M_exact (bv16 2)) ]
      (single "a" [])
  in
  let b =
    Entry.make ~table:"t"
      ~matches:[ fm "y" (Entry.M_exact (bv16 2)); fm "x" (Entry.M_exact (bv16 1)) ]
      (single "b" [])
  in
  check_bool "same key regardless of order and action" true (Entry.equal_key a b);
  check_bool "not fully equal (actions differ)" false (Entry.equal a b)

let test_priority_in_key () =
  let a = Entry.make ~priority:1 ~table:"t" ~matches:[] (single "a" []) in
  let b = Entry.make ~priority:2 ~table:"t" ~matches:[] (single "a" []) in
  check_bool "different priorities are different entries" false (Entry.equal_key a b)

(* --- state ------------------------------------------------------------------ *)

let test_state_insert_delete () =
  let s = State.create () in
  check_bool "insert" true (State.insert s (vrf 1) |> Result.is_ok);
  check_bool "duplicate insert rejected" true
    (match State.insert s (vrf 1) with
    | Error e -> e.Status.code = Status.Already_exists
    | Ok () -> false);
  check_int "count" 1 (State.count s "vrf_table");
  check_bool "delete" true (State.delete s (vrf 1) |> Result.is_ok);
  check_bool "delete again fails" true
    (match State.delete s (vrf 1) with
    | Error e -> e.Status.code = Status.Not_found
    | Ok () -> false)

let test_state_modify () =
  let s = State.create () in
  ignore (State.insert s (route ~nexthop:3 ()));
  check_bool "modify existing" true (State.modify s (route ~nexthop:7 ()) |> Result.is_ok);
  (match State.find s (route ()) with
  | Some e ->
      check_bool "action updated" true
        (match e.e_action with
        | Entry.Single { ai_args = [ v ]; _ } -> Bitvec.to_int_exn v = 7
        | _ -> false)
  | None -> Alcotest.fail "entry vanished");
  check_bool "modify missing fails" true
    (State.modify s (route ~prefix:"11.0.0.0/8" ()) |> Result.is_error)

let test_state_insertion_order () =
  let s = State.create () in
  ignore (State.insert s (route ~prefix:"10.0.0.0/8" ()));
  ignore (State.insert s (route ~prefix:"10.1.0.0/16" ()));
  ignore (State.insert s (route ~prefix:"10.2.0.0/16" ()));
  let prefixes =
    List.map
      (fun (e : Entry.t) ->
        match Entry.find_match e "ipv4_dst" with
        | Some (Entry.M_lpm p) -> Prefix.to_ipv4_string p
        | _ -> "?")
      (State.entries_of s "ipv4_table")
  in
  check_bool "insertion order preserved" true
    (prefixes = [ "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16" ])

let test_state_references () =
  let s = State.create () in
  ignore (State.insert s (vrf 1));
  ignore (State.insert s (route ~vrf:1 ()));
  check_bool "vrf 1 exists" true (State.exists_value s ~table:"vrf_table" ~key:"vrf_id" (bv16 1));
  check_bool "vrf 2 does not" false
    (State.exists_value s ~table:"vrf_table" ~key:"vrf_id" (bv16 2));
  check_bool "vrf 1 is referenced by the route" true
    (State.is_referenced s info (vrf 1));
  ignore (State.delete s (route ~vrf:1 ()));
  check_bool "unreferenced after route removal" false (State.is_referenced s info (vrf 1))

let test_state_equal_diff () =
  let a = State.create () and b = State.create () in
  ignore (State.insert a (vrf 1));
  ignore (State.insert b (vrf 1));
  check_bool "equal" true (State.equal a b);
  ignore (State.insert b (vrf 2));
  check_bool "not equal" false (State.equal a b);
  check_int "one difference" 1 (List.length (State.diff a b));
  let c = State.copy b in
  check_bool "copy equal" true (State.equal b c);
  ignore (State.delete c (vrf 2));
  check_bool "copy independent" false (State.equal b c)

(* --- state: maintained views vs scan-based definitions ----------------------- *)

(* The scan-based definitions the maintained views replaced: each query
   walks the installed entries. *)
module Scan = struct
  let exists_value s ~table ~key value =
    List.exists
      (fun e ->
        match Entry.find_match e key with
        | Some (Entry.M_exact v) | Some (Entry.M_optional (Some v)) -> Bitvec.equal v value
        | _ -> false)
      (State.entries_of s table)

  let targets (entry : Entry.t) =
    List.filter_map
      (fun (fm : Entry.field_match) ->
        match fm.fm_value with
        | Entry.M_exact v | Entry.M_optional (Some v) -> Some (fm.fm_field, v)
        | _ -> None)
      entry.e_matches

  (* Referenced by another installed entry (not the one under this key). *)
  let is_referenced s info (entry : Entry.t) =
    let candidate_targets = targets entry in
    candidate_targets <> []
    && List.exists
         (fun other ->
           (not (Entry.equal_key other entry))
           && List.exists
                (fun (r : Validate.reference) ->
                  String.equal r.ref_table entry.e_table
                  && List.exists
                       (fun (k, v) -> String.equal k r.ref_key && Bitvec.equal v r.ref_value)
                       candidate_targets)
                (Validate.references info other))
         (State.all s)

  (* A snapshot of every referenced (table, key, value), self-references
     included, probed with the entry's values. *)
  let provides_referenced s info (entry : Entry.t) =
    let slot table key v = table ^ "/" ^ key ^ "/" ^ Bitvec.to_hex_string v in
    let referenced = Hashtbl.create 64 in
    List.iter
      (fun e ->
        List.iter
          (fun (r : Validate.reference) ->
            Hashtbl.replace referenced (slot r.ref_table r.ref_key r.ref_value) ())
          (Validate.references info e))
      (State.all s);
    List.exists (fun (k, v) -> Hashtbl.mem referenced (slot entry.e_table k v)) (targets entry)

  let keyed entries = List.map (fun e -> (Entry.match_key e, e)) entries

  let equal a b =
    let keyset t =
      keyed (State.all t) |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
    in
    let ka = keyset a and kb = keyset b in
    List.length ka = List.length kb
    && List.for_all2
         (fun (k1, e1) (k2, e2) -> String.equal k1 k2 && Entry.equal e1 e2)
         ka kb

  let diff a b =
    let index t =
      let tbl = Hashtbl.create 64 in
      List.iter (fun (k, e) -> Hashtbl.replace tbl k e) (keyed (State.all t));
      tbl
    in
    let ia = index a and ib = index b in
    let out = ref [] in
    Hashtbl.iter
      (fun k e ->
        match Hashtbl.find_opt ib k with
        | None -> out := Format.asprintf "only in first: %a" Entry.pp e :: !out
        | Some e' ->
            if not (Entry.equal e e') then
              out := Format.asprintf "differs: %a vs %a" Entry.pp e Entry.pp e' :: !out)
      ia;
    Hashtbl.iter
      (fun k e ->
        if not (Hashtbl.mem ia k) then
          out := Format.asprintf "only in second: %a" Entry.pp e :: !out)
      ib;
    List.sort String.compare !out
end

(* Middleblock plus two self-referencing tables: [chain_table] entries name
   a next hop in their own table through an action argument, and
   [loop_table] keys refer to the table's own key. *)
let chain_info =
  let table ti_name ti_id ti_match_fields ti_actions =
    { P4info.ti_name; ti_id; ti_match_fields; ti_actions; ti_default_action = "no_action";
      ti_size = 64; ti_restriction = None; ti_selector = false }
  in
  let key ?refers_to name =
    { P4info.mf_name = name; mf_kind = Ast.Exact; mf_width = 16; mf_refers_to = refers_to }
  in
  { mb with
    pi_tables =
      table "chain_table" 9001 [ key "chain_id" ]
        [ { ar_name = "link";
            ar_params = [ Ast.param ~refers_to:("chain_table", "chain_id") "next" 16 ] } ]
      :: table "loop_table" 9002 [ key ~refers_to:("loop_table", "loop_id") "loop_id" ]
           [ { ar_name = "no_action"; ar_params = [] } ]
      :: mb.pi_tables }

(* Values from a tiny universe, so keys collide and references resolve. *)
let small rng width = Bitvec.of_int ~width (1 + Rng.int rng 3)

let random_invocation rng (ar : P4info.action_ref) =
  { Entry.ai_name = ar.ar_name;
    ai_args = List.map (fun (p : Ast.param) -> small rng p.p_width) ar.ar_params }

let random_action rng (ti : P4info.table) =
  let inv () = random_invocation rng (Rng.choose rng ti.ti_actions) in
  if ti.ti_selector then
    (* Often the same member twice: two references to one target. *)
    let first = inv () in
    let rest = List.init (Rng.int rng 3) (fun _ -> if Rng.bool rng then first else inv ()) in
    Entry.Weighted (List.map (fun ai -> (ai, 1 + Rng.int rng 3)) (first :: rest))
  else Entry.Single (inv ())

let random_entry rng =
  let ti = Rng.choose rng chain_info.pi_tables in
  let matches =
    List.filter_map
      (fun (mf : P4info.match_field) ->
        let v = small rng mf.mf_width in
        match mf.mf_kind with
        | Ast.Exact -> Some (fm mf.mf_name (Entry.M_exact v))
        | _ when Rng.int rng 3 = 0 -> None
        | Ast.Lpm ->
            let len = 1 + Rng.int rng mf.mf_width in
            Some (fm mf.mf_name (Entry.M_lpm (Prefix.make v len)))
        | Ast.Ternary -> Some (fm mf.mf_name (Entry.M_ternary (Ternary.exact v)))
        | Ast.Optional -> Some (fm mf.mf_name (Entry.M_optional (Some v))))
      ti.ti_match_fields
  in
  (* Now and then a repeated field: lookups see only its first value. *)
  let matches =
    match matches with
    | first :: _ when Rng.int rng 10 = 0 ->
        matches @ [ { first with fm_value = Entry.M_exact (bv16 3) } ]
    | _ -> matches
  in
  let priority = if P4info.requires_priority ti then 1 + Rng.int rng 2 else 0 in
  Entry.make ~priority ~table:ti.ti_name ~matches (random_action rng ti)

let check_views ~step s info rng =
  let here what = Printf.sprintf "step %d: %s" step what in
  let same_keyed what maintained scanned =
    check_bool (here what) true
      (List.length maintained = List.length scanned
      && List.for_all2
           (fun (k1, e1) (k2, e2) -> String.equal k1 k2 && Entry.equal e1 e2)
           maintained scanned)
  in
  same_keyed "all_keyed" (State.all_keyed s) (Scan.keyed (State.all s));
  List.iter
    (fun (ti : P4info.table) ->
      same_keyed ("entries_of_keyed " ^ ti.ti_name)
        (State.entries_of_keyed s ti.ti_name)
        (Scan.keyed (State.entries_of s ti.ti_name));
      List.iter
        (fun (mf : P4info.match_field) ->
          for n = 0 to 4 do
            let v = Bitvec.of_int ~width:mf.mf_width n in
            check_bool
              (here (Printf.sprintf "exists_value %s.%s=%d" ti.ti_name mf.mf_name n))
              (Scan.exists_value s ~table:ti.ti_name ~key:mf.mf_name v)
              (State.exists_value s ~table:ti.ti_name ~key:mf.mf_name v)
          done)
        ti.ti_match_fields)
    chain_info.pi_tables;
  (* Every installed entry, plus fresh entries that may share a key with an
     installed one (whose own references then do not count). *)
  List.iter
    (fun e ->
      let shown = Format.asprintf "%a" Entry.pp e in
      check_bool (here ("is_referenced " ^ shown)) (Scan.is_referenced s info e)
        (State.is_referenced s info e);
      check_bool (here ("provides_referenced " ^ shown)) (Scan.provides_referenced s info e)
        (State.provides_referenced s info e))
    (State.all s @ List.init 4 (fun _ -> random_entry rng))

let test_state_maintained_views () =
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let s = ref (State.create ()) in
    let earlier = ref (State.copy !s) in
    for step = 1 to 60 do
      let installed = State.all !s in
      let pick () =
        if installed <> [] && Rng.int rng 3 > 0 then Rng.choose rng installed
        else random_entry rng
      in
      (match Rng.int rng 20 with
      | 0 ->
          let c = State.copy !s in
          check_bool "copy equal" true (State.equal c !s);
          (* Mutating one side leaves the other as it was. *)
          if Rng.bool rng then s := c else earlier := c
      | 1 when Rng.int rng 3 = 0 -> State.clear !s
      | r when r < 9 -> ignore (State.insert !s (random_entry rng))
      | r when r < 14 ->
          let e = pick () in
          let ti = Option.get (P4info.find_table chain_info e.e_table) in
          ignore (State.modify !s (Entry.with_action e (random_action rng ti)))
      | _ -> ignore (State.delete !s (pick ())));
      (* Mostly one P4info, so the counts are maintained; now and then
         another, which rebuilds them. *)
      let info = if step mod 9 = 0 then mb else chain_info in
      check_views ~step !s info rng;
      check_bool "equal" (Scan.equal !earlier !s) (State.equal !earlier !s);
      check_bool "diff" true (Scan.diff !earlier !s = State.diff !earlier !s);
      if step mod 5 = 0 then earlier := State.copy !s
    done
  done

(* --- match keys against their Printf definition ------------------------------ *)

(* The definition [Entry.match_key] had before it was built in one
   buffer. Keys appear in status messages, incident details and corpora,
   so the two must agree byte for byte on every entry, malformed ones
   included. *)
module Printf_key = struct
  let match_value_to_string = function
    | Entry.M_exact v -> Printf.sprintf "exact:%s" (Bitvec.to_hex_string v)
    | Entry.M_lpm p ->
        Printf.sprintf "lpm:%s/%d" (Bitvec.to_hex_string (Prefix.value p)) (Prefix.len p)
    | Entry.M_ternary tn ->
        Printf.sprintf "ternary:%s&%s"
          (Bitvec.to_hex_string (Ternary.value tn))
          (Bitvec.to_hex_string (Ternary.mask tn))
    | Entry.M_optional (Some v) -> Printf.sprintf "optional:%s" (Bitvec.to_hex_string v)
    | Entry.M_optional None -> "optional:*"

  let match_key (t : Entry.t) =
    let matches =
      List.sort
        (fun (a : Entry.field_match) b -> String.compare a.fm_field b.fm_field)
        t.e_matches
    in
    let parts =
      List.map
        (fun (fm : Entry.field_match) ->
          Printf.sprintf "%s=%s" fm.fm_field (match_value_to_string fm.fm_value))
        matches
    in
    Printf.sprintf "%s[%d]{%s}" t.e_table t.e_priority (String.concat ";" parts)
end

module Workload = Switchv_sai.Workload
module Wan = Switchv_sai.Wan
module Fuzzer = Switchv_fuzzer.Fuzzer

let same_key what (e : Entry.t) =
  let expected = Printf_key.match_key e in
  let actual = Entry.match_key e in
  if not (String.equal expected actual) then
    Alcotest.failf "%s: match key %S, Printf definition %S" what actual expected

let test_match_key_printf_reference () =
  (* Production-shaped entry sets for both role models. *)
  let generated =
    Workload.generate Middleblock.program Workload.inst1
    @ Workload.generate Wan.program Workload.inst2
  in
  check_int "generated entries" 2112 (List.length generated);
  List.iter (same_key "generated") generated;
  (* Fuzzer output, mutated updates included: the sweep applies every
     mutation to every table, and the random batches add more. *)
  let mutations = Hashtbl.create 16 in
  List.iter
    (fun (pi : P4info.t) ->
      List.iter
        (fun seed ->
          let f = Fuzzer.create pi (Rng.create seed) in
          List.iter
            (List.iter (fun (a : Fuzzer.annotated_update) ->
                 Option.iter (fun m -> Hashtbl.replace mutations m ()) a.mutation;
                 same_key (Option.value ~default:"fuzzed" a.mutation) a.update.entry))
            (Fuzzer.sweep f @ List.init 30 (fun _ -> Fuzzer.next_batch f)))
        [ 1; 2; 3 ])
    [ mb; Wan.info ];
  List.iter
    (fun m -> check_bool ("fuzzer applied " ^ m) true (Hashtbl.mem mutations m))
    [ "duplicate_match_field"; "invalid_match_field_id"; "zero_priority";
      "wrong_action_arg_width"; "invalid_match_type"; "invalid_table_id" ];
  (* Hand-made corner cases: no matches, repeated and unknown fields,
     zero and negative priorities, omitted optionals, empty prefixes,
     wide and odd-width values. *)
  let wide = Bitvec.of_int ~width:128 0x1234 in
  let odd = Bitvec.of_int ~width:9 0x1ff in
  List.iter (same_key "corner case")
    [ Entry.make ~table:"t" ~matches:[] (single "a" []);
      Entry.make ~priority:(-3) ~table:"" ~matches:[] (single "a" []);
      Entry.make ~table:"t"
        ~matches:
          [ fm "x" (Entry.M_exact (bv16 1)); fm "x" (Entry.M_exact (bv16 2));
            fm "ghost_field" (Entry.M_optional None) ]
        (single "a" []);
      Entry.make ~priority:0 ~table:"acl"
        ~matches:
          [ fm "z" (Entry.M_ternary (Ternary.make ~value:wide ~mask:wide));
            fm "a" (Entry.M_lpm (Prefix.make odd 0));
            fm "m" (Entry.M_optional (Some odd));
            fm "b" (Entry.M_lpm (Prefix.full wide)) ]
        (single "a" [ Bitvec.zero 24 ]) ];
  (* Random entries over the self-referencing test tables. *)
  let rng = Rng.create 42 in
  for _ = 1 to 500 do
    same_key "random" (random_entry rng)
  done

(* --- cached match keys ---------------------------------------------------------- *)

(* A fresh entry with [e]'s fields, [matches] applied to its matches: its
   key is not built yet. *)
let rebuilt ?(matches = Fun.id) (e : Entry.t) =
  Entry.make ~priority:e.e_priority ~table:e.e_table ~matches:(matches e.e_matches)
    e.e_action

(* Any chain of updaters, with the key read or not before each step, ends
   on the key a fresh entry with the same fields gets; the key does not
   depend on match order (for entries naming each field once: a repeated
   field's matches keep their order); and [Entry.equal] gives the same
   answer whether or not either key is built. *)
let prop_cached_key =
  QCheck.Test.make ~count:500 ~name:"cached match key after with_* chains"
    QCheck.(triple small_nat (small_list (pair (int_bound 3) bool)) bool)
    (fun (seed, steps, read_last) ->
      let rng = Rng.create seed in
      let e =
        List.fold_left
          (fun e (updater, read) ->
            if read then ignore (Entry.match_key e);
            let (o : Entry.t) = random_entry rng in
            match updater with
            | 0 -> Entry.with_action e o.e_action
            | 1 -> Entry.with_matches e o.e_matches
            | 2 -> Entry.with_priority e o.e_priority
            | _ -> Entry.with_table e o.e_table)
          (random_entry rng) steps
      in
      if read_last then ignore (Entry.match_key e);
      let z = random_entry rng in
      let fields = List.map (fun (fm : Entry.field_match) -> fm.fm_field) e.e_matches in
      let distinct = List.length (List.sort_uniq String.compare fields) = List.length fields in
      let unbuilt_verdict = Entry.equal (rebuilt e) (rebuilt z) in
      String.equal (Entry.match_key e) (Entry.match_key (rebuilt e))
      && ((not distinct)
         || String.equal (Entry.match_key e)
              (Entry.match_key (rebuilt ~matches:(Rng.shuffle rng) e)))
      && Entry.equal e (rebuilt e)
      && Entry.equal (rebuilt e) e
      && Entry.equal e z = unbuilt_verdict
      && Entry.equal z e = unbuilt_verdict)

(* --- syntactic validation (Figure 3 verdicts) -------------------------------- *)

let test_figure3_valid () =
  List.iter
    (fun e ->
      match Validate.check_entry info e with
      | Ok () -> ()
      | Error s -> Alcotest.failf "expected valid, got %s" (Format.asprintf "%a" Status.pp s))
    Figure2.figure3_valid

let test_figure3_invalid () =
  (* v2, v3, i3, i4 are state-independently invalid; i2 dangles. *)
  List.iter
    (fun (label, e) ->
      check_bool (label ^ " rejected") true (Validate.check_entry info e |> Result.is_error))
    [ ("v2", Figure2.v2); ("v3", Figure2.v3); ("i3", Figure2.i3); ("i4", Figure2.i4) ];
  let s = State.create () in
  ignore (State.insert s (vrf 1));
  check_bool "i2 dangles" true
    (Validate.check_references info Figure2.i2
       ~exists:(fun ~table ~key value -> State.exists_value s ~table ~key value)
    |> Result.is_error);
  check_bool "i1 resolves" true
    (Validate.check_references info Figure2.i1
       ~exists:(fun ~table ~key value -> State.exists_value s ~table ~key value)
    |> Result.is_ok)

let test_syntactic_details () =
  let reject label e =
    check_bool (label ^ " rejected") true (Validate.syntactic mb e |> Result.is_error)
  in
  reject "unknown table"
    (Entry.make ~table:"ghost" ~matches:[] (single "no_action" []));
  reject "duplicate match field"
    (Entry.make ~table:"vrf_table"
       ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)); fm "vrf_id" (Entry.M_exact (bv16 2)) ]
       (single "no_action" []));
  reject "missing mandatory exact field"
    (Entry.make ~table:"vrf_table" ~matches:[] (single "no_action" []));
  reject "priority on exact table"
    (Entry.make ~priority:5 ~table:"vrf_table"
       ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)) ]
       (single "no_action" []));
  reject "missing priority on ternary table"
    (Entry.make ~table:"acl_ingress_table"
       ~matches:[ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
       (single "drop" []));
  reject "single action on selector table"
    (Entry.make ~table:"wcmp_group_table"
       ~matches:[ fm "wcmp_group_id" (Entry.M_exact (bv16 1)) ]
       (single "set_nexthop_id" [ bv16 1 ]));
  reject "action set on plain table"
    (Entry.make ~table:"vrf_table"
       ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 1)) ]
       (Entry.Weighted [ ({ ai_name = "no_action"; ai_args = [] }, 1) ]));
  reject "zero selector weight"
    (Entry.make ~table:"wcmp_group_table"
       ~matches:[ fm "wcmp_group_id" (Entry.M_exact (bv16 1)) ]
       (Entry.Weighted [ ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 1 ] }, 0) ]));
  reject "wildcard ternary must be omitted"
    (Entry.make ~priority:1 ~table:"acl_ingress_table"
       ~matches:[ fm "is_ipv4" (Entry.M_ternary (Ternary.wildcard 1)) ]
       (single "drop" []));
  reject "zero-length lpm must be omitted"
    (Entry.make ~table:"ipv4_table"
       ~matches:
         [ fm "vrf_id" (Entry.M_exact (bv16 1));
           fm "ipv4_dst" (Entry.M_lpm (Prefix.any 32)) ]
       (single "drop" []))

let test_constraint_compliance () =
  let ti = Option.get (P4info.find_table mb "vrf_table") in
  check_bool "vrf 1 compliant" true (Validate.constraint_compliant ti (vrf 1) = Ok true);
  check_bool "vrf 0 violates" true (Validate.constraint_compliant ti (vrf 0) = Ok false)

let test_references_via_action_args () =
  (* set_nexthop_id's parameter refers to nexthop_table. *)
  let e =
    Entry.make ~table:"ipv4_table"
      ~matches:
        [ fm "vrf_id" (Entry.M_exact (bv16 1));
          fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.0.0.0/8")) ]
      (single "set_nexthop_id" [ bv16 9 ])
  in
  let refs = Validate.references mb e in
  check_int "two references (vrf key + nexthop arg)" 2 (List.length refs);
  check_bool "nexthop reference present" true
    (List.exists
       (fun (r : Validate.reference) ->
         r.ref_table = "nexthop_table" && Bitvec.to_int_exn r.ref_value = 9)
       refs)

let test_weighted_references () =
  let e =
    Entry.make ~table:"wcmp_group_table"
      ~matches:[ fm "wcmp_group_id" (Entry.M_exact (bv16 1)) ]
      (Entry.Weighted
         [ ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 4 ] }, 1);
           ({ ai_name = "set_nexthop_id"; ai_args = [ bv16 5 ] }, 2) ])
  in
  check_int "references from every member" 2 (List.length (Validate.references mb e))

let test_request_helpers () =
  let u = Request.insert (vrf 1) in
  check_bool "insert op" true (u.op = Request.Insert);
  check_bool "write_ok all ok" true
    (Request.write_ok { statuses = [ Status.ok; Status.ok ] });
  check_bool "write_ok fails on error" false
    (Request.write_ok
       { statuses = [ Status.ok; Status.make Status.Not_found "x" ] })

let () =
  Alcotest.run "p4runtime"
    [ ("entry",
       [ Alcotest.test_case "match key order" `Quick test_match_key_order_insensitive;
         Alcotest.test_case "priority in key" `Quick test_priority_in_key;
         Alcotest.test_case "match key = Printf definition" `Quick
           test_match_key_printf_reference;
         QCheck_alcotest.to_alcotest prop_cached_key ]);
      ("state",
       [ Alcotest.test_case "insert/delete" `Quick test_state_insert_delete;
         Alcotest.test_case "modify" `Quick test_state_modify;
         Alcotest.test_case "insertion order" `Quick test_state_insertion_order;
         Alcotest.test_case "references" `Quick test_state_references;
         Alcotest.test_case "equality and diff" `Quick test_state_equal_diff;
         Alcotest.test_case "maintained views match scans" `Quick
           test_state_maintained_views ]);
      ("validate",
       [ Alcotest.test_case "figure 3 valid entries" `Quick test_figure3_valid;
         Alcotest.test_case "figure 3 invalid entries" `Quick test_figure3_invalid;
         Alcotest.test_case "syntactic corner cases" `Quick test_syntactic_details;
         Alcotest.test_case "constraint compliance" `Quick test_constraint_compliance;
         Alcotest.test_case "action-arg references" `Quick test_references_via_action_args;
         Alcotest.test_case "weighted references" `Quick test_weighted_references;
         Alcotest.test_case "request helpers" `Quick test_request_helpers ]) ]
