(* Tests for the P4Runtime oracle: expectation classification, status
   judgement, state reconciliation, and handling of under-specified
   behaviours (§4.3). *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module State = Switchv_p4runtime.State
module Status = Switchv_p4runtime.Status
module Oracle = Switchv_oracle.Oracle
module Figure2 = Switchv_sai.Figure2

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let info = Figure2.info

let bv16 = Bitvec.of_int ~width:16
let fm field value = { Entry.fm_field = field; fm_value = value }
let single name args = Entry.Single { ai_name = name; ai_args = args }

let vrf n =
  Entry.make ~table:"vrf_table" ~matches:[ fm "vrf_id" (Entry.M_exact (bv16 n)) ]
    (single "no_action" [])

let route ?(vrf = 1) ?(prefix = "10.0.0.0/8") () =
  Entry.make ~table:"ipv4_table"
    ~matches:
      [ fm "vrf_id" (Entry.M_exact (bv16 vrf));
        fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string prefix)) ]
    (single "set_nexthop_id" [ bv16 3 ])

(* A perfectly behaving single-update exchange: status OK + consistent
   read-back. *)
let accept oracle u =
  let read_back =
    let s = State.copy (Oracle.observed oracle) in
    (match u.Request.op with
    | Request.Insert -> ignore (State.insert s u.entry)
    | Request.Modify -> ignore (State.modify s u.entry)
    | Request.Delete -> ignore (State.delete s u.entry));
    { Request.entries = State.all s }
  in
  Oracle.judge_batch oracle [ u ] { Request.statuses = [ Status.ok ] } ~read_back

let reject ?(code = Status.Invalid_argument) oracle u =
  Oracle.judge_batch oracle [ u ]
    { Request.statuses = [ Status.make code "rejected" ] }
    ~read_back:{ Request.entries = State.all (Oracle.observed oracle) }

(* --- classification ----------------------------------------------------------- *)

let test_classify_valid_insert () =
  let oracle = Oracle.create info in
  check_bool "fresh valid insert must be accepted" true
    (Oracle.classify oracle (Request.insert (vrf 1)) = Oracle.Must_accept)

let test_classify_invalid () =
  let oracle = Oracle.create info in
  check_bool "constraint violation must be rejected" true
    (match Oracle.classify oracle (Request.insert (vrf 0)) with
    | Oracle.Must_reject _ -> true
    | _ -> false);
  check_bool "dangling reference must be rejected" true
    (match Oracle.classify oracle (Request.insert (route ~vrf:5 ())) with
    | Oracle.Must_reject _ -> true
    | _ -> false);
  check_bool "delete of non-existent must be rejected" true
    (match Oracle.classify oracle (Request.delete (vrf 1)) with
    | Oracle.Must_reject _ -> true
    | _ -> false)

let test_classify_duplicate_and_referenced () =
  let oracle = Oracle.create info in
  ignore (accept oracle (Request.insert (vrf 1)));
  ignore (accept oracle (Request.insert (route ())));
  check_bool "duplicate insert must be rejected" true
    (match Oracle.classify oracle (Request.insert (vrf 1)) with
    | Oracle.Must_reject _ -> true
    | _ -> false);
  check_bool "delete of referenced vrf must be rejected" true
    (match Oracle.classify oracle (Request.delete (vrf 1)) with
    | Oracle.Must_reject _ -> true
    | _ -> false);
  check_bool "delete of unreferenced route must be accepted" true
    (Oracle.classify oracle (Request.delete (route ())) = Oracle.Must_accept)

let test_classify_capacity () =
  let oracle = Oracle.create info in
  (* vrf_table size is 64; fill it. *)
  for i = 1 to 64 do
    ignore (accept oracle (Request.insert (vrf i)))
  done;
  check_bool "insert beyond guarantee is may-either" true
    (match Oracle.classify oracle (Request.insert (vrf 65)) with
    | Oracle.May_either _ -> true
    | _ -> false)

(* --- judgement ------------------------------------------------------------------ *)

let test_clean_exchange_no_incidents () =
  let oracle = Oracle.create info in
  check_int "accepting a valid insert is fine" 0
    (List.length (accept oracle (Request.insert (vrf 1))));
  check_int "rejecting an invalid insert is fine" 0
    (List.length (reject oracle (Request.insert (vrf 0))))

let test_rejecting_valid_flagged () =
  let oracle = Oracle.create info in
  let incidents = reject oracle (Request.insert (vrf 1)) in
  check_bool "status violation reported" true
    (List.exists (fun (i : Oracle.incident) -> i.inc_kind = `Status_violation) incidents)

let test_accepting_invalid_flagged () =
  let oracle = Oracle.create info in
  let u = Request.insert (vrf 0) in
  let read_back =
    let s = State.copy (Oracle.observed oracle) in
    ignore (State.insert s u.entry);
    { Request.entries = State.all s }
  in
  let incidents =
    Oracle.judge_batch oracle [ u ] { Request.statuses = [ Status.ok ] } ~read_back
  in
  check_bool "status violation reported" true
    (List.exists (fun (i : Oracle.incident) -> i.inc_kind = `Status_violation) incidents)

let test_state_divergence_flagged () =
  let oracle = Oracle.create info in
  (* Switch claims OK but the entry never shows up in the read-back. *)
  let incidents =
    Oracle.judge_batch oracle
      [ Request.insert (vrf 1) ]
      { Request.statuses = [ Status.ok ] }
      ~read_back:{ Request.entries = [] }
  in
  check_bool "state divergence reported" true
    (List.exists (fun (i : Oracle.incident) -> i.inc_kind = `State_divergence) incidents)

let test_modify_divergence_flagged () =
  let oracle = Oracle.create info in
  ignore (accept oracle (Request.insert (vrf 1)));
  ignore (accept oracle (Request.insert (route ())));
  (* Switch says OK to a modify but keeps the old action (the paper's
     "MODIFY leaves old action parameters unchanged" bug). *)
  let modified = Entry.with_action (route ()) (single "drop" []) in
  let incidents =
    Oracle.judge_batch oracle
      [ Request.modify modified ]
      { Request.statuses = [ Status.ok ] }
      ~read_back:{ Request.entries = State.all (Oracle.observed oracle) }
  in
  check_bool "divergence on stale action" true
    (List.exists (fun (i : Oracle.incident) -> i.inc_kind = `State_divergence) incidents)

let test_unresponsive_flagged () =
  let oracle = Oracle.create info in
  let us = [ Request.insert (vrf 1); Request.insert (vrf 2) ] in
  let incidents =
    Oracle.judge_batch oracle us
      { Request.statuses =
          [ Status.make Status.Unavailable "down"; Status.make Status.Unavailable "down" ] }
      ~read_back:{ Request.entries = [] }
  in
  check_bool "unresponsive reported" true
    (List.exists (fun (i : Oracle.incident) -> i.inc_kind = `Unresponsive) incidents)

let test_resource_rejection_at_capacity_ok () =
  let oracle = Oracle.create info in
  for i = 1 to 64 do
    ignore (accept oracle (Request.insert (vrf i)))
  done;
  check_int "rejection beyond guarantee tolerated" 0
    (List.length (reject ~code:Status.Resource_exhausted oracle (Request.insert (vrf 65))));
  (* And acceptance beyond the guarantee is fine too (under-specified). *)
  check_int "acceptance beyond guarantee tolerated" 0
    (List.length (accept oracle (Request.insert (vrf 65))))

let test_mid_batch_capacity_tolerated () =
  (* A batch that could take a table past its guarantee may have any of its
     inserts rejected (execution order unspecified). vrf size 64: install
     60, then a batch of 8 where the last ones get RESOURCE_EXHAUSTED. *)
  let oracle = Oracle.create info in
  for i = 1 to 60 do
    ignore (accept oracle (Request.insert (vrf i)))
  done;
  let us = List.init 8 (fun i -> Request.insert (vrf (61 + i))) in
  let statuses =
    List.init 8 (fun i ->
        if i < 4 then Status.ok else Status.make Status.Resource_exhausted "full")
  in
  let read_back =
    let s = State.copy (Oracle.observed oracle) in
    List.iteri (fun i u -> if i < 4 then ignore (State.insert s u.Request.entry)) us;
    { Request.entries = State.all s }
  in
  let incidents = Oracle.judge_batch oracle us { Request.statuses } ~read_back in
  check_int "no incidents for mid-batch capacity" 0 (List.length incidents)

let test_oracle_adopts_switch_state () =
  (* After judging, the oracle proceeds from the switch's claimed state
     (§4.3: forget the prior state). *)
  let oracle = Oracle.create info in
  ignore
    (Oracle.judge_batch oracle
       [ Request.insert (vrf 1) ]
       { Request.statuses = [ Status.ok ] }
       ~read_back:{ Request.entries = [ vrf 1; vrf 2 ] });
  (* vrf 2 appeared out of nowhere (divergence flagged), but the oracle now
     treats it as present: inserting it again must be a duplicate. *)
  check_bool "baseline adopted" true
    (match Oracle.classify oracle (Request.insert (vrf 2)) with
    | Oracle.Must_reject _ -> true
    | _ -> false)

(* Property: judgement completeness. Take a clean exchange over a batch of
   decisively-classified updates; flipping any single status (or dropping
   any single entry from the read-back) must produce an incident. *)
let prop_single_corruption_detected =
  QCheck.Test.make ~name:"any single corruption is flagged" ~count:50
    (QCheck.make QCheck.Gen.(int_bound 0xFFFF) ~print:string_of_int)
    (fun seed ->
      let rng = Switchv_bitvec.Rng.create seed in
      let n = 3 + Switchv_bitvec.Rng.int rng 5 in
      (* Batch: n fresh vrf inserts (must-accept) + one vrf-0 insert
         (must-reject). *)
      let updates =
        List.init n (fun i -> Request.insert (vrf (i + 1)))
        @ [ Request.insert (vrf 0) ]
      in
      let honest_statuses =
        List.init n (fun _ -> Status.ok) @ [ Status.make Status.Invalid_argument "bad" ]
      in
      let honest_read =
        { Request.entries = List.init n (fun i -> vrf (i + 1)) }
      in
      (* Honest exchange: clean. *)
      let clean =
        Oracle.judge_batch (Oracle.create info) updates
          { Request.statuses = honest_statuses } ~read_back:honest_read
      in
      if clean <> [] then false
      else begin
        (* Flip one status. *)
        let k = Switchv_bitvec.Rng.int rng (n + 1) in
        let flipped =
          List.mapi
            (fun i s ->
              if i <> k then s
              else if Status.is_ok s then Status.make Status.Unknown "flipped"
              else Status.ok)
            honest_statuses
        in
        (* The read-back stays consistent with the flipped statuses, so the
           corruption is visible only through the status discipline. *)
        let read =
          { Request.entries =
              List.filteri (fun i _ -> i <> k) (List.init n (fun i -> vrf (i + 1)))
              @ (if k = n then [ vrf 0 ] else []) }
        in
        let incidents =
          Oracle.judge_batch (Oracle.create info) updates
            { Request.statuses = flipped } ~read_back:read
        in
        incidents <> []
      end)

let prop_readback_corruption_detected =
  QCheck.Test.make ~name:"read-back omissions are flagged" ~count:50
    (QCheck.make QCheck.Gen.(int_bound 0xFFFF) ~print:string_of_int)
    (fun seed ->
      let rng = Switchv_bitvec.Rng.create seed in
      let n = 2 + Switchv_bitvec.Rng.int rng 6 in
      let updates = List.init n (fun i -> Request.insert (vrf (i + 1))) in
      let statuses = List.init n (fun _ -> Status.ok) in
      let k = Switchv_bitvec.Rng.int rng n in
      let read =
        { Request.entries =
            List.filteri (fun i _ -> i <> k) (List.init n (fun i -> vrf (i + 1))) }
      in
      let incidents =
        Oracle.judge_batch (Oracle.create info) updates { Request.statuses }
          ~read_back:read
      in
      List.exists (fun (i : Oracle.incident) -> i.inc_kind = `State_divergence) incidents)

(* --- differential: the in-place judge against copy-and-rebuild ----------------- *)

module P4info = Switchv_p4ir.P4info
module Rng = Switchv_bitvec.Rng
module Fuzzer = Switchv_fuzzer.Fuzzer
module Stack = Switchv_switch.Stack
module Fault = Switchv_switch.Fault
module Catalogue = Switchv_switch.Catalogue
module Workload = Switchv_sai.Workload
module Mb = Switchv_sai.Middleblock

(* The judge as it was before it updated its state in place: statuses
   against expectations, the implied state built on a copy, the read-back
   rebuilt into a fresh state and compared, and that state adopted.
   [oracle] classifies against its live state, which this judge resets to
   the read-back after every batch. *)
let reference_judge oracle updates (resp : Request.write_response) ~read_back =
  let state = Oracle.observed oracle in
  let incidents = ref [] in
  let verdicts = ref [] in
  let add kind detail =
    incidents := { Oracle.inc_kind = kind; inc_detail = detail } :: !incidents
  in
  if List.length resp.statuses <> List.length updates then
    add `Status_violation
      (Printf.sprintf "response has %d statuses for %d updates"
         (List.length resp.statuses) (List.length updates));
  let n_unavailable =
    List.length
      (List.filter (fun (s : Status.t) -> s.code = Status.Unavailable) resp.statuses)
  in
  if n_unavailable > 0 && n_unavailable = List.length resp.statuses then
    add `Unresponsive "switch returned UNAVAILABLE for the entire batch";
  let batch_inserts = Hashtbl.create 8 in
  List.iter
    (fun (u : Request.update) ->
      if u.op = Request.Insert then
        Hashtbl.replace batch_inserts u.entry.e_table
          (1 + Option.value ~default:0 (Hashtbl.find_opt batch_inserts u.entry.e_table)))
    updates;
  let implied = State.copy state in
  if List.length resp.statuses = List.length updates then
    List.iter2
      (fun (u : Request.update) (s : Status.t) ->
        let expectation =
          match Oracle.classify oracle u with
          | Oracle.Must_accept
            when u.op = Request.Insert
                 && (match P4info.find_table Mb.info u.entry.e_table with
                    | Some ti ->
                        State.count state u.entry.e_table
                        + Option.value ~default:0
                            (Hashtbl.find_opt batch_inserts u.entry.e_table)
                        > ti.ti_size
                    | None -> false) ->
              Oracle.May_either "batch may exceed guaranteed capacity"
          | e -> e
        in
        (match (expectation, Status.is_ok s) with
        | Oracle.Must_accept, false ->
            verdicts := false :: !verdicts;
            add `Status_violation
              (Format.asprintf "valid update rejected (%a): %a" Status.pp s
                 Request.pp_update u)
        | Oracle.Must_reject why, true ->
            verdicts := false :: !verdicts;
            add `Status_violation
              (Format.asprintf "invalid update accepted (%s): %a" why Request.pp_update u)
        | Oracle.(Must_accept, true | Must_reject _, false | May_either _, _) ->
            verdicts := true :: !verdicts);
        if Status.is_ok s then
          match u.op with
          | Request.Insert -> ignore (State.insert implied u.entry)
          | Request.Modify -> ignore (State.modify implied u.entry)
          | Request.Delete -> ignore (State.delete implied u.entry))
      updates resp.statuses;
  let actual = State.create () in
  List.iter (fun e -> ignore (State.insert actual e)) read_back.Request.entries;
  if not (State.equal implied actual) then begin
    let diffs = State.diff implied actual in
    let shown = List.filteri (fun i _ -> i < 5) diffs in
    add `State_divergence
      (Printf.sprintf "switch state does not match reported statuses (%d differences): %s"
         (List.length diffs) (String.concat " | " shown))
  end;
  State.clear state;
  List.iter (fun e -> ignore (State.insert state e)) read_back.entries;
  { Oracle.incidents = List.rev !incidents; per_update_ok = List.rev !verdicts }

type perturbation = Unchanged | Dropped | Extra | Swapped | Zeroed_priority | Copied

let perturbations = [ Dropped; Extra; Swapped; Zeroed_priority; Copied ]

let perturb rng entries =
  let n = List.length entries in
  let p =
    if n < 2 || Rng.bool rng then Unchanged else Rng.choose rng perturbations
  in
  let k = if n < 2 then 0 else Rng.int rng (n - 1) in
  let entries =
    match p with
    | Unchanged -> entries
    | Dropped -> List.filteri (fun i _ -> i <> k) entries
    | Extra ->
        (* A key no installed entry has: same matches, another priority. *)
        let (e : Entry.t) = List.nth entries k in
        entries @ [ Entry.with_priority e (e.e_priority + 1000) ]
    | Swapped ->
        let a = Array.of_list entries in
        let x = a.(k) in
        a.(k) <- a.(k + 1);
        a.(k + 1) <- x;
        Array.to_list a
    | Zeroed_priority ->
        List.mapi (fun i e -> if i = k then Entry.with_priority e 0 else e)
          entries
    | Copied -> List.map (fun (e : Entry.t) -> Entry.with_priority e e.e_priority) entries
  in
  (p, entries)

let test_differential () =
  let entries = Workload.generate ~seed:3 Mb.program Workload.small in
  let catalogue = Catalogue.pins Mb.program entries in
  let control_faults =
    List.filter
      (fun (f : Fault.t) ->
        String.equal f.id "PINS-019"
        ||
        match f.kind with
        | Fault.Read_drops_table _ | Fault.Read_zeroes_priority | Fault.Modify_keeps_old_args _
        | Fault.Delete_leaves_entry _ | Fault.Delete_nonexistent_fails_batch
        | Fault.Reject_vrf_delete_with_any_routes | Fault.Crash_on_delete_sequence _ ->
            true
        | _ -> false)
      catalogue
  in
  check_bool "PINS-019 and the read, modify and delete faults" true
    (List.length control_faults >= 8);
  let kept = ref 0 and rebuilt = ref 0 and copies_kept = ref 0 in
  let seen = Hashtbl.create 8 in
  List.iteri
    (fun i faults ->
      let what = match faults with [] -> "clean" | f :: _ -> f.Fault.id in
      let stack = Stack.create ~faults Mb.program in
      ignore (Stack.push_p4info stack);
      (* Every other stack's fuzzer ignores dependencies, so its batches
         delete entries that other updates of the same batch reference:
         there, judging an update against a partly applied batch would
         change its verdict. *)
      let fuzzer =
        Fuzzer.create
          ~config:{ Fuzzer.respect_dependencies = i mod 2 = 0 }
          Mb.info (Rng.create (11 + i))
      in
      let rng = Rng.create (101 + i) in
      let oracle = Oracle.create Mb.info in
      let reference = Oracle.create Mb.info in
      List.iteri
        (fun b annotated ->
          let here fact = Printf.sprintf "%s, batch %d: %s" what b fact in
          let updates = List.map (fun (a : Fuzzer.annotated_update) -> a.update) annotated in
          let resp = Stack.write stack { Request.updates } in
          let p, listed = perturb rng (Stack.read stack).entries in
          Hashtbl.replace seen p ();
          let read_back = { Request.entries = listed } in
          let before = Oracle.observed oracle in
          let got = Oracle.judge_batch_detailed oracle updates resp ~read_back in
          let want = reference_judge reference updates resp ~read_back in
          if Oracle.observed oracle == before then begin
            incr kept;
            if p = Copied then incr copies_kept
          end
          else incr rebuilt;
          let shown (i : Oracle.incident) = Format.asprintf "%a" Oracle.pp_incident i in
          Alcotest.(check (list string)) (here "incidents")
            (List.map shown want.incidents) (List.map shown got.incidents);
          Alcotest.(check (list bool)) (here "per-update verdicts") want.per_update_ok
            got.per_update_ok;
          let observed = Oracle.observed oracle and expected = Oracle.observed reference in
          check_bool (here "observed state equal") true (State.equal expected observed);
          check_bool (here "observed state order") true
            (List.equal Entry.equal (State.all expected) (State.all observed)))
        (Fuzzer.sweep fuzzer @ List.init 25 (fun _ -> Fuzzer.next_batch fuzzer)))
    ([] :: List.map (fun f -> [ f ]) control_faults);
  check_bool "kept-state branch ran" true (!kept > 0);
  check_bool "rebuild branch ran" true (!rebuilt > 0);
  check_int "structurally equal copies are never kept" 0 !copies_kept;
  List.iter
    (fun p -> check_bool "every perturbation applied" true (Hashtbl.mem seen p))
    (Unchanged :: perturbations)

(* --- the set-valued data-plane oracle (taint-driven) --------------------------- *)

module Dataplane = Switchv_oracle.Dataplane
module Interp = Switchv_bmv2.Interp
module Analysis = Switchv_analysis.Analysis
module Taint = Switchv_analysis.Taint
module Packet = Switchv_packet.Packet
module Ternary = Switchv_bitvec.Ternary
module Middleblock = Switchv_sai.Middleblock

(* A middleblock state whose route resolves through a 2-member WCMP group:
   member 1 -> rif 1 -> port 7, member 2 -> rif 2 -> port 9. *)
let wcmp_state () =
  let s = State.create () in
  let add e = ignore (State.insert s e) in
  let rif id port =
    add
      (Entry.make ~table:"router_interface_table"
         ~matches:[ fm "router_interface_id" (Entry.M_exact (bv16 id)) ]
         (single "set_port_and_src_mac"
            [ bv16 port; Packet.mac_of_string "02:00:00:00:bb:01" ]));
    add
      (Entry.make ~table:"neighbor_table"
         ~matches:
           [ fm "router_interface_id" (Entry.M_exact (bv16 id));
             fm "neighbor_id" (Entry.M_exact (bv16 id)) ]
         (single "set_dst_mac" [ Packet.mac_of_string "02:00:00:00:cc:01" ]));
    add
      (Entry.make ~table:"nexthop_table"
         ~matches:[ fm "nexthop_id" (Entry.M_exact (bv16 id)) ]
         (single "set_ip_nexthop" [ bv16 id; bv16 id ]))
  in
  add (vrf 1);
  rif 1 7;
  rif 2 9;
  add
    (Entry.make ~table:"wcmp_group_table"
       ~matches:[ fm "wcmp_group_id" (Entry.M_exact (bv16 1)) ]
       (Entry.Weighted
          [ ({ Entry.ai_name = "set_nexthop_id"; ai_args = [ bv16 1 ] }, 2);
            ({ Entry.ai_name = "set_nexthop_id"; ai_args = [ bv16 2 ] }, 1) ]));
  add
    (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
       ~matches:
         [ fm "is_ipv4" (Entry.M_ternary (Ternary.exact (Bitvec.of_int ~width:1 1))) ]
       (single "set_vrf" [ bv16 1 ]));
  add
    (Entry.make ~table:"l3_admit_table" ~priority:1
       ~matches:
         [ fm "dst_mac"
             (Entry.M_ternary (Ternary.exact (Packet.mac_of_string "02:00:00:00:aa:01"))) ]
       (single "l3_admit" []));
  add
    (Entry.make ~table:"ipv4_table"
       ~matches:
         [ fm "vrf_id" (Entry.M_exact (bv16 1));
           fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.1.0.0/16")) ]
       (single "set_wcmp_group_id" [ bv16 1 ]));
  s

let wcmp_cfg ?(hash_mode = Interp.Seeded 1) () =
  { Interp.program = Middleblock.program; state = wcmp_state ();
    hash_mode; mirror_map = [] }

let wcmp_taint = lazy (Analysis.facts Middleblock.program).Analysis.f_taint

let wcmp_frame ?(dst = "10.1.2.3") () =
  { Packet.headers =
      [ Packet.ethernet_frame ~dst:"02:00:00:00:aa:01" ~ether_type:0x0800 ();
        Packet.ipv4_header ~ttl:64 ~src:"192.0.2.1" ~dst ();
        Packet.udp_header ~src_port:1000 ~dst_port:2000 () ];
    payload = "xyz" }

let wcmp_packet ?dst () = Packet.to_bytes (wcmp_frame ?dst ())

let test_candidate_ports () =
  let dp = Dataplane.create (wcmp_cfg ()) ~taint:(Lazy.force wcmp_taint) in
  check_bool "both member ports, sorted" true
    (Dataplane.candidate_ports dp = [ 7; 9 ])

(* The §c property: for every seed, the switch's member choice stays inside
   the statically-computed candidate set and the set-valued oracle admits
   it without a false positive. *)
let test_seeded_soak () =
  let dp = Dataplane.create (wcmp_cfg ()) ~taint:(Lazy.force wcmp_taint) in
  let bytes = wcmp_packet () in
  for seed = 0 to 199 do
    let cfg = wcmp_cfg ~hash_mode:(Interp.Seeded seed) () in
    let switch = Interp.run cfg ~ingress_port:1 bytes in
    (match switch.Interp.b_egress with
    | Some p ->
        if not (List.mem p (Dataplane.candidate_ports dp)) then
          Alcotest.failf "seed %d egressed outside the candidate set: port %d"
            seed p
    | None -> Alcotest.failf "seed %d dropped a routed packet" seed);
    match Dataplane.judge dp ~ingress_port:1 ~bytes ~switch with
    | Dataplane.Admitted -> ()
    | Dataplane.Diverged _ ->
        Alcotest.failf "seed %d: false positive on a clean switch" seed
  done

(* An egress port outside the member set is a real incident, not noise. *)
let test_out_of_set_diverges () =
  let dp = Dataplane.create (wcmp_cfg ()) ~taint:(Lazy.force wcmp_taint) in
  let bytes = wcmp_packet () in
  let model = Interp.run (wcmp_cfg ~hash_mode:(Interp.Fixed 0) ()) ~ingress_port:1 bytes in
  let rogue = { model with Interp.b_egress = Some 5 } in
  match Dataplane.judge dp ~ingress_port:1 ~bytes ~switch:rogue with
  | Dataplane.Diverged admitted ->
      check_bool "enumeration set is the message" true
        (List.for_all
           (fun (b : Interp.behavior) ->
             match b.Interp.b_egress with Some p -> p = 7 || p = 9 | None -> false)
           admitted)
  | Dataplane.Admitted -> Alcotest.fail "out-of-set egress admitted"

(* Drop where the model forwards escalates and diverges. *)
let test_drop_vs_forward_diverges () =
  let dp = Dataplane.create (wcmp_cfg ()) ~taint:(Lazy.force wcmp_taint) in
  let bytes = wcmp_packet () in
  let model = Interp.run (wcmp_cfg ~hash_mode:(Interp.Fixed 0) ()) ~ingress_port:1 bytes in
  let dropped =
    { model with Interp.b_egress = None; b_punted = false; b_packet = "" }
  in
  match Dataplane.judge dp ~ingress_port:1 ~bytes ~switch:dropped with
  | Dataplane.Diverged _ -> ()
  | Dataplane.Admitted -> Alcotest.fail "drop admitted where the model forwards"

(* A submit-to-ingress packet-out is judged against every hash round: each
   member a seeded switch picks is admitted, and an egress outside the
   group diverges with the member set as the message. A directed one only
   has to leave by its port without being punted back. *)
let test_packet_out_verdicts () =
  let dp = Dataplane.create (wcmp_cfg ()) ~taint:(Lazy.force wcmp_taint) in
  let po = { Request.po_payload = wcmp_frame (); po_egress_port = None } in
  let judge switch = fst (Dataplane.judge_packet_out dp po ~switch) in
  let picked = ref [] in
  for seed = 0 to 199 do
    let switch =
      Interp.run_packet_out (wcmp_cfg ~hash_mode:(Interp.Seeded seed) ())
        ~egress_port:None po.po_payload
    in
    Option.iter (fun p -> picked := p :: !picked) switch.Interp.b_egress;
    match judge switch with
    | Dataplane.Admitted -> ()
    | Dataplane.Diverged _ -> Alcotest.failf "seed %d: member pick diverged" seed
  done;
  Alcotest.(check (list int)) "seeds pick both members" [ 7; 9 ]
    (List.sort_uniq compare !picked);
  let member = Interp.run_packet_out (wcmp_cfg ()) ~egress_port:None po.po_payload in
  (match judge { member with Interp.b_egress = Some 5 } with
  | Dataplane.Diverged admitted ->
      Alcotest.(check (list (option int))) "the member set is the message"
        [ Some 7; Some 9 ]
        (List.sort compare (List.map (fun (b : Interp.behavior) -> b.b_egress) admitted))
  | Dataplane.Admitted -> Alcotest.fail "submit-to-ingress egress outside the group admitted");
  let directed = { po with po_egress_port = Some 3 } in
  let direct = Interp.run_packet_out (wcmp_cfg ()) ~egress_port:(Some 3) po.po_payload in
  let verdict switch = fst (Dataplane.judge_packet_out dp directed ~switch) in
  check_bool "directed packet-out admitted" true (verdict direct = Dataplane.Admitted);
  check_bool "punted-back packet-out diverges" true
    (verdict { direct with Interp.b_punted = true } <> Dataplane.Admitted)

(* On a hash-free program the verdict is plain enumeration, byte for byte:
   a matching behaviour is admitted and a divergence reports exactly the
   single Fixed-0 behaviour. *)
let test_hash_free_exactness () =
  let state = State.create () in
  let add e = ignore (State.insert state e) in
  add (vrf 1);
  add
    (Entry.make ~table:"acl_pre_ingress_table" ~priority:1
       ~matches:
         [ fm "dst_ip"
             (Entry.M_ternary (Ternary.exact (Packet.ipv4_of_string "10.0.1.1"))) ]
       (single "set_vrf" [ bv16 1 ]));
  add
    (Entry.make ~table:"ipv4_table"
       ~matches:
         [ fm "vrf_id" (Entry.M_exact (bv16 1));
           fm "ipv4_dst" (Entry.M_lpm (Prefix.of_ipv4_string "10.0.0.0/8")) ]
       (single "set_nexthop_id" [ bv16 11 ]));
  let cfg =
    { Interp.program = Figure2.program; state; hash_mode = Interp.Seeded 17;
      mirror_map = [] }
  in
  let taint = (Analysis.facts Figure2.program).Analysis.f_taint in
  check_bool "figure2 taint-free" true (Taint.taint_free taint);
  let dp = Dataplane.create cfg ~taint in
  check_bool "no candidates" true (Dataplane.candidate_ports dp = []);
  let bytes = wcmp_packet ~dst:"10.0.1.1" () in
  let honest = Interp.run cfg ~ingress_port:1 bytes in
  (match Dataplane.judge dp ~ingress_port:1 ~bytes ~switch:honest with
  | Dataplane.Admitted -> ()
  | Dataplane.Diverged _ -> Alcotest.fail "honest hash-free behaviour diverged");
  let rogue = { honest with Interp.b_egress = Some 31 } in
  match Dataplane.judge dp ~ingress_port:1 ~bytes ~switch:rogue with
  | Dataplane.Diverged [ only ] ->
      check_bool "divergence reports the Fixed-0 behaviour" true
        (Interp.behavior_equal only honest)
  | Dataplane.Diverged _ -> Alcotest.fail "hash-free divergence set not a singleton"
  | Dataplane.Admitted -> Alcotest.fail "rogue egress admitted on hash-free model"

let () =
  Alcotest.run "oracle"
    [ ("classification",
       [ Alcotest.test_case "valid insert" `Quick test_classify_valid_insert;
         Alcotest.test_case "invalid requests" `Quick test_classify_invalid;
         Alcotest.test_case "duplicates and references" `Quick
           test_classify_duplicate_and_referenced;
         Alcotest.test_case "capacity" `Quick test_classify_capacity ]);
      ("judgement",
       [ Alcotest.test_case "clean exchange" `Quick test_clean_exchange_no_incidents;
         Alcotest.test_case "rejecting valid" `Quick test_rejecting_valid_flagged;
         Alcotest.test_case "accepting invalid" `Quick test_accepting_invalid_flagged;
         Alcotest.test_case "state divergence" `Quick test_state_divergence_flagged;
         Alcotest.test_case "stale modify" `Quick test_modify_divergence_flagged;
         Alcotest.test_case "unresponsive" `Quick test_unresponsive_flagged;
         Alcotest.test_case "capacity rejection ok" `Quick
           test_resource_rejection_at_capacity_ok;
         Alcotest.test_case "mid-batch capacity" `Quick test_mid_batch_capacity_tolerated;
         Alcotest.test_case "adopts switch state" `Quick test_oracle_adopts_switch_state;
         Alcotest.test_case "in-place judge = copy-and-rebuild" `Quick test_differential ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_single_corruption_detected;
         QCheck_alcotest.to_alcotest prop_readback_corruption_detected ]);
      ("dataplane",
       [ Alcotest.test_case "candidate ports" `Quick test_candidate_ports;
         Alcotest.test_case "seeded soak admits" `Quick test_seeded_soak;
         Alcotest.test_case "out-of-set diverges" `Quick test_out_of_set_diverges;
         Alcotest.test_case "drop vs forward diverges" `Quick
           test_drop_vs_forward_diverges;
         Alcotest.test_case "hash-free exactness" `Quick test_hash_free_exactness;
         Alcotest.test_case "packet-out verdicts" `Quick test_packet_out_verdicts ]) ]
