(* Tests for the BDD-based constraint engine (§7 "ongoing work"):
   compilation of entry restrictions, model counting, uniform compliant
   sampling, violation sampling, and near-miss single-bit mutations. *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module C = Switchv_p4constraints.Constraint_lang
module Bdd = Switchv_p4constraints.Bdd

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let parse s = Result.get_ok (C.parse s)

let compile_exn layouts s =
  match Bdd.compile layouts (parse s) with
  | Ok c -> c
  | Error msg -> Alcotest.failf "compile %S failed: %s" s msg

let exact name width = { Bdd.kl_name = name; kl_kind = Bdd.Exact; kl_width = width }
let ternary name width = { Bdd.kl_name = name; kl_kind = Bdd.Ternary; kl_width = width }

(* Evaluate an assignment with Constraint_lang's reference semantics, to
   check BDD/evaluator agreement end to end. *)
let eval_reference layouts constr (a : Bdd.assignment) =
  let lookup key =
    List.find_map
      (fun (kl : Bdd.key_layout) ->
        if kl.kl_name <> key then None
        else
          let v = List.assoc key a.values in
          match kl.kl_kind with
          | Bdd.Exact -> Some (C.K_exact v)
          | Bdd.Optional -> Some (C.K_optional (Some v))
          | Bdd.Ternary ->
              let mask = List.assoc key a.masks in
              Some (C.K_ternary (Switchv_bitvec.Ternary.make ~value:v ~mask)))
      layouts
  in
  Result.get_ok (C.eval constr lookup)

(* --- model counting ----------------------------------------------------------- *)

let test_count_simple () =
  (* vrf_id != 0 over 4 bits: 15 of 16 values. *)
  let c = compile_exn [ exact "vrf_id" 4 ] "vrf_id != 0" in
  check_bool "15 models" true (Bdd.model_count c = 15.);
  let taut = compile_exn [ exact "x" 4 ] "true" in
  check_bool "tautology: 16" true (Bdd.model_count taut = 16.);
  let unsat = compile_exn [ exact "x" 4 ] "x == 1 && x == 2" in
  check_bool "unsat: 0" true (Bdd.model_count unsat = 0.)

let test_count_comparisons () =
  let c = compile_exn [ exact "x" 6 ] "x < 10" in
  check_bool "x<10 has 10 models" true (Bdd.model_count c = 10.);
  let c2 = compile_exn [ exact "x" 6 ] "x >= 10" in
  check_bool "complement has 54" true (Bdd.model_count c2 = 54.);
  (* Key-to-key comparison. *)
  let c3 = compile_exn [ exact "a" 3; exact "b" 3 ] "a < b" in
  check_bool "a<b over 3 bits: 28 pairs" true (Bdd.model_count c3 = 28.)

let test_count_ternary_canonical () =
  (* One 2-bit ternary key, tautological restriction: canonical (value,
     mask) pairs are those with value & ~mask = 0: sum over masks of
     2^popcount(mask) = 1+2+2+4 = 9. *)
  let c = compile_exn [ ternary "k" 2 ] "true" in
  check_bool "9 canonical pairs" true (Bdd.model_count c = 9.)

let test_oversized_constant () =
  (* dscp < 64 over 6 bits is a tautology (unbounded-int semantics). *)
  let c = compile_exn [ exact "dscp" 6 ] "dscp < 64" in
  check_bool "tautology" true (Bdd.model_count c = 64.);
  let c2 = compile_exn [ exact "dscp" 6 ] "dscp == 64" in
  check_bool "unsat" true (Bdd.model_count c2 = 0.)

(* Regressions for keys wider than a machine int. From the mutated-model
   probe: a wide ternary key made compilation quadratic in its width and
   model counting exponential (a count past the float range turned into
   nan, the "not yet counted" mark), so lint on a 65535-bit key never
   returned. And a constant compared with such a key lost its zero
   extension past bit 63. *)
let test_wide_keys () =
  let c = compile_exn [ exact "k" 70 ] "k < 3" in
  check_bool "k < 3 over 70 bits: 3 models" true (Bdd.model_count c = 3.);
  let width = 600 in
  let c = compile_exn [ ternary "k" width ] "k::mask == 0" in
  check_bool "one model: value and mask zero" true (Bdd.model_count c = 1.);
  (* About 10 nodes per bit; the quadratic build made 543301. *)
  check_bool "nodes linear in the width" true (Bdd.size c <= 16 * width);
  let c = compile_exn [ ternary "k" 700 ] "true" in
  check_bool "3^700 canonical pairs: past the float range" true
    (Bdd.model_count c = Float.infinity);
  check_bool "sampling still returns" true (Bdd.sample_compliant c (Rng.create 1) <> None)

let test_unsupported () =
  check_bool "prefix_length unsupported" true
    (Bdd.compile [ exact "k" 8 ] (parse "k::prefix_length >= 8") |> Result.is_error);
  check_bool "unknown key unsupported" true
    (Bdd.compile [ exact "k" 8 ] (parse "ghost == 1") |> Result.is_error)

(* --- sampling -------------------------------------------------------------------- *)

let pins_acl_layouts = [ ternary "is_ipv4" 1; ternary "is_ipv6" 1; ternary "dst_ip" 32 ]
let pins_acl_restriction = "!(is_ipv4 == 1 && is_ipv6 == 1) && (dst_ip::mask == 0 || is_ipv4 == 1)"

let test_sample_compliant () =
  let constr = parse pins_acl_restriction in
  let c = Result.get_ok (Bdd.compile pins_acl_layouts constr) in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    match Bdd.sample_compliant c rng with
    | None -> Alcotest.fail "restriction should be satisfiable"
    | Some a ->
        check_bool "sample satisfies (bdd)" true (Bdd.satisfies c a);
        check_bool "sample satisfies (reference evaluator)" true
          (eval_reference pins_acl_layouts constr a)
  done

let test_sample_violation () =
  let constr = parse pins_acl_restriction in
  let c = Result.get_ok (Bdd.compile pins_acl_layouts constr) in
  let rng = Rng.create 6 in
  for _ = 1 to 200 do
    match Bdd.sample_violation c rng with
    | None -> Alcotest.fail "violations exist"
    | Some a ->
        check_bool "violates (bdd)" false (Bdd.satisfies c a);
        check_bool "violates (reference evaluator)" false
          (eval_reference pins_acl_layouts constr a)
  done

let test_sample_near_violation () =
  let constr = parse pins_acl_restriction in
  let c = Result.get_ok (Bdd.compile pins_acl_layouts constr) in
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    match Bdd.sample_near_violation c rng with
    | None -> Alcotest.fail "near violations exist"
    | Some a -> check_bool "violates" false (Bdd.satisfies c a)
  done

let test_sample_unsat_none () =
  let c = compile_exn [ exact "x" 4 ] "x == 1 && x == 2" in
  check_bool "no compliant sample" true (Bdd.sample_compliant c (Rng.create 1) = None);
  let taut = compile_exn [ exact "x" 4 ] "true" in
  check_bool "no violation of a tautology" true
    (Bdd.sample_violation taut (Rng.create 1) = None)

let test_sampling_uniformity () =
  (* vrf_id != 0 over 3 bits: each of the 7 values should appear roughly
     uniformly. *)
  let c = compile_exn [ exact "vrf_id" 3 ] "vrf_id != 0" in
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  let n = 7000 in
  for _ = 1 to n do
    match Bdd.sample_compliant c rng with
    | Some a ->
        let v = Bitvec.to_int_exn (List.assoc "vrf_id" a.values) in
        counts.(v) <- counts.(v) + 1
    | None -> Alcotest.fail "satisfiable"
  done;
  check_int "0 never sampled" 0 counts.(0);
  for v = 1 to 7 do
    check_bool
      (Printf.sprintf "value %d within 30%% of uniform (%d)" v counts.(v))
      true
      (counts.(v) > n / 7 * 7 / 10 && counts.(v) < n / 7 * 13 / 10)
  done

(* Property: on random small constraints, BDD model counts agree with
   brute-force enumeration under the reference evaluator. *)
let prop_count_agrees_bruteforce =
  QCheck.Test.make ~name:"model count agrees with brute force" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 0xFFFFF) ~print:string_of_int)
    (fun seed ->
      let rng = Rng.create seed in
      let w = 3 in
      let layouts = [ exact "a" w; exact "b" w ] in
      let atom () =
        match Rng.int rng 3 with
        | 0 -> "a"
        | 1 -> "b"
        | _ -> string_of_int (Rng.int rng (1 lsl w))
      in
      let op () = Rng.choose rng [ "=="; "!="; "<"; "<="; ">"; ">=" ] in
      let leaf () = Printf.sprintf "%s %s %s" (atom ()) (op ()) (atom ()) in
      let text =
        Printf.sprintf "(%s %s %s)" (leaf ())
          (Rng.choose rng [ "&&"; "||" ])
          (leaf ())
      in
      let constr = parse text in
      match Bdd.compile layouts constr with
      | Error _ -> QCheck.assume_fail ()
      | Ok c ->
          let brute = ref 0 in
          for a = 0 to (1 lsl w) - 1 do
            for b = 0 to (1 lsl w) - 1 do
              let lookup = function
                | "a" -> Some (C.K_exact (Bitvec.of_int ~width:w a))
                | "b" -> Some (C.K_exact (Bitvec.of_int ~width:w b))
                | _ -> None
              in
              if Result.get_ok (C.eval constr lookup) then incr brute
            done
          done;
          Bdd.model_count c = float_of_int !brute)

(* The draw stream the fuzzer consumes, pinned per middleblock table with a
   compiled restriction: 200 compliant and 50 near-violation draws from one
   generator seeded 1, plus the model count. The digests were recorded
   before model counts were kept across draws and before sampled keys were
   built in one pass; any change to the counts, the walk or the RNG
   consumption shows here. *)
let draw_stream_digests =
  [ ("acl_pre_ingress_table", "6c01dc866a0849ff8bfcfc0bd3a57a9a");
    ("vrf_table", "dc2763eb3def20c9e0902b265c294aad");
    ("nexthop_table", "7cf998276a2802c53cba0f8a2287c5da");
    ("router_interface_table", "490d4b154904c2228fbe9a15e89c7b8e");
    ("neighbor_table", "e70e3743700be8d4490cd67d0d33b867");
    ("acl_ingress_table", "f89f21636dbad6628f205dee7fcf89e2");
    ("mirror_session_table", "3181503b9aae432d1aa6eeb6c8c25199") ]

let test_draw_stream_pinned () =
  let show (a : Bdd.assignment) =
    let kvs l =
      String.concat ","
        (List.map (fun (k, v) -> k ^ "=" ^ Bitvec.to_hex_string v ^ "#"
                                 ^ string_of_int (Bitvec.width v)) l)
    in
    "v:" ^ kvs a.values ^ " m:" ^ kvs a.masks
  in
  let draws c =
    let rng = Rng.create 1 in
    let opt = function Some a -> show a | None -> "none" in
    let compliant = List.init 200 (fun _ -> opt (Bdd.sample_compliant c rng)) in
    let near = List.init 50 (fun _ -> opt (Bdd.sample_near_violation c rng)) in
    Printf.sprintf "%h" (Bdd.model_count c) :: (compliant @ near)
  in
  let actual =
    List.filter_map
      (fun (ti : Switchv_p4ir.P4info.table) ->
        Option.map
          (fun c ->
            (ti.ti_name, Digest.to_hex (Digest.string (String.concat "\n" (draws c)))))
          (Switchv_p4ir.P4info.restriction_bdd ti))
      Switchv_sai.Middleblock.info.pi_tables
  in
  Alcotest.(check (list (pair string string))) "draw stream digests" draw_stream_digests actual

let () =
  Alcotest.run "bdd"
    [ ("counting",
       [ Alcotest.test_case "simple" `Quick test_count_simple;
         Alcotest.test_case "comparisons" `Quick test_count_comparisons;
         Alcotest.test_case "ternary canonicality" `Quick test_count_ternary_canonical;
         Alcotest.test_case "oversized constants" `Quick test_oversized_constant;
         Alcotest.test_case "wide keys" `Quick test_wide_keys;
         Alcotest.test_case "unsupported shapes" `Quick test_unsupported ]);
      ("sampling",
       [ Alcotest.test_case "compliant" `Quick test_sample_compliant;
         Alcotest.test_case "violation" `Quick test_sample_violation;
         Alcotest.test_case "near violation" `Quick test_sample_near_violation;
         Alcotest.test_case "unsat/tautology" `Quick test_sample_unsat_none;
         Alcotest.test_case "uniformity" `Quick test_sampling_uniformity;
         Alcotest.test_case "middleblock draw stream pinned" `Quick test_draw_stream_pinned ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_count_agrees_bruteforce ]) ]
