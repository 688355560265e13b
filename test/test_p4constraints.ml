(* Tests for the P4-constraints entry-restriction language: parsing,
   printing, and evaluation over key valuations (§3 "P4-Constraints"). *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module C = Switchv_p4constraints.Constraint_lang

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let parse_exn s =
  match C.parse s with
  | Ok c -> c
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let eval_exn c lookup =
  match C.eval c lookup with
  | Ok b -> b
  | Error msg -> Alcotest.failf "eval failed: %s" msg

let lookup_of bindings key = List.assoc_opt key bindings

let exact16 n = C.K_exact (Bitvec.of_int ~width:16 n)

(* --- parsing ------------------------------------------------------------- *)

let test_parse_simple () =
  check_bool "vrf_id != 0 parses" true (C.parse "vrf_id != 0" |> Result.is_ok);
  check_bool "true parses" true (C.parse "true" |> Result.is_ok);
  check_bool "complex parses" true
    (C.parse "!(is_ipv4 == 1 && is_ipv6 == 1) && (dst_ip::mask == 0 || is_ipv4 == 1)"
    |> Result.is_ok);
  check_bool "hex literals" true (C.parse "addr == 0xFF" |> Result.is_ok);
  check_bool "binary literals" true (C.parse "flags == 0b101" |> Result.is_ok);
  check_bool "prefix length atom" true
    (C.parse "dst::prefix_length >= 16" |> Result.is_ok)

let test_parse_errors () =
  check_bool "stray = rejected" true (C.parse "a = 1" |> Result.is_error);
  check_bool "unbalanced paren" true (C.parse "(a == 1" |> Result.is_error);
  check_bool "trailing garbage" true (C.parse "a == 1 b" |> Result.is_error);
  check_bool "bad ::field" true (C.parse "a::bogus == 1" |> Result.is_error);
  check_bool "empty" true (C.parse "" |> Result.is_error)

(* Literals past the native int range are bad input, not an exception:
   entry restrictions come from user-supplied model files. *)
let rejects_out_of_range label s =
  match C.parse s with
  | Ok _ -> Alcotest.failf "%s: %S parsed" label s
  | Error msg ->
      check_bool (label ^ " names the literal") true
        (String.starts_with ~prefix:"integer literal out of range" msg)

let test_out_of_range_decimal () =
  rejects_out_of_range "20 digits" "vrf_id != 99999999999999999999";
  rejects_out_of_range "max_int + 1" "vrf_id != 4611686018427387904"

let test_out_of_range_hex () =
  rejects_out_of_range "20 hex digits" "addr == 0x123456789abcdef01234";
  rejects_out_of_range "63 bits" "addr == 0x7fffffffffffffff"

let test_out_of_range_binary () =
  rejects_out_of_range "80 bits" ("flags == 0b1" ^ String.make 79 '0');
  rejects_out_of_range "63 bits" ("flags == 0b" ^ String.make 63 '1')

let test_roundtrip () =
  let inputs =
    [ "vrf_id != 0"; "(a == 1 && b == 2)"; "!(x == 1)"; "a < b || c >= 4" ]
  in
  List.iter
    (fun s ->
      let c = parse_exn s in
      let c' = parse_exn (C.to_string c) in
      check_bool ("roundtrip " ^ s) true (c = c'))
    inputs

(* --- precedence ----------------------------------------------------------- *)

let test_precedence () =
  (* a == 1 || b == 1 && c == 1  parses as  a == 1 || (b == 1 && c == 1) *)
  let c = parse_exn "a == 1 || b == 1 && c == 1" in
  let lookup = lookup_of [ ("a", exact16 0); ("b", exact16 1); ("c", exact16 0) ] in
  check_bool "|| binds looser than &&" false (eval_exn c lookup);
  let lookup2 = lookup_of [ ("a", exact16 1); ("b", exact16 0); ("c", exact16 0) ] in
  check_bool "left disjunct suffices" true (eval_exn c lookup2)

(* --- evaluation ------------------------------------------------------------ *)

let test_eval_vrf_restriction () =
  let c = parse_exn "vrf_id != 0" in
  check_bool "vrf 1 ok" true (eval_exn c (lookup_of [ ("vrf_id", exact16 1) ]));
  check_bool "vrf 0 violates" false (eval_exn c (lookup_of [ ("vrf_id", exact16 0) ]))

let test_eval_masks () =
  let c = parse_exn "dst_ip::mask == 0 || is_ipv4 == 1" in
  let wildcard = C.K_ternary (Ternary.wildcard 32) in
  let specific =
    C.K_ternary (Ternary.make ~value:(Bitvec.of_int ~width:32 10) ~mask:(Bitvec.ones 32))
  in
  let flag b = C.K_ternary (if b then Ternary.exact (Bitvec.of_int ~width:1 1) else Ternary.wildcard 1) in
  check_bool "wildcard dst ok without flag" true
    (eval_exn c (lookup_of [ ("dst_ip", wildcard); ("is_ipv4", flag false) ]));
  check_bool "specific dst requires flag" false
    (eval_exn c (lookup_of [ ("dst_ip", specific); ("is_ipv4", flag false) ]));
  check_bool "specific dst with flag ok" true
    (eval_exn c (lookup_of [ ("dst_ip", specific); ("is_ipv4", flag true) ]))

let test_eval_prefix_length () =
  let c = parse_exn "dst::prefix_length >= 16" in
  let p len = C.K_lpm (Prefix.make (Bitvec.of_int ~width:32 0) len) in
  check_bool "/24 passes" true (eval_exn c (lookup_of [ ("dst", p 24) ]));
  check_bool "/8 fails" false (eval_exn c (lookup_of [ ("dst", p 8) ]));
  check_bool "::prefix_length on exact errors" true
    (C.eval c (lookup_of [ ("dst", exact16 1) ]) |> Result.is_error)

let test_eval_oversized_constant () =
  (* Constants wider than the key must not truncate (dscp is 6 bits). *)
  let c = parse_exn "dscp < 64" in
  let dscp n = C.K_ternary (Ternary.exact (Bitvec.of_int ~width:6 n)) in
  check_bool "63 < 64" true (eval_exn c (lookup_of [ ("dscp", dscp 63) ]));
  check_bool "0 < 64" true (eval_exn c (lookup_of [ ("dscp", dscp 0) ]));
  let c2 = parse_exn "dscp == 64" in
  check_bool "nothing equals 64" false (eval_exn c2 (lookup_of [ ("dscp", dscp 0) ]))

let test_eval_unknown_key () =
  let c = parse_exn "ghost == 1" in
  check_bool "unknown key errors" true (C.eval c (lookup_of []) |> Result.is_error)

let test_eval_optional () =
  let c = parse_exn "port != 0" in
  check_bool "set optional" true
    (eval_exn c (lookup_of [ ("port", C.K_optional (Some (Bitvec.of_int ~width:16 5))) ]));
  check_bool "unset optional errors" true
    (C.eval c (lookup_of [ ("port", C.K_optional None) ]) |> Result.is_error)

let test_truthy_atom () =
  let c = parse_exn "is_ipv4" in
  check_bool "nonzero truthy" true (eval_exn c (lookup_of [ ("is_ipv4", exact16 1) ]));
  check_bool "zero falsy" false (eval_exn c (lookup_of [ ("is_ipv4", exact16 0) ]))

let test_keys () =
  let c = parse_exn "a == 1 && b::mask != 0 || a < c::prefix_length" in
  check_int "three distinct keys" 3 (List.length (C.keys c));
  check_bool "order of first use" true (C.keys c = [ "a"; "b"; "c" ])

(* Property: parse . to_string = identity on generated constraints. *)
let gen_constraint =
  QCheck.Gen.(
    let atom = oneofl [ "a"; "b"; "key_1"; "meta.vrf" ] in
    let rec go depth =
      if depth = 0 then
        map2 (fun k n -> Printf.sprintf "%s == %d" k n) atom (int_bound 100)
      else
        oneof
          [ map2 (Printf.sprintf "(%s && %s)") (go (depth - 1)) (go (depth - 1));
            map2 (Printf.sprintf "(%s || %s)") (go (depth - 1)) (go (depth - 1));
            map (Printf.sprintf "!(%s)") (go (depth - 1));
            map2 (fun k n -> Printf.sprintf "%s < %d" k n) atom (int_bound 100) ]
    in
    go 3)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"parse-print roundtrip" ~count:200
    (QCheck.make ~print:(fun s -> s) gen_constraint)
    (fun s ->
      match C.parse s with
      | Error _ -> false
      | Ok c -> (
          match C.parse (C.to_string c) with
          | Ok c' -> c = c'
          | Error _ -> false))

let () =
  Alcotest.run "p4constraints"
    [ ("parsing",
       [ Alcotest.test_case "simple" `Quick test_parse_simple;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "decimal literal out of range" `Quick test_out_of_range_decimal;
         Alcotest.test_case "hex literal out of range" `Quick test_out_of_range_hex;
         Alcotest.test_case "binary literal out of range" `Quick test_out_of_range_binary;
         Alcotest.test_case "roundtrip" `Quick test_roundtrip;
         Alcotest.test_case "precedence" `Quick test_precedence ]);
      ("evaluation",
       [ Alcotest.test_case "vrf restriction" `Quick test_eval_vrf_restriction;
         Alcotest.test_case "masks" `Quick test_eval_masks;
         Alcotest.test_case "prefix length" `Quick test_eval_prefix_length;
         Alcotest.test_case "oversized constants" `Quick test_eval_oversized_constant;
         Alcotest.test_case "unknown key" `Quick test_eval_unknown_key;
         Alcotest.test_case "optional keys" `Quick test_eval_optional;
         Alcotest.test_case "truthy atoms" `Quick test_truthy_atom;
         Alcotest.test_case "key collection" `Quick test_keys ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_parse_print_roundtrip ]) ]
