(* Unit and property tests for the bitvector substrate. *)

module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix
module Ternary = Switchv_bitvec.Ternary
module Rng = Switchv_bitvec.Rng

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let check_bv = Alcotest.check bv
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

(* --- unit tests --------------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter
    (fun (w, n) ->
      check_int (Printf.sprintf "of_int %d@%d" n w) n
        (Bitvec.to_int_exn (Bitvec.of_int ~width:w n)))
    [ (1, 0); (1, 1); (8, 255); (16, 65535); (32, 0xDEADBEE); (48, 1 lsl 40); (62, 42) ]

let test_of_int_truncates () =
  check_bv "256 truncated to 8 bits is 0" (Bitvec.zero 8) (Bitvec.of_int ~width:8 256);
  check_bv "257 truncated to 8 bits is 1" (Bitvec.of_int ~width:8 1)
    (Bitvec.of_int ~width:8 257)

let test_bin_string () =
  let v = Bitvec.of_bin_string "10110" in
  check_int "width" 5 (Bitvec.width v);
  check_int "value" 0b10110 (Bitvec.to_int_exn v);
  check_string "roundtrip" "10110" (Bitvec.to_bin_string v)

let test_hex_string () =
  let v = Bitvec.of_hex_string ~width:32 "deadbeef" in
  check_int "value" 0xdeadbeef (Bitvec.to_int_exn v);
  check_string "to_hex" "deadbeef" (Bitvec.to_hex_string v);
  let odd = Bitvec.of_hex_string ~width:12 "abc" in
  check_string "odd width hex" "abc" (Bitvec.to_hex_string odd)

let test_arith_basics () =
  let a = Bitvec.of_int ~width:8 200 and b = Bitvec.of_int ~width:8 100 in
  check_int "add wraps" 44 (Bitvec.to_int_exn (Bitvec.add a b));
  check_int "sub" 100 (Bitvec.to_int_exn (Bitvec.sub a b));
  check_int "sub wraps" 156 (Bitvec.to_int_exn (Bitvec.sub b a));
  check_int "mul wraps" ((200 * 100) mod 256) (Bitvec.to_int_exn (Bitvec.mul a b));
  check_int "neg" 56 (Bitvec.to_int_exn (Bitvec.neg a))

let test_wide_arith () =
  (* 128-bit: (2^100 + 5) + (2^100 + 7) = 2^101 + 12 *)
  let p100 = Bitvec.shift_left (Bitvec.of_int ~width:128 1) 100 in
  let a = Bitvec.add p100 (Bitvec.of_int ~width:128 5) in
  let b = Bitvec.add p100 (Bitvec.of_int ~width:128 7) in
  let expected =
    Bitvec.add (Bitvec.shift_left (Bitvec.of_int ~width:128 1) 101)
      (Bitvec.of_int ~width:128 12)
  in
  check_bv "128-bit add" expected (Bitvec.add a b)

let test_concat_extract () =
  let hi = Bitvec.of_int ~width:8 0xAB and lo = Bitvec.of_int ~width:8 0xCD in
  let c = Bitvec.concat hi lo in
  check_int "concat width" 16 (Bitvec.width c);
  check_int "concat value" 0xABCD (Bitvec.to_int_exn c);
  check_bv "extract hi" hi (Bitvec.extract ~hi:15 ~lo:8 c);
  check_bv "extract lo" lo (Bitvec.extract ~hi:7 ~lo:0 c)

let test_shifts () =
  let v = Bitvec.of_int ~width:16 0x00FF in
  check_int "shl" 0x0FF0 (Bitvec.to_int_exn (Bitvec.shift_left v 4));
  check_int "shr" 0x000F (Bitvec.to_int_exn (Bitvec.shift_right v 4));
  check_int "shl overflow drops" 0xF000 (Bitvec.to_int_exn (Bitvec.shift_left v 12))

let test_prefix_mask () =
  check_bv "prefix 8 of 32" (Bitvec.of_int64 ~width:32 0xFF000000L)
    (Bitvec.prefix_mask ~width:32 8);
  check_bv "prefix 0" (Bitvec.zero 32) (Bitvec.prefix_mask ~width:32 0);
  check_bv "prefix full" (Bitvec.ones 32) (Bitvec.prefix_mask ~width:32 32)

let test_compare_unsigned () =
  let a = Bitvec.of_int ~width:8 200 and b = Bitvec.of_int ~width:8 100 in
  check_bool "200 > 100 unsigned" true (Bitvec.ult b a);
  check_bool "not a < b" false (Bitvec.ult a b);
  check_bool "le refl" true (Bitvec.ule a a)

let test_bytes_roundtrip () =
  let v = Bitvec.of_int64 ~width:48 0x0A0B0C0D0E0FL in
  let s = Bitvec.to_bytes_be v in
  check_int "length" 6 (String.length s);
  check_int "first byte" 0x0A (Char.code s.[0]);
  check_bv "roundtrip" v (Bitvec.of_bytes_be s)

let test_popcount () =
  check_int "popcount" 8 (Bitvec.popcount (Bitvec.of_int ~width:16 0xFF00));
  check_int "popcount ones 128" 128 (Bitvec.popcount (Bitvec.ones 128))

(* --- prefix tests ------------------------------------------------------- *)

let test_prefix_parse () =
  let p = Prefix.of_ipv4_string "10.0.0.0/8" in
  check_int "len" 8 (Prefix.len p);
  check_string "rt" "10.0.0.0/8" (Prefix.to_ipv4_string p);
  let q = Prefix.of_ipv4_string "10.*.*.*" in
  check_bool "wildcard form equals /8" true (Prefix.equal p q);
  let r = Prefix.of_ipv4_string "10.0.0.1" in
  check_int "host route" 32 (Prefix.len r)

let test_prefix_match () =
  let p = Prefix.of_ipv4_string "10.0.0.0/8" in
  let ip s =
    List.fold_left
      (fun acc o -> Bitvec.logor (Bitvec.shift_left acc 8) (Bitvec.of_int ~width:32 o))
      (Bitvec.zero 32) s
  in
  check_bool "matches inside" true (Prefix.matches p (ip [ 10; 1; 2; 3 ]));
  check_bool "no match outside" false (Prefix.matches p (ip [ 11; 1; 2; 3 ]));
  check_bool "any matches" true (Prefix.matches (Prefix.any 32) (ip [ 11; 1; 2; 3 ]))

let test_prefix_canonical () =
  (* 10.1.2.3/8 canonicalises to 10.0.0.0/8. *)
  let v = Bitvec.of_int64 ~width:32 0x0A010203L in
  let p = Prefix.make v 8 in
  check_string "canonical" "10.0.0.0/8" (Prefix.to_ipv4_string p);
  check_bool "raw not canonical" false (Prefix.is_canonical v 8)

let test_prefix_subsumes () =
  let a = Prefix.of_ipv4_string "10.0.0.0/8" in
  let b = Prefix.of_ipv4_string "10.0.0.0/16" in
  check_bool "shorter subsumes longer" true (Prefix.subsumes a b);
  check_bool "longer does not subsume" false (Prefix.subsumes b a)

(* --- ternary tests ------------------------------------------------------ *)

let test_ternary () =
  let v = Bitvec.of_int ~width:8 0b1010_1010 in
  let m = Bitvec.of_int ~width:8 0b1111_0000 in
  let t = Ternary.make ~value:v ~mask:m in
  check_bool "matches" true (Ternary.matches t (Bitvec.of_int ~width:8 0b1010_0101));
  check_bool "no match" false (Ternary.matches t (Bitvec.of_int ~width:8 0b0101_0101));
  check_bool "wildcard matches all" true
    (Ternary.matches (Ternary.wildcard 8) (Bitvec.of_int ~width:8 123));
  check_bool "exact" true (Ternary.matches (Ternary.exact v) v);
  check_bool "exact mismatch" false
    (Ternary.matches (Ternary.exact v) (Bitvec.of_int ~width:8 0))

let test_ternary_of_prefix () =
  let p = Prefix.of_ipv4_string "192.168.0.0/16" in
  let t = Ternary.of_prefix p in
  let ip = Bitvec.of_int64 ~width:32 0xC0A80101L in
  check_bool "prefix as ternary matches" true (Ternary.matches t ip)

(* --- rng determinism ---------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  let a = Rng.create 42 in
  for _ = 1 to 20 do
    if Rng.int a 1000000 <> Rng.int c 1000000 then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_rng_weighted () =
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let x = Rng.choose_weighted rng [ ("a", 0); ("b", 5) ] in
    check_string "zero-weight never chosen" "b" x
  done

(* --- property tests ------------------------------------------------------ *)

let gen_width = QCheck.Gen.oneofl [ 1; 3; 8; 16; 17; 32; 33; 48; 64; 128 ]

let gen_bv =
  QCheck.Gen.(
    gen_width >>= fun w ->
    let rng_seed = int_bound 0xFFFFFF in
    rng_seed >>= fun seed ->
    return (Rng.bitvec (Rng.create seed) w))

let arb_bv = QCheck.make ~print:(Format.asprintf "%a" Bitvec.pp) gen_bv

let gen_bv_pair =
  QCheck.Gen.(
    gen_width >>= fun w ->
    int_bound 0xFFFFFF >>= fun s1 ->
    int_bound 0xFFFFFF >>= fun s2 ->
    return (Rng.bitvec (Rng.create s1) w, Rng.bitvec (Rng.create s2) w))

let arb_bv_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "(%a, %a)" Bitvec.pp a Bitvec.pp b)
    gen_bv_pair

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.equal (Bitvec.add a b) (Bitvec.add b a))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.equal (Bitvec.sub (Bitvec.add a b) b) a)

let prop_neg_involution =
  QCheck.Test.make ~name:"neg (neg a) = a" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.neg (Bitvec.neg a)) a)

let prop_lognot_involution =
  QCheck.Test.make ~name:"lognot involutive" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.lognot (Bitvec.lognot a)) a)

let prop_de_morgan =
  QCheck.Test.make ~name:"De Morgan" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.equal
        (Bitvec.lognot (Bitvec.logand a b))
        (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)))

let prop_concat_extract =
  QCheck.Test.make ~name:"extract of concat recovers parts" ~count:200 arb_bv_pair
    (fun (a, b) ->
      let c = Bitvec.concat a b in
      let wa = Bitvec.width a and wb = Bitvec.width b in
      Bitvec.equal (Bitvec.extract ~hi:(wa + wb - 1) ~lo:wb c) a
      && Bitvec.equal (Bitvec.extract ~hi:(wb - 1) ~lo:0 c) b)

let prop_bin_roundtrip =
  QCheck.Test.make ~name:"bin string roundtrip" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.of_bin_string (Bitvec.to_bin_string a)) a)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex string roundtrip" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.of_hex_string ~width:(Bitvec.width a) (Bitvec.to_hex_string a)) a)

let prop_compare_total =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200 arb_bv_pair (fun (a, b) ->
      Bitvec.compare a b = -Bitvec.compare b a)

let prop_shift_add =
  QCheck.Test.make ~name:"shl 1 = add self" ~count:200 arb_bv (fun a ->
      Bitvec.equal (Bitvec.shift_left a 1) (Bitvec.add a a))

let prop_prefix_matches_canonical =
  QCheck.Test.make ~name:"prefix matches own value" ~count:200
    (QCheck.make
       ~print:(fun (a, l) -> Format.asprintf "(%a, %d)" Bitvec.pp a l)
       QCheck.Gen.(
         gen_bv >>= fun v ->
         int_bound (Bitvec.width v) >>= fun l -> return (v, l)))
    (fun (v, l) ->
      let p = Prefix.make v l in
      Prefix.matches p (Prefix.value p) && Prefix.matches p v)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_comm; prop_add_sub_inverse; prop_neg_involution;
      prop_lognot_involution; prop_de_morgan; prop_concat_extract;
      prop_bin_roundtrip; prop_hex_roundtrip; prop_compare_total;
      prop_shift_add; prop_prefix_matches_canonical ]

(* --- differential properties: word-level kernels vs bit-at-a-time ------- *)

(* The bit-at-a-time definitions the word-level kernels replaced, written
   against the public interface ([bit] to read, a binary string to build).
   Each kernel must agree with its reference on every input, including
   where the reference raises. *)
module Reference = struct
  let of_bits w f =
    Bitvec.of_bin_string (String.init w (fun i -> if f (w - 1 - i) then '1' else '0'))

  let extract ~hi ~lo t =
    if lo < 0 || hi >= Bitvec.width t || hi < lo then invalid_arg "Bitvec.extract: bad range";
    of_bits (hi - lo + 1) (fun i -> Bitvec.bit t (lo + i))

  let concat hi lo =
    let wl = Bitvec.width lo in
    of_bits (Bitvec.width hi + wl) (fun i ->
        if i < wl then Bitvec.bit lo i else Bitvec.bit hi (i - wl))

  let shift_left t k =
    if k < 0 then invalid_arg "Bitvec.shift_left: negative shift";
    of_bits (Bitvec.width t) (fun i -> i >= k && Bitvec.bit t (i - k))

  let shift_right t k =
    if k < 0 then invalid_arg "Bitvec.shift_right: negative shift";
    let w = Bitvec.width t in
    of_bits w (fun i -> i < w - k && Bitvec.bit t (i + k))

  let prefix_mask ~width:w len =
    if w < 1 then invalid_arg "Bitvec.prefix_mask: width must be >= 1";
    if len < 0 || len > w then invalid_arg "Bitvec.prefix_mask: bad prefix length";
    of_bits w (fun i -> i >= w - len)

  let of_bytes_be s =
    let n = String.length s in
    if n = 0 then invalid_arg "Bitvec.of_bytes_be: empty";
    of_bits (8 * n) (fun i -> Char.code s.[n - 1 - (i / 8)] lsr (i mod 8) land 1 = 1)

  let to_bytes_be t =
    let w = Bitvec.width t in
    if w mod 8 <> 0 then invalid_arg "Bitvec.to_bytes_be: width not a byte multiple";
    let n = w / 8 in
    String.init n (fun i ->
        let lo = (n - 1 - i) * 8 in
        let byte = ref 0 in
        for b = 7 downto 0 do
          byte := (!byte lsl 1) lor if Bitvec.bit t (lo + b) then 1 else 0
        done;
        Char.chr !byte)

  let to_hex_string t =
    let w = Bitvec.width t in
    let ndigits = (w + 3) / 4 in
    String.init ndigits (fun i ->
        let pos = (ndigits - 1 - i) * 4 in
        let d = ref 0 in
        for b = 3 downto 0 do
          d := !d lsl 1;
          if pos + b < w && Bitvec.bit t (pos + b) then incr d
        done;
        "0123456789abcdef".[!d])

  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bitvec.of_hex_string: not a hex digit"

  let of_hex_string ~width:w s =
    if w < 1 then invalid_arg "Bitvec.of_hex_string: width must be >= 1";
    let n = String.length s in
    let digits = Array.init n (fun i -> hex_digit s.[n - 1 - i]) in
    of_bits w (fun pos -> pos / 4 < n && digits.(pos / 4) lsr (pos mod 4) land 1 = 1)

  let is_ones t =
    let rec go i = i >= Bitvec.width t || (Bitvec.bit t i && go (i + 1)) in
    go 0
end

(* Both sides' results, exceptions included, as comparable values. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_bv f g =
  match (outcome f, outcome g) with
  | Ok a, Ok b -> Bitvec.equal a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let same eq f g =
  match (outcome f, outcome g) with
  | Ok a, Ok b -> eq a b
  | Error a, Error b -> String.equal a b
  | _ -> false

(* Widths 1..200 cross every limb boundary; a third of the vectors are all
   zeros or all ones, the edge cases of masking and [is_ones]. *)
let gen_wide_width = QCheck.Gen.int_range 1 200

let gen_wide_of w =
  QCheck.Gen.(
    int_bound 5 >>= fun shape ->
    int_bound 0xFFFFFF >>= fun seed ->
    return
      (match shape with
      | 0 -> Bitvec.zero w
      | 1 -> Bitvec.ones w
      | _ -> Rng.bitvec (Rng.create seed) w))

let gen_wide = QCheck.Gen.(gen_wide_width >>= gen_wide_of)
let print_bv = Format.asprintf "%a" Bitvec.pp
let diff_count = 500

let prop_diff_extract =
  QCheck.Test.make ~name:"differential extract" ~count:diff_count
    (QCheck.make
       ~print:(fun (v, hi, lo) -> Printf.sprintf "%s hi=%d lo=%d" (print_bv v) hi lo)
       QCheck.Gen.(
         gen_wide >>= fun v ->
         let w = Bitvec.width v in
         int_range (-1) w >>= fun lo ->
         int_range (lo - 1) w >>= fun hi -> return (v, hi, lo)))
    (fun (v, hi, lo) ->
      same_bv (fun () -> Bitvec.extract ~hi ~lo v) (fun () -> Reference.extract ~hi ~lo v))

let prop_diff_concat =
  QCheck.Test.make ~name:"differential concat" ~count:diff_count
    (QCheck.make
       ~print:(fun (a, b) -> print_bv a ^ " " ^ print_bv b)
       (QCheck.Gen.pair gen_wide gen_wide))
    (fun (a, b) -> same_bv (fun () -> Bitvec.concat a b) (fun () -> Reference.concat a b))

let gen_shift =
  QCheck.make
    ~print:(fun (v, k) -> Printf.sprintf "%s by %d" (print_bv v) k)
    QCheck.Gen.(
      gen_wide >>= fun v ->
      (* Past the width too, and now and then negative. *)
      int_range (-2) (2 * Bitvec.width v + 2) >>= fun k -> return (v, k))

let prop_diff_shift_left =
  QCheck.Test.make ~name:"differential shift_left" ~count:diff_count gen_shift
    (fun (v, k) ->
      same_bv (fun () -> Bitvec.shift_left v k) (fun () -> Reference.shift_left v k))

let prop_diff_shift_right =
  QCheck.Test.make ~name:"differential shift_right" ~count:diff_count gen_shift
    (fun (v, k) ->
      same_bv (fun () -> Bitvec.shift_right v k) (fun () -> Reference.shift_right v k))

let prop_diff_prefix_mask =
  QCheck.Test.make ~name:"differential prefix_mask" ~count:diff_count
    (QCheck.make
       ~print:(fun (w, l) -> Printf.sprintf "width %d len %d" w l)
       QCheck.Gen.(
         gen_wide_width >>= fun w ->
         (* Lengths 0 and [w] every few draws, and just outside the range. *)
         frequency
           [ (1, return 0); (1, return w); (1, oneofl [ -1; w + 1 ]); (5, int_bound w) ]
         >>= fun l -> return (w, l)))
    (fun (w, l) ->
      same_bv
        (fun () -> Bitvec.prefix_mask ~width:w l)
        (fun () -> Reference.prefix_mask ~width:w l))

let prop_diff_bytes =
  QCheck.Test.make ~name:"differential of_bytes_be / to_bytes_be" ~count:diff_count
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:char (int_range 0 40)))
    (fun s ->
      same_bv (fun () -> Bitvec.of_bytes_be s) (fun () -> Reference.of_bytes_be s)
      && (s = ""
         ||
         let v = Bitvec.of_bytes_be s in
         String.equal (Bitvec.to_bytes_be v) (Reference.to_bytes_be v)
         && String.equal (Bitvec.to_bytes_be v) s))

let prop_diff_to_bytes_any_width =
  QCheck.Test.make ~name:"differential to_bytes_be (any width)" ~count:diff_count
    (QCheck.make ~print:print_bv gen_wide)
    (fun v ->
      same String.equal (fun () -> Bitvec.to_bytes_be v) (fun () -> Reference.to_bytes_be v))

let prop_diff_hex =
  QCheck.Test.make ~name:"differential hex strings" ~count:diff_count
    (QCheck.make ~print:print_bv gen_wide)
    (fun v ->
      let w = Bitvec.width v in
      let s = Bitvec.to_hex_string v in
      String.equal s (Reference.to_hex_string v)
      && Bitvec.equal (Bitvec.of_hex_string ~width:w s) v
      && Bitvec.is_ones v = Reference.is_ones v)

let prop_diff_of_hex =
  QCheck.Test.make ~name:"differential of_hex_string" ~count:diff_count
    (QCheck.make
       ~print:(fun (w, s) -> Printf.sprintf "width %d %S" w s)
       QCheck.Gen.(
         gen_wide_width >>= fun w ->
         (* Shorter and longer than the width, mixed case, and now and then
            a character that is not a hex digit. *)
         let digit =
           let hex = List.init 22 (String.get "0123456789abcdefABCDEF") in
           frequency [ (30, oneofl hex); (1, char) ]
         in
         string_size ~gen:digit (int_range 0 60) >>= fun s -> return (w, s)))
    (fun (w, s) ->
      same_bv
        (fun () -> Bitvec.of_hex_string ~width:w s)
        (fun () -> Reference.of_hex_string ~width:w s))

let differential =
  List.map QCheck_alcotest.to_alcotest
    [ prop_diff_extract; prop_diff_concat; prop_diff_shift_left; prop_diff_shift_right;
      prop_diff_prefix_mask; prop_diff_bytes; prop_diff_to_bytes_any_width; prop_diff_hex;
      prop_diff_of_hex ]

let () =
  Alcotest.run "bitvec"
    [ ("construction",
       [ Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
         Alcotest.test_case "of_int truncates" `Quick test_of_int_truncates;
         Alcotest.test_case "bin strings" `Quick test_bin_string;
         Alcotest.test_case "hex strings" `Quick test_hex_string ]);
      ("arithmetic",
       [ Alcotest.test_case "basics" `Quick test_arith_basics;
         Alcotest.test_case "wide" `Quick test_wide_arith;
         Alcotest.test_case "shifts" `Quick test_shifts;
         Alcotest.test_case "compare" `Quick test_compare_unsigned;
         Alcotest.test_case "popcount" `Quick test_popcount ]);
      ("structure",
       [ Alcotest.test_case "concat/extract" `Quick test_concat_extract;
         Alcotest.test_case "prefix masks" `Quick test_prefix_mask;
         Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip ]);
      ("prefix",
       [ Alcotest.test_case "parse" `Quick test_prefix_parse;
         Alcotest.test_case "match" `Quick test_prefix_match;
         Alcotest.test_case "canonical" `Quick test_prefix_canonical;
         Alcotest.test_case "subsumes" `Quick test_prefix_subsumes ]);
      ("ternary",
       [ Alcotest.test_case "match" `Quick test_ternary;
         Alcotest.test_case "of_prefix" `Quick test_ternary_of_prefix ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "weighted" `Quick test_rng_weighted ]);
      ("properties", props);
      ("differential", differential) ]
