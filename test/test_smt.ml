(* Tests for the SAT core, the term language, and the bit-blasting solver.
   The key property: [Solver.check] agrees with brute-force/reference
   evaluation of the same formula. *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Sat = Switchv_smt.Sat
module Term = Switchv_smt.Term
module Solver = Switchv_smt.Solver

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* --- SAT core ----------------------------------------------------------- *)

let lit s v sign = ignore s; Sat.Lit.make v sign

let test_sat_trivial () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ lit s v true ];
  check_bool "unit sat" true (Sat.solve s = Sat.Sat);
  check_bool "model" true (Sat.value s v)

let test_sat_conflict () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ lit s v true ];
  Sat.add_clause s [ lit s v false ];
  check_bool "x and not x unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_three_coloring_like () =
  (* (a | b) & (~a | b) & (a | ~b) is satisfied only by a=b=true. *)
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ lit s a true; lit s b true ];
  Sat.add_clause s [ lit s a false; lit s b true ];
  Sat.add_clause s [ lit s a true; lit s b false ];
  check_bool "sat" true (Sat.solve s = Sat.Sat);
  check_bool "a" true (Sat.value s a);
  check_bool "b" true (Sat.value s b)

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: unsat. Variables p_{i,h}. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for i = 0 to 2 do
    Sat.add_clause s [ lit s v.(i).(0) true; lit s v.(i).(1) true ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Sat.add_clause s [ lit s v.(i).(h) false; lit s v.(j).(h) false ]
      done
    done
  done;
  check_bool "pigeonhole unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ lit s a false; lit s b true ];
  (* a -> b *)
  check_bool "sat under a" true
    (Sat.solve ~assumptions:[ lit s a true ] s = Sat.Sat);
  check_bool "b forced" true (Sat.value s b);
  check_bool "sat under a & ~b fails" true
    (Sat.solve ~assumptions:[ lit s a true; lit s b false ] s = Sat.Unsat);
  (* Solver still usable after assumption failure. *)
  check_bool "still sat without assumptions" true (Sat.solve s = Sat.Sat)

(* A solve keeps its trail for the next one, back to the first assumption
   that differs; a clause added in between must still be seen. *)
let test_sat_kept_trail () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  let x = Sat.new_var s in
  let kept () = List.assoc "levels_kept" (Sat.stats s) in
  Sat.add_clause s [ lit s a false; lit s x true ];
  (* a -> x *)
  check_bool "sat under a" true
    (Sat.solve_with_assumptions s [ lit s a true ] = Sat.A_sat);
  check_bool "x forced" true (Sat.value s x);
  Sat.add_clause s [ lit s a false; lit s x false ];
  (* a -> ~x: the kept trail already falsifies it *)
  check_bool "unsat under a once a -> ~x joins" true
    (Sat.solve_with_assumptions s [ lit s a true ] = Sat.A_unsat [ lit s a true ]);
  check_bool "sat under b" true
    (Sat.solve_with_assumptions s [ lit s b true; lit s c true ] = Sat.A_sat);
  let before = kept () in
  check_bool "sat under b, ~c" true
    (Sat.solve_with_assumptions s [ lit s b true; lit s c false ] = Sat.A_sat);
  check_int "the level deciding b is kept" (before + 1) (kept ());
  check_bool "c follows its assumption" false (Sat.value s c);
  check_bool "still unsat under a" true
    (Sat.solve_with_assumptions s [ lit s b true; lit s a true ]
    = Sat.A_unsat [ lit s a true ])

let test_sat_random_3sat_vs_bruteforce () =
  (* Cross-check on many small random 3-SAT instances. *)
  let rng = Rng.create 2022 in
  for _ = 1 to 100 do
    let nvars = 4 + Rng.int rng 5 in
    let nclauses = 3 + Rng.int rng 25 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ -> (Rng.int rng nvars, Rng.bool rng)))
    in
    let brute_sat =
      let rec try_assign i assign =
        if i = nvars then
          List.for_all
            (fun cl -> List.exists (fun (v, sign) -> assign.(v) = sign) cl)
            clauses
        else begin
          assign.(i) <- true;
          try_assign (i + 1) assign
          ||
          (assign.(i) <- false;
           try_assign (i + 1) assign)
        end
      in
      try_assign 0 (Array.make nvars false)
    in
    let s = Sat.create () in
    let vars = Array.init nvars (fun _ -> Sat.new_var s) in
    List.iter
      (fun cl -> Sat.add_clause s (List.map (fun (v, sign) -> lit s vars.(v) sign) cl))
      clauses;
    let solver_sat = Sat.solve s = Sat.Sat in
    check_bool "solver agrees with brute force" brute_sat solver_sat;
    (* If sat, the model must satisfy every clause. *)
    if solver_sat then
      List.iter
        (fun cl ->
          check_bool "model satisfies clause" true
            (List.exists (fun (v, sign) -> Sat.value s vars.(v) = sign) cl))
        clauses
  done

(* --- term evaluation ---------------------------------------------------- *)

let c8 n = Term.of_int ~width:8 n

let test_term_const_fold () =
  (* Smart constructors fold constants away. *)
  (match Term.bvadd (c8 1) (c8 2) with
  | Term.Bv_const (_, c) -> check_int "1+2" 3 (Bitvec.to_int_exn c)
  | _ -> Alcotest.fail "expected constant");
  check_bool "eq folds true" true (Term.eq (c8 5) (c8 5) = Term.tru);
  check_bool "eq folds false" true (Term.eq (c8 5) (c8 6) = Term.fls);
  (* Nodes carry ids, so separately built leaves are never [=]: compare
     against the very node passed in, or by value. *)
  let bx = Term.bvar "x" in
  check_bool "and true elides" true (Term.and_ Term.tru bx == bx);
  check_bool "or true absorbs" true (Term.or_ Term.tru bx = Term.tru);
  let x = Term.var "x" 8 in
  check_bool "x & 0 = 0" true
    (match Term.bvand x (c8 0) with
    | Term.Bv_const (_, c) -> Bitvec.is_zero c
    | _ -> false);
  check_bool "x + 0 = x" true (Term.bvadd x (c8 0) == x)

let test_term_eval () =
  let x = Term.var "x" 8 and y = Term.var "y" 8 in
  let env =
    { Term.bv_of =
        (function
        | "x" -> Bitvec.of_int ~width:8 12
        | "y" -> Bitvec.of_int ~width:8 30
        | _ -> assert false);
      bool_of = (fun _ -> assert false) }
  in
  check_int "x+y" 42 (Bitvec.to_int_exn (Term.eval_bv env (Term.bvadd x y)));
  check_bool "x < y" true (Term.eval_bool env (Term.ult x y));
  check_bool "ite" true
    (Bitvec.to_int_exn
       (Term.eval_bv env (Term.ite (Term.ult x y) x y))
    = 12)

let test_term_vars () =
  let x = Term.var "x" 8 and y = Term.var "y" 16 in
  let f = Term.and_ (Term.eq x (c8 1)) (Term.eq y (Term.of_int ~width:16 2)) in
  let vars = Term.bv_vars f in
  check_int "two vars" 2 (List.length vars);
  check_bool "x present" true (List.mem ("x", 8) vars);
  check_bool "y present" true (List.mem ("y", 16) vars)

(* --- solver end-to-end --------------------------------------------------- *)

let solve_one formula =
  let s = Solver.create () in
  Solver.assert_formula s formula;
  Solver.check s

let test_solver_simple_eq () =
  let x = Term.var "x" 8 in
  match solve_one (Term.eq x (c8 42)) with
  | Solver.Sat m ->
      (match m.Solver.bv "x" with
      | Some v -> check_int "x = 42" 42 (Bitvec.to_int_exn v)
      | None -> Alcotest.fail "no model for x")
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_solver_unsat () =
  let x = Term.var "x" 8 in
  check_bool "x=1 & x=2 unsat" true
    (solve_one (Term.and_ (Term.eq x (c8 1)) (Term.eq x (c8 2))) = Solver.Unsat)

let test_solver_add () =
  (* x + y = 10 & x = 3 ==> y = 7 *)
  let x = Term.var "x" 8 and y = Term.var "y" 8 in
  let f = Term.and_ (Term.eq (Term.bvadd x y) (c8 10)) (Term.eq x (c8 3)) in
  match solve_one f with
  | Solver.Sat m ->
      check_int "y" 7 (Bitvec.to_int_exn (Option.get (m.Solver.bv "y")))
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_solver_ult_bounds () =
  (* x < 1 means x = 0 *)
  let x = Term.var "x" 4 in
  (match solve_one (Term.ult x (Term.of_int ~width:4 1)) with
  | Solver.Sat m ->
      check_int "x = 0" 0 (Bitvec.to_int_exn (Option.get (m.Solver.bv "x")))
  | Solver.Unsat -> Alcotest.fail "expected sat");
  (* nothing is < 0 *)
  check_bool "x < 0 unsat" true
    (solve_one (Term.ult x (Term.of_int ~width:4 0)) = Solver.Unsat)

let test_solver_mul () =
  (* x * 3 = 15 over 8 bits: x = 5 or x = 91 or x = 177 (mod 256 solutions). *)
  let x = Term.var "x" 8 in
  match solve_one (Term.eq (Term.bvmul x (c8 3)) (c8 15)) with
  | Solver.Sat m ->
      let v = Bitvec.to_int_exn (Option.get (m.Solver.bv "x")) in
      check_int "x*3 mod 256" 15 (v * 3 mod 256)
  | Solver.Unsat -> Alcotest.fail "expected sat"

let test_solver_assumptions_incremental () =
  (* Program-once, goals-as-assumptions: the p4-symbolic usage pattern. *)
  let s = Solver.create () in
  let x = Term.var "x" 8 in
  Solver.assert_formula s (Term.ult x (c8 100));
  let goal1 = Term.eq x (c8 50) in
  let goal2 = Term.eq x (c8 150) in
  (match Solver.check ~assumptions:[ goal1 ] s with
  | Solver.Sat m -> check_int "goal1" 50 (Bitvec.to_int_exn (Option.get (m.Solver.bv "x")))
  | Solver.Unsat -> Alcotest.fail "goal1 should be sat");
  check_bool "goal2 unsat" true (Solver.check ~assumptions:[ goal2 ] s = Solver.Unsat);
  (* And after a failed assumption, other goals still work. *)
  (match Solver.check ~assumptions:[ Term.eq x (c8 99) ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "99 < 100 should be sat")

(* One solver answers a sequence of canonical checks that share, extend,
   repeat and shorten their assumption lists, so most checks resume from
   the trail the last one left. Each verdict and model must equal a fresh
   solver's, and each core must be unsat on its own. *)
let test_solver_kept_trail_sequence () =
  let x = Term.var "x" 8 and y = Term.var "y" 8 in
  let base = Term.eq (Term.bvadd x y) (c8 100) in
  let p = Term.ult (c8 10) x and q = Term.ult y (c8 50) in
  let r = Term.bvar "b" and s = Term.eq x (c8 5) in
  let canonical = [ Solver.C_bool "b"; Solver.C_bv "x"; Solver.C_bv "y" ] in
  let fresh assumptions =
    let f = Solver.create () in
    Solver.assert_formula f base;
    Solver.check_verdict ~assumptions ~canonical f
  in
  let shared = Solver.create () in
  Solver.assert_formula shared base;
  (* A name the solver never blasted reads back absent: false or zero. *)
  let same (m : Solver.model) (m' : Solver.model) =
    let b (m : Solver.model) = Option.value ~default:false (m.bool "b") in
    let bv (m : Solver.model) n = Option.value ~default:(Bitvec.zero 8) (m.bv n) in
    b m = b m' && List.for_all (fun n -> Bitvec.equal (bv m n) (bv m' n)) [ "x"; "y" ]
  in
  List.iter
    (fun (name, assumptions, expect_sat) ->
      match (Solver.check_verdict ~assumptions ~canonical shared, fresh assumptions) with
      | Solver.V_sat m, Solver.V_sat m' ->
          check_bool (name ^ " sat") true expect_sat;
          check_bool (name ^ " model = fresh model") true (same m m')
      | Solver.V_unsat core, Solver.V_unsat _ ->
          check_bool (name ^ " unsat") false expect_sat;
          let implicated = List.filteri (fun i _ -> List.mem i core) assumptions in
          check_bool (name ^ " core is unsat") true
            (match fresh implicated with Solver.V_unsat _ -> true | Solver.V_sat _ -> false)
      | _ -> Alcotest.failf "%s: shared and fresh verdicts differ" name)
    [ ("[p;q]", [ p; q ], true);
      ("[p;q;r]", [ p; q; r ], true);
      ("[p;s]", [ p; s ], false);
      ("[p;q] again", [ p; q ], true);
      ("[p]", [ p ], true) ];
  check_bool "levels were kept" true
    (List.assoc "levels_kept" (Solver.stats shared) > 0)

(* An order naming only some variables: the model is the lex-min over the
   named ones, whatever the completion of the rest, and satisfies the
   asserted formula (the self-check is on). *)
let test_solver_ordered_completion () =
  let w4 n = Term.of_int ~width:4 n in
  let x = Term.var "x" 4 and y = Term.var "y" 4 and z = Term.var "z" 4 in
  let f =
    Term.and_
      (Term.eq (Term.bvadd x y) (w4 9))
      (Term.and_ (Term.ult y (w4 5)) (Term.ult z x))
  in
  let sat_at vx vz =
    List.exists
      (fun vy ->
        let env =
          { Term.bv_of =
              (fun n ->
                Bitvec.of_int ~width:4 (match n with "x" -> vx | "y" -> vy | _ -> vz));
            bool_of = (fun _ -> false) }
        in
        Term.eval_bool env f)
      (List.init 16 Fun.id)
  in
  let all = List.init 16 Fun.id in
  let min_x = List.find (fun vx -> List.exists (sat_at vx) all) all in
  let min_z = List.find (sat_at min_x) all in
  let value (m : Solver.model) n = Bitvec.to_int_exn (Option.get (m.bv n)) in
  Solver.check_models := true;
  Fun.protect
    ~finally:(fun () -> Solver.check_models := false)
    (fun () ->
      let s = Solver.create () in
      Solver.assert_formula s f;
      (match Solver.check ~canonical:[ Solver.C_bv "x" ] s with
      | Solver.Sat m -> check_int "lex-min x" min_x (value m "x")
      | Solver.Unsat -> Alcotest.fail "expected sat");
      match Solver.check ~canonical:[ Solver.C_bv "x"; Solver.C_bv "z" ] s with
      | Solver.Sat m ->
          check_int "lex-min x first" min_x (value m "x");
          check_int "then lex-min z" min_z (value m "z")
      | Solver.Unsat -> Alcotest.fail "expected sat")

let test_solver_ternary_match () =
  let key = Term.var "key" 32 in
  let value = Bitvec.of_int64 ~width:32 0x0A000000L in
  let mask = Bitvec.prefix_mask ~width:32 8 in
  match solve_one (Term.matches_ternary key ~value ~mask) with
  | Solver.Sat m ->
      let v = Option.get (m.Solver.bv "key") in
      check_bool "model matches the prefix" true
        (Bitvec.equal (Bitvec.logand v mask) value)
  | Solver.Unsat -> Alcotest.fail "expected sat"

(* --- gate encoding ----------------------------------------------------------
   The solver bit-blasts every formula as built, so each query's shape
   reaches the gate encoder unchanged. *)

let gates s = List.assoc "gates" (Solver.stats s)

let canonical_verdict s assumptions canonical =
  Solver.check_models := true;
  Fun.protect
    ~finally:(fun () -> Solver.check_models := false)
    (fun () -> Solver.check ~assumptions ~canonical s)

(* A w-bit equality is one gate over its w bit literals, whichever side
   the constant is on. *)
let test_solver_equality_gate () =
  let x = Term.var "x" 48 in
  let c = Bitvec.of_int64 ~width:48 0xA1B2C3D4E5F6L in
  let s = Solver.create () in
  let g0 = gates s in
  (match canonical_verdict s [ Term.eq x (Term.const c) ] [ Solver.C_bv "x" ] with
  | Solver.Sat m -> check_bool "model is the constant" true (Bitvec.equal c (Option.get (m.bv "x")))
  | Solver.Unsat -> Alcotest.fail "expected sat");
  check_int "one gate" 1 (gates s - g0);
  let g1 = gates s in
  (match canonical_verdict s [ Term.eq (Term.const c) x ] [ Solver.C_bv "x" ] with
  | Solver.Sat m -> check_bool "same model" true (Bitvec.equal c (Option.get (m.bv "x")))
  | Solver.Unsat -> Alcotest.fail "expected sat");
  check_int "constant on the left: no new gate" 0 (gates s - g1)

(* The AND's inputs are deduplicated, and a complementary pair is false. *)
let test_solver_equality_repeated_literal () =
  let x = Term.var "x" 4 in
  let x0 = Term.extract ~hi:0 ~lo:0 x in
  let ones = Term.of_int ~width:2 3 in
  (match canonical_verdict (Solver.create ()) [ Term.eq (Term.concat x0 x0) ones ] [ Solver.C_bv "x" ] with
  | Solver.Sat m -> check_int "x = 1" 1 (Bitvec.to_int_exn (Option.get (m.bv "x")))
  | Solver.Unsat -> Alcotest.fail "x0 x0 = 11 is sat");
  check_bool "x0 ~x0 = 11 unsat" true
    (canonical_verdict (Solver.create ())
       [ Term.eq (Term.concat x0 (Term.bvnot x0)) ones ]
       [ Solver.C_bv "x" ]
    = Solver.Unsat)

(* [ite b k y = x] with a constant arm k, on either side: each bit's mux
   folds to an AND or an OR gate. Verdicts and canonical models must match
   enumeration over (b, x, y), in a fresh solver and in one shared across
   every query. *)
let test_solver_constant_arm_mux () =
  let w4 n = Term.of_int ~width:4 n in
  let b = Term.bvar "b" and x = Term.var "x" 4 and y = Term.var "y" 4 in
  let canonical = [ Solver.C_bool "b"; Solver.C_bv "x"; Solver.C_bv "y" ] in
  let all = List.init 16 Fun.id in
  let lex_min assumptions =
    let env vb vx vy =
      { Term.bv_of = (fun n -> Bitvec.of_int ~width:4 (if n = "x" then vx else vy));
        bool_of = (fun _ -> vb) }
    in
    List.find_map
      (fun vb ->
        List.find_map
          (fun vx ->
            List.find_map
              (fun vy ->
                if List.for_all (Term.eval_bool (env vb vx vy)) assumptions then
                  Some (vb, vx, vy)
                else None)
              all)
          all)
      [ false; true ]
  in
  let of_model (m : Solver.model) =
    let bv n = Option.fold ~none:0 ~some:Bitvec.to_int_exn (m.bv n) in
    (Option.value ~default:false (m.bool "b"), bv "x", bv "y")
  in
  let shared = Solver.create () in
  List.iter
    (fun (name, mux) ->
      List.iter
        (fun (side_name, side) ->
          let assumptions = Term.eq mux x :: side in
          let expect = lex_min assumptions in
          List.iter
            (fun (solver_name, s) ->
              let got =
                match canonical_verdict s assumptions canonical with
                | Solver.Sat m -> Some (of_model m)
                | Solver.Unsat -> None
              in
              check_bool
                (Printf.sprintf "%s, %s, %s solver = enumeration" name side_name solver_name)
                true (got = expect))
            [ ("fresh", Solver.create ()); ("shared", shared) ])
        [ ("alone", []);
          ("x <> y", [ Term.not_ (Term.eq x y) ]);
          ("x = 5", [ Term.eq x (w4 5) ]);
          ("b, x = 5", [ b; Term.eq x (w4 5) ]) ])
    [ ("ite b 1111 y", Term.ite b (w4 15) y);
      ("ite b 0000 y", Term.ite b (w4 0) y);
      ("ite b y 1111", Term.ite b y (w4 15));
      ("ite b y 0000", Term.ite b y (w4 0));
      ("ite b 0110 y", Term.ite b (w4 6) y) ]

(* Property: the solver's model satisfies the formula per reference
   evaluation, on randomly generated formulas. *)

let gen_formula rng =
  (* Random terms over variables x,y,z of width 8. *)
  let vars = [| Term.var "x" 8; Term.var "y" 8; Term.var "z" 8 |] in
  let rec gen_bv depth =
    if depth = 0 then
      if Rng.bool rng then vars.(Rng.int rng 3)
      else Term.of_int ~width:8 (Rng.int rng 256)
    else
      match Rng.int rng 8 with
      | 0 -> Term.bvadd (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 1 -> Term.bvsub (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 2 -> Term.bvand (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 3 -> Term.bvor (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 4 -> Term.bvxor (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 5 -> Term.bvnot (gen_bv (depth - 1))
      | 6 -> Term.ite (gen_bool (depth - 1)) (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | _ -> Term.bvneg (gen_bv (depth - 1))
  and gen_bool depth =
    if depth = 0 then
      match Rng.int rng 3 with
      | 0 -> Term.eq (gen_bv 0) (gen_bv 0)
      | 1 -> Term.ult (gen_bv 0) (gen_bv 0)
      | _ -> Term.ule (gen_bv 0) (gen_bv 0)
    else
      match Rng.int rng 6 with
      | 0 -> Term.and_ (gen_bool (depth - 1)) (gen_bool (depth - 1))
      | 1 -> Term.or_ (gen_bool (depth - 1)) (gen_bool (depth - 1))
      | 2 -> Term.not_ (gen_bool (depth - 1))
      | 3 -> Term.eq (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | 4 -> Term.ult (gen_bv (depth - 1)) (gen_bv (depth - 1))
      | _ -> Term.ule (gen_bv (depth - 1)) (gen_bv (depth - 1))
  in
  gen_bool (1 + Rng.int rng 3)

let test_solver_model_soundness () =
  let rng = Rng.create 77 in
  let n_sat = ref 0 in
  for _ = 1 to 60 do
    let f = gen_formula rng in
    match solve_one f with
    | Solver.Sat m ->
        incr n_sat;
        let env =
          { Term.bv_of =
              (fun name ->
                match m.Solver.bv name with
                | Some v -> v
                | None -> Bitvec.zero 8);
            bool_of =
              (fun name ->
                match m.Solver.bool name with Some b -> b | None -> false) }
        in
        check_bool "model satisfies formula" true (Term.eval_bool env f)
    | Solver.Unsat -> ()
  done;
  check_bool "at least some formulas were sat" true (!n_sat > 5)

let test_solver_completeness_small () =
  (* On width-3 single-variable formulas, UNSAT answers are cross-checked
     against exhaustive enumeration. *)
  let rng = Rng.create 99 in
  for _ = 1 to 60 do
    let x = Term.var "x" 3 in
    let k1 = Term.of_int ~width:3 (Rng.int rng 8) in
    let k2 = Term.of_int ~width:3 (Rng.int rng 8) in
    let f =
      Term.and_
        (Term.ult (Term.bvadd x k1) k2)
        (Term.not_ (Term.eq x k1))
    in
    let brute =
      List.exists
        (fun n ->
          let env =
            { Term.bv_of = (fun _ -> Bitvec.of_int ~width:3 n);
              bool_of = (fun _ -> false) }
          in
          Term.eval_bool env f)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    let solver = solve_one f <> Solver.Unsat in
    check_bool "solver agrees with enumeration" brute solver
  done

let () =
  Alcotest.run "smt"
    [ ("sat",
       [ Alcotest.test_case "trivial" `Quick test_sat_trivial;
         Alcotest.test_case "conflict" `Quick test_sat_conflict;
         Alcotest.test_case "forced assignment" `Quick test_sat_three_coloring_like;
         Alcotest.test_case "pigeonhole unsat" `Quick test_sat_pigeonhole_3_2;
         Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
         Alcotest.test_case "kept trail" `Quick test_sat_kept_trail;
         Alcotest.test_case "random vs brute force" `Slow test_sat_random_3sat_vs_bruteforce ]);
      ("term",
       [ Alcotest.test_case "constant folding" `Quick test_term_const_fold;
         Alcotest.test_case "evaluation" `Quick test_term_eval;
         Alcotest.test_case "variable collection" `Quick test_term_vars ]);
      ("solver",
       [ Alcotest.test_case "simple eq" `Quick test_solver_simple_eq;
         Alcotest.test_case "unsat" `Quick test_solver_unsat;
         Alcotest.test_case "addition" `Quick test_solver_add;
         Alcotest.test_case "ult bounds" `Quick test_solver_ult_bounds;
         Alcotest.test_case "multiplication" `Quick test_solver_mul;
         Alcotest.test_case "incremental assumptions" `Quick test_solver_assumptions_incremental;
         Alcotest.test_case "kept trail sequence" `Quick test_solver_kept_trail_sequence;
         Alcotest.test_case "ordered completion" `Quick test_solver_ordered_completion;
         Alcotest.test_case "ternary match" `Quick test_solver_ternary_match;
         Alcotest.test_case "equality is one gate" `Quick test_solver_equality_gate;
         Alcotest.test_case "equality with repeated literals" `Quick
           test_solver_equality_repeated_literal;
         Alcotest.test_case "constant-arm mux" `Quick test_solver_constant_arm_mux;
         Alcotest.test_case "model soundness (random)" `Slow test_solver_model_soundness;
         Alcotest.test_case "completeness (small)" `Slow test_solver_completeness_small ]) ]
