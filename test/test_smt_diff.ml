(* Property-based differential tests for the SMT stack.

   Every generated QF_BV formula (see {!Qgen}) is small enough to decide
   by exhaustive enumeration of the 2^12 variable assignments; that brute
   verdict is the ground truth every solver pipeline is judged against:

     - a fresh solver per formula (assert + check),
     - a shared solver taking the formula as an assumption,
     - a shared solver assuming the formula conjunct-by-conjunct, with the
       reported unsat core re-checked against enumeration,
     - a shared solver in the packet pipeline's shape: a leading conjunct
       shared by several goals, each goal's own conjuncts and soft
       preferences, all passed as assumptions, unsat cores re-checked.

   Satisfying models are re-evaluated concretely (and [Solver.check_models]
   is on for the whole suite, so the solver additionally self-checks every
   model against the original terms). Canonical models must match the
   enumerated lexicographic minimum, and must agree between fresh and
   shared solvers.

   Failures shrink to a locally minimal reproducer and report the seed.

   Environment knobs (the Makefile's check-smt target uses them):
     SWITCHV_QGEN_SEED     base seed (default 1)
     SWITCHV_QGEN_COUNT    formulas per property (default 500)
     SWITCHV_QGEN_SOAK_MS  extra randomized soak time (default 0) *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Term = Switchv_smt.Term
module Solver = Switchv_smt.Solver
module Clock = Switchv_telemetry.Telemetry.Clock

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let seed = env_int "SWITCHV_QGEN_SEED" 1
let count = env_int "SWITCHV_QGEN_COUNT" 500
let soak_ms = env_int "SWITCHV_QGEN_SOAK_MS" 0

let canonical =
  List.map (fun n -> Solver.C_bool n) Qgen.bool_universe
  @ List.map (fun (n, _) -> Solver.C_bv n) Qgen.bv_universe

(* Evaluate a solver model concretely: absent variables (never blasted)
   are unconstrained, so any fixed default is a valid completion. *)
let eval_under_model (m : Solver.model) formula =
  let env =
    { Term.bv_of =
        (fun n ->
          match m.bv n with
          | Some v -> v
          | None -> Bitvec.zero (List.assoc n Qgen.bv_universe));
      bool_of = (fun n -> Option.value ~default:false (m.bool n)) }
  in
  Term.eval_bool env formula

(* --- the property runner ------------------------------------------------- *)

(* A property maps a formula to [Some complaint] on failure. The runner
   generates [count] formulas; a failure shrinks to a locally minimal
   reproducer before reporting, so the Alcotest message is actionable. *)
let run_property ~name ~seed ~count prop =
  let guarded f =
    try prop f with
    | Alcotest.Test_error -> raise Alcotest.Test_error
    | e -> Some (Printf.sprintf "raised %s" (Printexc.to_string e))
  in
  let rng = Rng.create seed in
  for i = 1 to count do
    let f = Qgen.gen_formula rng in
    match guarded f with
    | None -> ()
    | Some complaint ->
        let minimal = Qgen.shrink ~still_fails:(fun g -> guarded g <> None) f in
        let complaint =
          match guarded minimal with Some c -> c | None -> complaint
        in
        Alcotest.failf
          "%s failed on formula %d/%d (SWITCHV_QGEN_SEED=%d): %s@.full term: \
           %s@.minimal reproducer: %s"
          name i count seed complaint (Qgen.to_string f) (Qgen.to_string minimal)
  done

(* --- properties ----------------------------------------------------------- *)

let verdict_to_string = function true -> "SAT" | false -> "UNSAT"

(* Shared solvers accumulate state across formulas on purpose — reusing
   learned clauses and Tseitin memos across unrelated queries is exactly
   the surface the incremental pipeline relies on. *)
let shared_assume = Solver.create ()
let shared_conjuncts = Solver.create ()

let prop_verdicts f =
  let brute = Qgen.brute_sat f in
  let complain mode got =
    Some
      (Printf.sprintf "%s says %s, enumeration says %s" mode
         (verdict_to_string got) (verdict_to_string brute))
  in
  let scratch =
    let s = Solver.create () in
    Solver.assert_formula s f;
    match Solver.check s with Solver.Sat _ -> true | Solver.Unsat -> false
  in
  if scratch <> brute then complain "fresh solver" scratch
  else
    let assumed =
      match Solver.check ~assumptions:[ f ] shared_assume with
      | Solver.Sat _ -> true
      | Solver.Unsat -> false
    in
    if assumed <> brute then complain "shared solver (assumption)" assumed
    else
      let conjuncts = Term.flatten_conj f in
      match Solver.check_verdict ~assumptions:conjuncts shared_conjuncts with
      | Solver.V_sat m ->
          if not brute then complain "shared solver (conjuncts)" true
          else if not (eval_under_model m f) then
            Some "conjunct-assumption model does not satisfy the formula"
          else None
      | Solver.V_unsat core ->
          if brute then complain "shared solver (conjuncts)" false
          else
            (* The implicated conjunct subset must itself be unsat — that
               is the contract packetgen's cascade skipping relies on. *)
            let implicated =
              List.filteri (fun i _ -> List.mem i core) conjuncts
            in
            if Qgen.brute_sat (Term.conj implicated) then
              Some
                (Printf.sprintf
                   "unsat core (positions %s) is satisfiable by enumeration"
                   (String.concat "," (List.map string_of_int core)))
            else None

(* Variables the solver never blasted (the formula folded them away, or
   never mentioned them) are unconstrained; their lexicographically minimal
   completion is the zero/false default — the same default packet
   extraction uses. The completed model must therefore equal the enumerated
   minimum on the WHOLE universe, not just the mentioned variables. *)
let canonical_mismatch tag (m : Solver.model) (best : Qgen.assignment) =
  List.find_map
    (fun (n, w) ->
      let expect = List.assoc n best.Qgen.a_bv in
      let got = Option.value ~default:(Bitvec.zero w) (m.Solver.bv n) in
      if Bitvec.equal got expect then None
      else
        Some
          (Printf.sprintf "%s: canonical %s = %s, enumeration %s" tag n
             (Bitvec.to_hex_string got) (Bitvec.to_hex_string expect)))
    Qgen.bv_universe
  |> function
  | Some e -> Some e
  | None ->
      List.find_map
        (fun n ->
          let expect = List.assoc n best.Qgen.a_bool in
          let got = Option.value ~default:false (m.Solver.bool n) in
          if got = expect then None
          else
            Some
              (Printf.sprintf "%s: canonical %s = %b, enumeration %b" tag n got
                 expect))
        Qgen.bool_universe

let shared_canonical = Solver.create ()

let prop_canonical f =
  match Qgen.brute_canonical f with
  | None -> (
      match Solver.check ~assumptions:[ f ] ~canonical shared_canonical with
      | Solver.Unsat -> None
      | Solver.Sat _ -> Some "solver says SAT, enumeration says UNSAT")
  | Some best -> (
      let scratch =
        let s = Solver.create () in
        Solver.assert_formula s f;
        Solver.check ~canonical s
      in
      let shared = Solver.check ~assumptions:[ f ] ~canonical shared_canonical in
      match (scratch, shared) with
      | Solver.Unsat, _ | _, Solver.Unsat ->
          Some "solver says UNSAT, enumeration says SAT"
      | Solver.Sat m_scratch, Solver.Sat m_shared -> (
          match canonical_mismatch "fresh" m_scratch best with
          | Some e -> Some e
          | None -> canonical_mismatch "shared" m_shared best))

(* The shape packet generation drives a solver in: the formula's first
   conjunct is the leading assumption of several goals, as a table's
   shared guard context is; each goal assumes it, then the remaining
   conjuncts plus goal-specific ones, under a cascade of soft preferences
   that is relaxed when unsat. One solver serves every formula, so each
   goal also runs against everything the earlier ones learned and
   blasted. Each goal's cascade is followed by checks that repeat its last
   assumption list and then extend it, and every failed check by one over
   the assumptions before its failed one: the solver resumes each from the
   trail the previous check left. Every model must be the enumerated
   lexicographic minimum of the assumptions, and every unsat core (whose
   positions count the leading conjunct) must be unsat on its own. *)
let shared_grouped = Solver.create ()

let goal_suffixes, soft_prefer, soft_port =
  let x = Term.var "x" 4 and y = Term.var "y" 4 and z = Term.var "z" 3 in
  ( [ [];
      [ Term.bvar "b" ];
      [ Term.ult y x; Term.not_ (Term.bvar "b") ];
      [ Term.eq z (Term.of_int ~width:3 5); Term.ule x y ] ],
    Term.eq y (Term.of_int ~width:4 9),
    Term.eq x (Term.of_int ~width:4 3) )

let prop_grouped f =
  let rec check_attempt ~retry assumptions =
    match Solver.check_verdict ~assumptions ~canonical shared_grouped with
    | Solver.V_sat m -> (
        match Qgen.brute_canonical (Term.conj assumptions) with
        | None -> Some "grouped solver says SAT, enumeration says UNSAT"
        | Some best -> canonical_mismatch "grouped" m best)
    | Solver.V_unsat core ->
        let implicated = List.filteri (fun i _ -> List.mem i core) assumptions in
        if Qgen.brute_sat (Term.conj implicated) then
          Some
            (Printf.sprintf "grouped unsat core (positions %s) is satisfiable"
               (String.concat "," (List.map string_of_int core)))
        else if retry && core <> [] then
          (* The failed assumption is the core's last position, unless a
             later position repeats an implicated literal. *)
          let failed = List.fold_left max 0 core in
          check_attempt ~retry:false (List.filteri (fun i _ -> i < failed) assumptions)
        else None
  in
  let conjuncts = Term.flatten_conj f in
  let check_goal extra =
    let goal = conjuncts @ extra in
    List.find_map (check_attempt ~retry:true)
      [ goal @ [ soft_prefer; soft_port ];
        goal @ [ soft_prefer ];
        goal @ [ soft_port ];
        goal;
        goal;
        goal @ [ soft_port; soft_prefer ] ]
  in
  List.find_map check_goal goal_suffixes

(* --- Alcotest wiring ------------------------------------------------------ *)

let test_verdicts () =
  run_property ~name:"verdict agreement" ~seed ~count prop_verdicts

let test_canonical () =
  run_property ~name:"canonical models" ~seed:(seed + 1) ~count prop_canonical

(* Each formula costs sixteen enumerations here, so fewer are drawn. *)
let test_grouped () =
  run_property ~name:"grouped canonical models" ~seed:(seed + 4)
    ~count:(max 1 (count / 5)) prop_grouped

(* Time-boxed randomized soak: keeps drawing fresh seeds until the budget
   runs out. Off by default (SWITCHV_QGEN_SOAK_MS=0) so dune runtest stays
   deterministic; make check-smt runs it with a couple of seconds. *)
let test_soak () =
  let deadline = Clock.now () +. (float_of_int soak_ms /. 1000.) in
  let round = ref 0 in
  while Clock.now () < deadline do
    incr round;
    let round_seed = (seed * 1_000_003) + !round in
    run_property ~name:"soak verdicts" ~seed:round_seed ~count:25 prop_verdicts;
    run_property ~name:"soak canonical" ~seed:(round_seed + 7919) ~count:10
      prop_canonical;
    run_property ~name:"soak grouped" ~seed:(round_seed + 104729) ~count:2
      prop_grouped
  done

let () =
  Solver.check_models := true;
  Alcotest.run "smt-diff"
    [ ( "differential",
        [ Alcotest.test_case "verdict agreement vs enumeration" `Quick
            test_verdicts;
          Alcotest.test_case "canonical models vs enumeration" `Quick
            test_canonical;
          Alcotest.test_case "grouped shared solver vs enumeration" `Quick
            test_grouped ] );
      ("soak", [ Alcotest.test_case "randomized soak" `Slow test_soak ]) ]
