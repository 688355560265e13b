(* Seeded property-based generator for QF_BV formulas, with an exhaustive
   reference evaluator and structural shrinking.

   No external PBT dependency: entropy comes from Switchv_bitvec.Rng
   (splitmix64), so a failing term is reproducible from its seed alone.
   The variable universe is deliberately tiny — x:4, y:4, z:3 plus one
   boolean — so the full assignment space is 2^12 and brute-force
   enumeration is the ground truth the solver is judged against. *)

module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng
module Term = Switchv_smt.Term

let bv_universe = [ ("x", 4); ("y", 4); ("z", 3) ]
let bool_universe = [ "b" ]

(* --- generation --------------------------------------------------------- *)

(* Generated terms go through the smart constructors, like every real
   client of the term language: the generator exercises the folder too. *)

let gen_const rng width = Term.const (Rng.bitvec rng width)

let gen_var rng width =
  match List.filter (fun (_, w) -> w = width) bv_universe with
  | [] -> gen_const rng width
  | candidates ->
      let name, w = Rng.choose rng candidates in
      Term.var name w

let rec gen_bv rng ~depth width =
  if depth = 0 || width > 8 then
    if Rng.bool rng then gen_var rng width else gen_const rng width
  else
    let sub w = gen_bv rng ~depth:(depth - 1) w in
    match Rng.int rng 14 with
    | 0 -> gen_var rng width
    | 1 -> gen_const rng width
    | 2 -> Term.bvnot (sub width)
    | 3 -> Term.bvneg (sub width)
    | 4 -> Term.bvand (sub width) (sub width)
    | 5 -> Term.bvor (sub width) (sub width)
    | 6 -> Term.bvxor (sub width) (sub width)
    | 7 -> Term.bvadd (sub width) (sub width)
    | 8 -> Term.bvsub (sub width) (sub width)
    | 9 -> Term.bvmul (sub width) (sub width)
    | 10 when width >= 2 ->
        let lo_w = 1 + Rng.int rng (width - 1) in
        Term.concat (sub (width - lo_w)) (sub lo_w)
    | 11 ->
        (* Extract [width] bits out of a wider term. *)
        let outer = width + Rng.int rng (max 1 (9 - width)) in
        let lo = Rng.int rng (outer - width + 1) in
        Term.extract ~hi:(lo + width - 1) ~lo (sub outer)
    | 12 when width >= 2 ->
        let inner = 1 + Rng.int rng (width - 1) in
        Term.zero_ext width (sub inner)
    | 13 -> Term.ite (gen_bool rng ~depth:(depth - 1)) (sub width) (sub width)
    | _ -> gen_var rng width

and gen_bool rng ~depth =
  if depth = 0 then
    match Rng.int rng 3 with
    | 0 -> Term.bvar (Rng.choose rng bool_universe)
    | 1 -> Term.tru
    | _ -> Term.fls
  else
    let sub () = gen_bool rng ~depth:(depth - 1) in
    let w = Rng.choose rng [ 1; 3; 4; 8 ] in
    let bv () = gen_bv rng ~depth:(depth - 1) w in
    match Rng.int rng 10 with
    | 0 -> Term.bvar (Rng.choose rng bool_universe)
    | 1 -> Term.eq (bv ()) (bv ())
    | 2 -> Term.ult (bv ()) (bv ())
    | 3 -> Term.ule (bv ()) (bv ())
    | 4 -> Term.not_ (sub ())
    | 5 -> Term.and_ (sub ()) (sub ())
    | 6 -> Term.or_ (sub ()) (sub ())
    | 7 -> Term.bite (sub ()) (sub ()) (sub ())
    | 8 ->
        (* A top-level-style conjunction with an equality against a
           constant, the shape of a guard over an installed entry's
           match value. *)
        let name, w = Rng.choose rng bv_universe in
        Term.and_ (Term.eq (Term.var name w) (gen_const rng w)) (sub ())
    | _ -> Term.tru

let gen_formula rng = gen_bool rng ~depth:(2 + Rng.int rng 3)

(* --- exhaustive reference evaluation ------------------------------------ *)

type assignment = { a_bv : (string * Bitvec.t) list; a_bool : (string * bool) list }

let env_of a =
  { Term.bv_of = (fun n -> List.assoc n a.a_bv);
    bool_of = (fun n -> List.assoc n a.a_bool) }

let all_assignments () =
  let rec bvs acc = function
    | [] -> [ acc ]
    | (name, w) :: rest ->
        List.concat_map
          (fun v -> bvs ((name, Bitvec.of_int ~width:w v) :: acc) rest)
          (List.init (1 lsl w) Fun.id)
  in
  let rec bools acc = function
    | [] -> [ acc ]
    | name :: rest ->
        List.concat_map (fun v -> bools ((name, v) :: acc) rest) [ false; true ]
  in
  (* [bvs]/[bools] build their lists back-to-front, so seed them with the
     reversed universe: assignments come out in lexicographic order with
     the FIRST universe entry most significant. *)
  List.concat_map
    (fun a_bool -> List.map (fun a_bv -> { a_bv; a_bool }) (bvs [] (List.rev bv_universe)))
    (bools [] (List.rev bool_universe))

(* Memoised: 4096 assignments, built once. *)
let assignments = lazy (all_assignments ())

let sat_assignments formula =
  List.filter
    (fun a -> Term.eval_bool (env_of a) formula)
    (Lazy.force assignments)

let brute_sat formula =
  List.exists (fun a -> Term.eval_bool (env_of a) formula) (Lazy.force assignments)

(* The lexicographically minimal satisfying assignment under the canonical
   order booleans-then-bitvectors in universe order, booleans false-first,
   bitvectors numerically minimal — the same order the solver's canonical
   model extraction uses. *)
let brute_canonical formula =
  let key a =
    List.map (fun n -> if List.assoc n a.a_bool then 1 else 0) bool_universe
    @ List.map
        (fun (n, _) -> Bitvec.to_int_exn (List.assoc n a.a_bv))
        bv_universe
  in
  match sat_assignments formula with
  | [] -> None
  | sats ->
      Some
        (List.fold_left
           (fun best a -> if compare (key a) (key best) < 0 then a else best)
           (List.hd sats) (List.tl sats))

(* --- shrinking ----------------------------------------------------------- *)

(* One-step shrink candidates: replace a node by a same-width subterm or a
   trivial leaf. Greedy outer loop in [shrink] keeps any candidate that
   still fails the property, so the reported term is locally minimal. *)

let rec shrink_bv (t : Term.bv) : Term.bv list =
  let w = Term.bv_width t in
  let zero = Term.const (Bitvec.zero w) in
  match t with
  | Term.Bv_const _ -> []
  | Term.Bv_var _ -> [ zero ]
  | Term.Bv_not (_, a) | Term.Bv_neg (_, a) | Term.Bv_zero_ext (_, _, a)
    when Term.bv_width a = w ->
      (a :: List.map (fun a' -> rebuild1 t a') (shrink_bv a)) @ [ zero ]
  | Term.Bv_not (_, a) | Term.Bv_neg (_, a) ->
      List.map (fun a' -> rebuild1 t a') (shrink_bv a) @ [ zero ]
  | Term.Bv_zero_ext (_, tw, a) ->
      List.map (fun a' -> Term.zero_ext tw a') (shrink_bv a) @ [ zero ]
  | Term.Bv_extract (_, hi, lo, a) ->
      List.map (fun a' -> Term.extract ~hi ~lo a') (shrink_bv a) @ [ zero ]
  | Term.Bv_and (_, a, b) | Term.Bv_or (_, a, b) | Term.Bv_xor (_, a, b)
  | Term.Bv_add (_, a, b) | Term.Bv_sub (_, a, b) | Term.Bv_mul (_, a, b) ->
      [ a; b ]
      @ List.map (fun a' -> rebuild2 t a' b) (shrink_bv a)
      @ List.map (fun b' -> rebuild2 t a b') (shrink_bv b)
      @ [ zero ]
  | Term.Bv_concat (_, a, b) ->
      List.map (fun a' -> Term.concat a' b) (shrink_bv a)
      @ List.map (fun b' -> Term.concat a b') (shrink_bv b)
      @ [ zero ]
  | Term.Bv_ite (_, c, a, b) ->
      [ a; b ]
      @ List.map (fun c' -> Term.ite c' a b) (shrink_bool c)
      @ List.map (fun a' -> Term.ite c a' b) (shrink_bv a)
      @ List.map (fun b' -> Term.ite c a b') (shrink_bv b)
      @ [ zero ]

and rebuild1 t a =
  match t with
  | Term.Bv_not _ -> Term.bvnot a
  | Term.Bv_neg _ -> Term.bvneg a
  | _ -> a

and rebuild2 t a b =
  match t with
  | Term.Bv_and _ -> Term.bvand a b
  | Term.Bv_or _ -> Term.bvor a b
  | Term.Bv_xor _ -> Term.bvxor a b
  | Term.Bv_add _ -> Term.bvadd a b
  | Term.Bv_sub _ -> Term.bvsub a b
  | Term.Bv_mul _ -> Term.bvmul a b
  | _ -> a

and shrink_bool (f : Term.boolean) : Term.boolean list =
  match f with
  | Term.B_true | Term.B_false -> []
  | Term.B_var _ -> [ Term.tru; Term.fls ]
  | Term.B_eq (_, a, b) ->
      List.map (fun a' -> Term.eq a' b) (shrink_bv a)
      @ List.map (fun b' -> Term.eq a b') (shrink_bv b)
      @ [ Term.tru; Term.fls ]
  | Term.B_ult (_, a, b) ->
      List.map (fun a' -> Term.ult a' b) (shrink_bv a)
      @ List.map (fun b' -> Term.ult a b') (shrink_bv b)
      @ [ Term.tru; Term.fls ]
  | Term.B_ule (_, a, b) ->
      List.map (fun a' -> Term.ule a' b) (shrink_bv a)
      @ List.map (fun b' -> Term.ule a b') (shrink_bv b)
      @ [ Term.tru; Term.fls ]
  | Term.B_not (_, a) ->
      (a :: List.map Term.not_ (shrink_bool a)) @ [ Term.tru; Term.fls ]
  | Term.B_and (_, a, b) ->
      [ a; b ]
      @ List.map (fun a' -> Term.and_ a' b) (shrink_bool a)
      @ List.map (fun b' -> Term.and_ a b') (shrink_bool b)
      @ [ Term.tru; Term.fls ]
  | Term.B_or (_, a, b) ->
      [ a; b ]
      @ List.map (fun a' -> Term.or_ a' b) (shrink_bool a)
      @ List.map (fun b' -> Term.or_ a b') (shrink_bool b)
      @ [ Term.tru; Term.fls ]
  | Term.B_ite (_, c, a, b) ->
      [ a; b ]
      @ List.map (fun c' -> Term.bite c' a b) (shrink_bool c)
      @ List.map (fun a' -> Term.bite c a' b) (shrink_bool a)
      @ List.map (fun b' -> Term.bite c a b') (shrink_bool b)
      @ [ Term.tru; Term.fls ]

(* Greedily shrink [formula] while [still_fails] holds: try each one-step
   candidate in order, restart from the first that still fails, stop at a
   local minimum. Candidate evaluation is capped so a pathological property
   (e.g. one that crashes the solver slowly) cannot hang the suite. *)
let shrink ~still_fails formula =
  let budget = ref 2000 in
  let rec go current =
    let next =
      List.find_opt
        (fun candidate ->
          decr budget;
          !budget > 0
          && (try still_fails candidate with _ -> true))
        (shrink_bool current)
    in
    match next with Some smaller -> go smaller | None -> current
  in
  go formula

let to_string formula = Format.asprintf "%a" Term.pp_bool formula
