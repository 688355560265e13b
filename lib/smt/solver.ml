module Bitvec = Switchv_bitvec.Bitvec
module Telemetry = Switchv_telemetry.Telemetry
module Lit = Sat.Lit

module Id_tbl = Term.Id_tbl

(* Gate memo keys: two literals packed into one int ([fresh] keeps
   literals below 2^31); the mux memo pairs its condition with such a key,
   and the n-ary AND memo keys on its sorted input literals. *)
let pack x y = (x lsl 31) lor y

module Pair_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Triple_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a : int), (b : int)) (c, d) = a = c && b = d
  let hash = Hashtbl.hash
end)

module Lits_tbl = Hashtbl.Make (struct
  type t = Lit.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

  (* [Hashtbl.hash] looks at the first 10 literals only. *)
  let hash a = Array.fold_left (fun h (l : Lit.t) -> (h * 31) + (l :> int)) 0 a
end)

type canonical_var = C_bool of string | C_bv of string

(* The Tseitin environment (variable maps, term memos keyed by node id,
   gate memos keyed by literals) lives as long as the solver: a subterm
   shared between assertions and assumptions, or between the assumptions
   of successive checks, bit-blasts exactly once. [originals] keeps the
   asserted formulas for the self-check mode. *)
type t = {
  sat : Sat.t;
  true_lit : Lit.t;
  bv_vars : (string, Lit.t array) Hashtbl.t;
  bool_vars : (string, Lit.t) Hashtbl.t;
  bv_memo : Lit.t array Id_tbl.t;
  bool_memo : Lit.t Id_tbl.t;
  and_memo : Lit.t Pair_tbl.t;
  xor_memo : Lit.t Pair_tbl.t;
  mux_memo : Lit.t Triple_tbl.t;
  nary_memo : Lit.t Lits_tbl.t;
  mutable n_gates : int;
  mutable originals : Term.boolean list;
  (* The last canonical order built: for which list, and how many names
     were blasted then. *)
  mutable order_of : canonical_var list;
  mutable order_names : int;
  mutable order : Lit.t array;
}

let check_models = ref false

exception Model_mismatch of string

let create () =
  let sat = Sat.create () in
  let v0 = Sat.new_var sat in
  let true_lit = Lit.make v0 true in
  Sat.add_clause sat [ true_lit ];
  { sat; true_lit;
    bv_vars = Hashtbl.create 64;
    bool_vars = Hashtbl.create 16;
    bv_memo = Id_tbl.create 1024;
    bool_memo = Id_tbl.create 1024;
    and_memo = Pair_tbl.create 4096;
    xor_memo = Pair_tbl.create 1024;
    mux_memo = Triple_tbl.create 1024;
    nary_memo = Lits_tbl.create 1024;
    n_gates = 0;
    originals = [];
    order_of = [];
    order_names = 0;
    order = [||] }

let lit_true t = t.true_lit
let lit_false t = Lit.neg t.true_lit
let is_true t l = l = lit_true t
let is_false t l = l = lit_false t
let of_bool t b = if b then lit_true t else lit_false t

let fresh t =
  let v = Sat.new_var t.sat in
  if v >= 1 lsl 30 then failwith "Solver: more than 2^30 variables";
  Lit.make v true

let li l = (l : Lit.t :> int)

let new_gate t =
  t.n_gates <- t.n_gates + 1;
  fresh t

let and_gate t a b =
  if is_false t a || is_false t b then lit_false t
  else if is_true t a then b
  else if is_true t b then a
  else if a = b then a
  else if a = Lit.neg b then lit_false t
  else begin
    let x, y = if li a < li b then (a, b) else (b, a) in
    let key = pack (li x) (li y) in
    match Pair_tbl.find_opt t.and_memo key with
    | Some o -> o
    | None ->
        let o = new_gate t in
        Sat.add_clause t.sat [ Lit.neg o; x ];
        Sat.add_clause t.sat [ Lit.neg o; y ];
        Sat.add_clause t.sat [ o; Lit.neg x; Lit.neg y ];
        Pair_tbl.add t.and_memo key o;
        o
  end

let or_gate t a b = Lit.neg (and_gate t (Lit.neg a) (Lit.neg b))

let xor_gate t a b =
  if is_false t a then b
  else if is_false t b then a
  else if is_true t a then Lit.neg b
  else if is_true t b then Lit.neg a
  else if a = b then lit_false t
  else if a = Lit.neg b then lit_true t
  else begin
    let x, y = if li a < li b then (a, b) else (b, a) in
    let key = pack (li x) (li y) in
    match Pair_tbl.find_opt t.xor_memo key with
    | Some o -> o
    | None ->
        let o = new_gate t in
        Sat.add_clause t.sat [ Lit.neg o; x; y ];
        Sat.add_clause t.sat [ Lit.neg o; Lit.neg x; Lit.neg y ];
        Sat.add_clause t.sat [ o; Lit.neg x; y ];
        Sat.add_clause t.sat [ o; x; Lit.neg y ];
        Pair_tbl.add t.xor_memo key o;
        o
  end

let xnor_gate t a b = Lit.neg (xor_gate t a b)

(* mux c a b = if c then a else b. A constant arm makes it an AND or an
   OR gate, which shares the binary memo. *)
let mux_gate t c a b =
  if is_true t c then a
  else if is_false t c then b
  else if a = b then a
  else if is_true t a then or_gate t c b
  else if is_false t a then and_gate t (Lit.neg c) b
  else if is_true t b then or_gate t (Lit.neg c) a
  else if is_false t b then and_gate t c a
  else
    let key = (li c, pack (li a) (li b)) in
    match Triple_tbl.find_opt t.mux_memo key with
    | Some o -> o
    | None ->
        let o = new_gate t in
        Sat.add_clause t.sat [ Lit.neg c; Lit.neg a; o ];
        Sat.add_clause t.sat [ Lit.neg c; a; Lit.neg o ];
        Sat.add_clause t.sat [ c; Lit.neg b; o ];
        Sat.add_clause t.sat [ c; b; Lit.neg o ];
        (* Redundant but propagation-strengthening clauses. *)
        Sat.add_clause t.sat [ Lit.neg a; Lit.neg b; o ];
        Sat.add_clause t.sat [ a; b; Lit.neg o ];
        Triple_tbl.add t.mux_memo key o;
        o

(* The conjunction of [lits] as one gate [o]: a clause [~o \/ x] per input
   and one clause [o \/ ~x1 \/ ... \/ ~xn]. On the inputs, unit
   propagation derives from it what it derives from a chain of binary
   gates, with one variable instead of n - 1. *)
let and_reduce t lits =
  if Array.exists (is_false t) lits then lit_false t
  else
    let xs =
      Array.to_list lits
      |> List.filter (fun l -> not (is_true t l))
      |> List.sort_uniq (fun a b -> Int.compare (li a) (li b))
      |> Array.of_list
    in
    let n = Array.length xs in
    (* Sorted, a complementary pair is adjacent: 2v, then 2v + 1. *)
    let rec clash i = i + 1 < n && (xs.(i + 1) = Lit.neg xs.(i) || clash (i + 1)) in
    if clash 0 then lit_false t
    else if n = 0 then lit_true t
    else if n = 1 then xs.(0)
    else if n = 2 then and_gate t xs.(0) xs.(1)
    else
      match Lits_tbl.find_opt t.nary_memo xs with
      | Some o -> o
      | None ->
          let o = new_gate t in
          Array.iter (fun x -> Sat.add_clause t.sat [ Lit.neg o; x ]) xs;
          Sat.add_clause t.sat (o :: Array.to_list (Array.map Lit.neg xs));
          Lits_tbl.add t.nary_memo xs o;
          o

(* Vectors are LSB-first literal arrays. *)

let bv_var_lits t name width =
  match Hashtbl.find_opt t.bv_vars name with
  | Some lits ->
      if Array.length lits <> width then
        invalid_arg (Printf.sprintf "Solver: variable %s blasted at two widths" name);
      lits
  | None ->
      let lits = Array.init width (fun _ -> fresh t) in
      Hashtbl.add t.bv_vars name lits;
      lits

let bool_var_lit t name =
  match Hashtbl.find_opt t.bool_vars name with
  | Some l -> l
  | None ->
      let l = fresh t in
      Hashtbl.add t.bool_vars name l;
      l

let const_lits t c =
  Array.init (Bitvec.width c) (fun i -> of_bool t (Bitvec.bit c i))

let add_lits t ?(carry_in = None) a b =
  let w = Array.length a in
  let out = Array.make w (lit_false t) in
  let carry = ref (match carry_in with Some c -> c | None -> lit_false t) in
  for i = 0 to w - 1 do
    let axb = xor_gate t a.(i) b.(i) in
    out.(i) <- xor_gate t axb !carry;
    carry := or_gate t (and_gate t a.(i) b.(i)) (and_gate t axb !carry)
  done;
  out

let not_lits a = Array.map Lit.neg a

let neg_lits t a =
  let w = Array.length a in
  let zero = Array.make w (lit_false t) in
  add_lits t ~carry_in:(Some (lit_true t)) zero (not_lits a)

let sub_lits t a b = add_lits t ~carry_in:(Some (lit_true t)) a (not_lits b)

let mul_lits t a b =
  let w = Array.length a in
  let acc = ref (Array.make w (lit_false t)) in
  for i = 0 to w - 1 do
    (* addend = (a << i) masked by b.(i) *)
    let addend =
      Array.init w (fun j -> if j < i then lit_false t else and_gate t a.(j - i) b.(i))
    in
    acc := add_lits t !acc addend
  done;
  !acc

let eq_lits t a b =
  and_reduce t (Array.init (Array.length a) (fun i -> xnor_gate t a.(i) b.(i)))

(* Unsigned a < b: the borrow out of a - b. *)
let ult_lits t a b =
  let borrow = ref (lit_false t) in
  for i = 0 to Array.length a - 1 do
    let nab = and_gate t (Lit.neg a.(i)) b.(i) in
    let same = xnor_gate t a.(i) b.(i) in
    borrow := or_gate t nab (and_gate t same !borrow)
  done;
  !borrow

let mux_lits t c a b = Array.init (Array.length a) (fun i -> mux_gate t c a.(i) b.(i))

let rec blast_bv t (term : Term.bv) : Lit.t array =
  match term with
  | Term.Bv_const (_, c) -> const_lits t c
  | Term.Bv_var (_, name, w) -> bv_var_lits t name w
  | _ ->
      let id = Term.bv_id term in
      (match Id_tbl.find_opt t.bv_memo id with
      | Some lits -> lits
      | None ->
          let lits =
            match term with
            | Term.Bv_const _ | Term.Bv_var _ -> assert false
            | Term.Bv_not (_, a) -> not_lits (blast_bv t a)
            | Term.Bv_neg (_, a) -> neg_lits t (blast_bv t a)
            | Term.Bv_and (_, a, b) ->
                let a = blast_bv t a and b = blast_bv t b in
                Array.init (Array.length a) (fun i -> and_gate t a.(i) b.(i))
            | Term.Bv_or (_, a, b) ->
                let a = blast_bv t a and b = blast_bv t b in
                Array.init (Array.length a) (fun i -> or_gate t a.(i) b.(i))
            | Term.Bv_xor (_, a, b) ->
                let a = blast_bv t a and b = blast_bv t b in
                Array.init (Array.length a) (fun i -> xor_gate t a.(i) b.(i))
            | Term.Bv_add (_, a, b) -> add_lits t (blast_bv t a) (blast_bv t b)
            | Term.Bv_sub (_, a, b) -> sub_lits t (blast_bv t a) (blast_bv t b)
            | Term.Bv_mul (_, a, b) -> mul_lits t (blast_bv t a) (blast_bv t b)
            | Term.Bv_concat (_, hi, lo) ->
                let hi = blast_bv t hi and lo = blast_bv t lo in
                Array.append lo hi
            | Term.Bv_extract (_, hi, lo, a) ->
                let a = blast_bv t a in
                Array.sub a lo (hi - lo + 1)
            | Term.Bv_zero_ext (_, w, a) ->
                let a = blast_bv t a in
                Array.init w (fun i -> if i < Array.length a then a.(i) else lit_false t)
            | Term.Bv_ite (_, c, a, b) ->
                let c = blast_bool t c in
                mux_lits t c (blast_bv t a) (blast_bv t b)
          in
          Id_tbl.add t.bv_memo id lits;
          lits)

and blast_bool t (term : Term.boolean) : Lit.t =
  match term with
  | Term.B_true -> lit_true t
  | Term.B_false -> lit_false t
  | Term.B_var (_, name) -> bool_var_lit t name
  | _ ->
      let id = Term.bool_id term in
      (match Id_tbl.find_opt t.bool_memo id with
      | Some l -> l
      | None ->
          let l =
            match term with
            | Term.B_true | Term.B_false | Term.B_var _ -> assert false
            | Term.B_eq (_, a, b) -> eq_lits t (blast_bv t a) (blast_bv t b)
            | Term.B_ult (_, a, b) -> ult_lits t (blast_bv t a) (blast_bv t b)
            | Term.B_ule (_, a, b) -> Lit.neg (ult_lits t (blast_bv t b) (blast_bv t a))
            | Term.B_not (_, a) -> Lit.neg (blast_bool t a)
            | Term.B_and (_, a, b) -> and_gate t (blast_bool t a) (blast_bool t b)
            | Term.B_or (_, a, b) -> or_gate t (blast_bool t a) (blast_bool t b)
            | Term.B_ite (_, c, a, b) ->
                mux_gate t (blast_bool t c) (blast_bool t a) (blast_bool t b)
          in
          Id_tbl.add t.bool_memo id l;
          l)

let assert_formula t formula =
  Sat.add_clause t.sat [ blast_bool t formula ];
  t.originals <- formula :: t.originals

type model = {
  bv : string -> Bitvec.t option;
  bool : string -> bool option;
}

type result = Sat of model | Unsat

let lit_model_value t l =
  let v = Sat.value t.sat (Lit.var l) in
  if Lit.sign l then v else not v

let extract_model t =
  (* Snapshot values now: the SAT solver's assignment is transient. *)
  let bvs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name lits ->
      Hashtbl.replace bvs name
        (Bitvec.init (Array.length lits) (fun i -> lit_model_value t lits.(i))))
    t.bv_vars;
  let bools = Hashtbl.create 16 in
  Hashtbl.iter (fun name l -> Hashtbl.replace bools name (lit_model_value t l)) t.bool_vars;
  { bv = Hashtbl.find_opt bvs; bool = Hashtbl.find_opt bools }

(* Solver effort is accounted per [check] call: the SAT core's cumulative
   counters are diffed around the solve and published as telemetry, so the
   inner CDCL loops stay free of instrumentation. *)
let publish_effort before after =
  let tele = Telemetry.get () in
  if Telemetry.enabled tele then
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name before with
        | Some v0 -> Telemetry.incr ~n:(v - v0) tele ("smt." ^ name)
        | None -> ())
      after

type verdict = V_sat of model | V_unsat of int list

(* Decision order realizing the lexicographically minimal model over the
   named variables: booleans prefer false, bitvectors prefer 0 with the most
   significant bit decided first. Names the solver has never blasted are
   skipped — such variables are unconstrained and read back as absent, which
   extraction treats as zero, so the skip agrees with the preference. *)
let build_order t canonical =
  let lits = ref [] in
  List.iter
    (fun c ->
      match c with
      | C_bool name -> (
          match Hashtbl.find_opt t.bool_vars name with
          | Some l -> lits := Lit.neg l :: !lits
          | None -> ())
      | C_bv name -> (
          match Hashtbl.find_opt t.bv_vars name with
          | Some arr ->
              (* Bit 0 is the least significant: deciding high bits first
                 makes "lexicographically minimal" numerically minimal. *)
              for i = Array.length arr - 1 downto 0 do
                lits := Lit.neg arr.(i) :: !lits
              done
          | None -> ()))
    canonical;
  Array.of_list (List.rev !lits)

(* The order depends only on which names are blasted, and names are never
   unblasted: reuse the last one built for the same list until a name is
   blasted for the first time. *)
let canonical_order t canonical =
  let names = Hashtbl.length t.bv_vars + Hashtbl.length t.bool_vars in
  if canonical != t.order_of || names <> t.order_names then begin
    t.order <- build_order t canonical;
    t.order_of <- canonical;
    t.order_names <- names
  end;
  t.order

(* Evaluate a source formula under a model, reading absent variables as
   zero/false — the same completion extraction uses. *)
let eval_original model formula =
  let widths = Hashtbl.create 16 in
  List.iter (fun (name, w) -> Hashtbl.replace widths name w) (Term.bv_vars formula);
  let env =
    { Term.bv_of =
        (fun name ->
          match model.bv name with
          | Some v -> v
          | None -> Bitvec.zero (try Hashtbl.find widths name with Not_found -> 1));
      bool_of = (fun name -> match model.bool name with Some b -> b | None -> false) }
  in
  Term.eval_bool env formula

let self_check t model assumptions =
  let check_one what formula =
    if not (eval_original model formula) then
      raise
        (Model_mismatch
           (Format.asprintf "%s not satisfied by returned model: %a" what
              Term.pp_bool formula))
  in
  List.iter (check_one "asserted formula") t.originals;
  List.iter (check_one "assumption") assumptions

let check_verdict ?(assumptions = []) ?canonical t =
  let tele = Telemetry.get () in
  Telemetry.with_span tele "smt.check" (fun () ->
      Telemetry.incr ~n:(Sat.num_learned t.sat) tele "smt.clauses_reused";
      let vars_before = Sat.num_vars t.sat in
      (* The Tseitin environment memoizes by node id, so a conjunct
         already seen by an earlier check (or by an asserted formula)
         costs a hash lookup here. *)
      let assumption_lits = List.map (fun a -> blast_bool t a) assumptions in
      if Sat.num_vars t.sat = vars_before then
        Telemetry.incr tele "smt.incremental_hits";
      (* A canonical check is one ordered search: it is complete, so it
         gives the verdict a plain search would, and on [Sat] its model is
         already the lexicographic minimum (see [Sat.solve_with_assumptions]). *)
      let order = Option.map (canonical_order t) canonical in
      let before = Sat.stats t.sat in
      let result =
        match Sat.solve_with_assumptions ?order t.sat assumption_lits with
        | Sat.A_sat ->
            let model = extract_model t in
            if !check_models then self_check t model assumptions;
            V_sat model
        | Sat.A_unsat core ->
            (* Report which of the caller's assumptions were implicated.
               An empty list means the asserted state alone (or the clause
               database) is unsat. *)
            let core_indices =
              List.mapi (fun i l -> (i, l)) assumption_lits
              |> List.filter_map (fun (i, l) ->
                     if List.memq l core then Some i else None)
            in
            V_unsat core_indices
      in
      publish_effort before (Sat.stats t.sat);
      Telemetry.incr tele "smt.checks";
      Telemetry.incr tele
        (match result with V_sat _ -> "smt.sat" | V_unsat _ -> "smt.unsat");
      result)

let check ?(assumptions = []) ?canonical t =
  match check_verdict ~assumptions ?canonical t with
  | V_sat model -> Sat model
  | V_unsat _ -> Unsat

let stats t =
  ("gates", t.n_gates) :: ("sat_vars", Sat.num_vars t.sat) :: Sat.stats t.sat
