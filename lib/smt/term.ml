module Bitvec = Switchv_bitvec.Bitvec
module Prefix = Switchv_bitvec.Prefix

(* Every node except the two boolean constants carries a unique id as its
   first field. Ids only name nodes: nothing may iterate an id-keyed table
   or otherwise let id values order output, since they depend on how many
   terms the process built before. *)
type bv =
  | Bv_const of int * Bitvec.t
  | Bv_var of int * string * int
  | Bv_not of int * bv
  | Bv_neg of int * bv
  | Bv_and of int * bv * bv
  | Bv_or of int * bv * bv
  | Bv_xor of int * bv * bv
  | Bv_add of int * bv * bv
  | Bv_sub of int * bv * bv
  | Bv_mul of int * bv * bv
  | Bv_concat of int * bv * bv
  | Bv_extract of int * int * int * bv
  | Bv_zero_ext of int * int * bv
  | Bv_ite of int * boolean * bv * bv

and boolean =
  | B_true
  | B_false
  | B_var of int * string
  | B_eq of int * bv * bv
  | B_ult of int * bv * bv
  | B_ule of int * bv * bv
  | B_not of int * boolean
  | B_and of int * boolean * boolean
  | B_or of int * boolean * boolean
  | B_ite of int * boolean * boolean * boolean

(* Ids 0 and 1 name [B_true] and [B_false]. *)
let counter = Atomic.make 2
let fresh () = Atomic.fetch_and_add counter 1

let bv_id = function
  | Bv_const (i, _) | Bv_var (i, _, _) | Bv_not (i, _) | Bv_neg (i, _)
  | Bv_and (i, _, _) | Bv_or (i, _, _) | Bv_xor (i, _, _) | Bv_add (i, _, _)
  | Bv_sub (i, _, _) | Bv_mul (i, _, _) | Bv_concat (i, _, _)
  | Bv_extract (i, _, _, _) | Bv_zero_ext (i, _, _) | Bv_ite (i, _, _, _) -> i

let bool_id = function
  | B_true -> 0
  | B_false -> 1
  | B_var (i, _) | B_eq (i, _, _) | B_ult (i, _, _) | B_ule (i, _, _)
  | B_not (i, _) | B_and (i, _, _) | B_or (i, _, _) | B_ite (i, _, _, _) -> i

(* Ids are dense and sequential, so the identity spreads them evenly over
   a power-of-two bucket array. *)
module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

let rec bv_width = function
  | Bv_const (_, c) -> Bitvec.width c
  | Bv_var (_, _, w) -> w
  | Bv_not (_, a) | Bv_neg (_, a) -> bv_width a
  | Bv_and (_, a, _) | Bv_or (_, a, _) | Bv_xor (_, a, _)
  | Bv_add (_, a, _) | Bv_sub (_, a, _) | Bv_mul (_, a, _) -> bv_width a
  | Bv_concat (_, a, b) -> bv_width a + bv_width b
  | Bv_extract (_, hi, lo, _) -> hi - lo + 1
  | Bv_zero_ext (_, w, _) -> w
  | Bv_ite (_, _, a, _) -> bv_width a

let const c = Bv_const (fresh (), c)
let var name w =
  if w < 1 then invalid_arg "Term.var: width must be >= 1";
  Bv_var (fresh (), name, w)
let of_int ~width n = const (Bitvec.of_int ~width n)

let check2 name a b =
  if bv_width a <> bv_width b then
    invalid_arg (Printf.sprintf "Term.%s: width mismatch (%d vs %d)" name
                   (bv_width a) (bv_width b))

let bvnot = function
  | Bv_const (_, c) -> const (Bitvec.lognot c)
  | Bv_not (_, a) -> a
  | a -> Bv_not (fresh (), a)

let bvneg = function
  | Bv_const (_, c) -> const (Bitvec.neg c)
  | a -> Bv_neg (fresh (), a)

let bvand a b =
  check2 "bvand" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.logand x y)
  | ((Bv_const (_, c) as k), _ | _, (Bv_const (_, c) as k)) when Bitvec.is_zero c -> k
  | (Bv_const (_, c), o | o, Bv_const (_, c)) when Bitvec.is_ones c -> o
  | _ -> Bv_and (fresh (), a, b)

let bvor a b =
  check2 "bvor" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.logor x y)
  | (Bv_const (_, c), o | o, Bv_const (_, c)) when Bitvec.is_zero c -> o
  | ((Bv_const (_, c) as k), _ | _, (Bv_const (_, c) as k)) when Bitvec.is_ones c -> k
  | _ -> Bv_or (fresh (), a, b)

let bvxor a b =
  check2 "bvxor" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.logxor x y)
  | (Bv_const (_, c), o | o, Bv_const (_, c)) when Bitvec.is_zero c -> o
  | _ -> Bv_xor (fresh (), a, b)

let bvadd a b =
  check2 "bvadd" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.add x y)
  | (Bv_const (_, c), o | o, Bv_const (_, c)) when Bitvec.is_zero c -> o
  | _ -> Bv_add (fresh (), a, b)

let bvsub a b =
  check2 "bvsub" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.sub x y)
  | o, Bv_const (_, c) when Bitvec.is_zero c -> o
  | _ -> Bv_sub (fresh (), a, b)

let bvmul a b =
  check2 "bvmul" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.mul x y)
  | ((Bv_const (_, c) as k), _ | _, (Bv_const (_, c) as k)) when Bitvec.is_zero c -> k
  | (Bv_const (_, c), o | o, Bv_const (_, c))
    when Bitvec.equal c (Bitvec.of_int ~width:(Bitvec.width c) 1) -> o
  | _ -> Bv_mul (fresh (), a, b)

let concat a b =
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> const (Bitvec.concat x y)
  | _ -> Bv_concat (fresh (), a, b)

let extract ~hi ~lo a =
  let w = bv_width a in
  if lo < 0 || hi >= w || hi < lo then invalid_arg "Term.extract: bad range";
  if lo = 0 && hi = w - 1 then a
  else match a with
    | Bv_const (_, c) -> const (Bitvec.extract ~hi ~lo c)
    | _ -> Bv_extract (fresh (), hi, lo, a)

let zero_ext w a =
  let wa = bv_width a in
  if w < wa then invalid_arg "Term.zero_ext: narrower target";
  if w = wa then a
  else match a with
    | Bv_const (_, c) -> const (Bitvec.zero_extend w c)
    | _ -> Bv_zero_ext (fresh (), w, a)

let tru = B_true
let fls = B_false
let bvar name = B_var (fresh (), name)

let rec not_ = function
  | B_true -> B_false
  | B_false -> B_true
  | B_not (_, b) -> b
  | B_ite (_, c, a, b) -> B_ite (fresh (), c, not_ a, not_ b)
  | b -> B_not (fresh (), b)

let eq a b =
  check2 "eq" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> if Bitvec.equal x y then B_true else B_false
  | _ -> if a == b then B_true else B_eq (fresh (), a, b)

let ult a b =
  check2 "ult" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> if Bitvec.ult x y then B_true else B_false
  | _ -> B_ult (fresh (), a, b)

let ule a b =
  check2 "ule" a b;
  match (a, b) with
  | Bv_const (_, x), Bv_const (_, y) -> if Bitvec.ule x y then B_true else B_false
  | _ -> if a == b then B_true else B_ule (fresh (), a, b)

let neq a b = not_ (eq a b)

let and_ a b =
  match (a, b) with
  | B_false, _ | _, B_false -> B_false
  | B_true, o | o, B_true -> o
  | _ -> if a == b then a else B_and (fresh (), a, b)

let or_ a b =
  match (a, b) with
  | B_true, _ | _, B_true -> B_true
  | B_false, o | o, B_false -> o
  | _ -> if a == b then a else B_or (fresh (), a, b)

let iff a b =
  match (a, b) with
  | B_true, o | o, B_true -> o
  | B_false, o | o, B_false -> not_ o
  | _ -> if a == b then B_true else B_ite (fresh (), a, b, not_ b)

let bite c a b =
  match c with
  | B_true -> a
  | B_false -> b
  | _ -> if a == b then a else B_ite (fresh (), c, a, b)

let ite c a b =
  check2 "ite" a b;
  match c with
  | B_true -> a
  | B_false -> b
  | _ -> (match (a, b) with
          | Bv_const (_, x), Bv_const (_, y) when Bitvec.equal x y -> a
          | _ -> if a == b then a else Bv_ite (fresh (), c, a, b))

let conj l = List.fold_left and_ B_true l
let disj l = List.fold_left or_ B_false l

let matches_ternary key ~value ~mask =
  eq (bvand key (const mask)) (const (Bitvec.logand value mask))

let matches_prefix key p =
  let mask = Bitvec.prefix_mask ~width:(Prefix.width p) (Prefix.len p) in
  matches_ternary key ~value:(Prefix.value p) ~mask

type env = { bv_of : string -> Bitvec.t; bool_of : string -> bool }

let rec eval_bv env = function
  | Bv_const (_, c) -> c
  | Bv_var (_, name, w) ->
      let v = env.bv_of name in
      if Bitvec.width v <> w then
        invalid_arg (Printf.sprintf "Term.eval_bv: %s width mismatch" name);
      v
  | Bv_not (_, a) -> Bitvec.lognot (eval_bv env a)
  | Bv_neg (_, a) -> Bitvec.neg (eval_bv env a)
  | Bv_and (_, a, b) -> Bitvec.logand (eval_bv env a) (eval_bv env b)
  | Bv_or (_, a, b) -> Bitvec.logor (eval_bv env a) (eval_bv env b)
  | Bv_xor (_, a, b) -> Bitvec.logxor (eval_bv env a) (eval_bv env b)
  | Bv_add (_, a, b) -> Bitvec.add (eval_bv env a) (eval_bv env b)
  | Bv_sub (_, a, b) -> Bitvec.sub (eval_bv env a) (eval_bv env b)
  | Bv_mul (_, a, b) -> Bitvec.mul (eval_bv env a) (eval_bv env b)
  | Bv_concat (_, a, b) -> Bitvec.concat (eval_bv env a) (eval_bv env b)
  | Bv_extract (_, hi, lo, a) -> Bitvec.extract ~hi ~lo (eval_bv env a)
  | Bv_zero_ext (_, w, a) -> Bitvec.zero_extend w (eval_bv env a)
  | Bv_ite (_, c, a, b) -> if eval_bool env c then eval_bv env a else eval_bv env b

and eval_bool env = function
  | B_true -> true
  | B_false -> false
  | B_var (_, name) -> env.bool_of name
  | B_eq (_, a, b) -> Bitvec.equal (eval_bv env a) (eval_bv env b)
  | B_ult (_, a, b) -> Bitvec.ult (eval_bv env a) (eval_bv env b)
  | B_ule (_, a, b) -> Bitvec.ule (eval_bv env a) (eval_bv env b)
  | B_not (_, a) -> not (eval_bool env a)
  | B_and (_, a, b) -> eval_bool env a && eval_bool env b
  | B_or (_, a, b) -> eval_bool env a || eval_bool env b
  | B_ite (_, c, a, b) -> if eval_bool env c then eval_bool env a else eval_bool env b

(* Each distinct node reachable from [formula] is visited once, so shared
   DAGs cost their size rather than their tree size. *)
let bv_vars formula =
  let seen = Id_tbl.create 64 in
  let first id = if Id_tbl.mem seen id then false else (Id_tbl.add seen id (); true) in
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let rec go_bv t =
    match t with
    | Bv_const _ -> ()
    | Bv_var (_, name, w) -> (
        match Hashtbl.find_opt tbl name with
        | None ->
            Hashtbl.add tbl name w;
            order := (name, w) :: !order
        | Some w' ->
            if w <> w' then
              invalid_arg
                (Printf.sprintf "Term.bv_vars: %s used at widths %d and %d" name w w'))
    | _ when not (first (bv_id t)) -> ()
    | Bv_not (_, a) | Bv_neg (_, a) | Bv_extract (_, _, _, a) | Bv_zero_ext (_, _, a) ->
        go_bv a
    | Bv_and (_, a, b) | Bv_or (_, a, b) | Bv_xor (_, a, b) | Bv_add (_, a, b)
    | Bv_sub (_, a, b) | Bv_mul (_, a, b) | Bv_concat (_, a, b) -> go_bv a; go_bv b
    | Bv_ite (_, c, a, b) -> go_bool c; go_bv a; go_bv b
  and go_bool t =
    match t with
    | B_true | B_false | B_var _ -> ()
    | _ when not (first (bool_id t)) -> ()
    | B_eq (_, a, b) | B_ult (_, a, b) | B_ule (_, a, b) -> go_bv a; go_bv b
    | B_not (_, a) -> go_bool a
    | B_and (_, a, b) | B_or (_, a, b) -> go_bool a; go_bool b
    | B_ite (_, c, a, b) -> go_bool c; go_bool a; go_bool b
  in
  go_bool formula;
  List.rev !order

let flatten_conj formula =
  let rec go acc = function
    | B_and (_, a, b) -> go (go acc a) b
    | B_true -> acc
    | t -> t :: acc
  in
  List.rev (go [] formula)

(* Post-order serialisation: an inner node is written after its children
   as a tag plus its own payload, and an inner node met again is written as
   a back-reference to the position its first visit gave it. Positions
   count inner nodes of this walk only, so the bytes are a function of the
   DAG's shape and leaves, never of its ids. Leaves are cheaper to write
   out again than to look up, so their sharing goes unrecorded. The roots
   are walked in order with one shared numbering, each closed by ';', so
   the list itself is read: a constant root keeps its place and nothing is
   folded away. *)
let fingerprint roots =
  let buf = Buffer.create 16384 in
  let index = Id_tbl.create 1024 in
  let next = ref 0 in
  let rec int n =
    if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
      int (n lsr 7)
    end
  in
  let str s = int (String.length s); Buffer.add_string buf s in
  (* [true] when [id] was already written (a back-reference is emitted). *)
  let shared id =
    match Id_tbl.find_opt index id with
    | Some i -> Buffer.add_char buf 'R'; int i; true
    | None -> false
  in
  let define id tag =
    Buffer.add_char buf tag;
    Id_tbl.add index id !next;
    incr next
  in
  let rec go_bv t =
    match t with
    | Bv_const (_, c) -> (
        match Bitvec.to_int c with
        | Some n -> Buffer.add_char buf 'k'; int (Bitvec.width c); int n
        | None -> Buffer.add_char buf 'K'; int (Bitvec.width c); str (Bitvec.to_hex_string c))
    | Bv_var (_, name, w) -> Buffer.add_char buf 'v'; int w; str name
    | _ -> (
        let id = bv_id t in
        if not (shared id) then
          match t with
          | Bv_const _ | Bv_var _ -> assert false
          | Bv_not (_, a) -> go_bv a; define id '~'
          | Bv_neg (_, a) -> go_bv a; define id 'n'
          | Bv_and (_, a, b) -> go_bv a; go_bv b; define id '&'
          | Bv_or (_, a, b) -> go_bv a; go_bv b; define id '|'
          | Bv_xor (_, a, b) -> go_bv a; go_bv b; define id '^'
          | Bv_add (_, a, b) -> go_bv a; go_bv b; define id '+'
          | Bv_sub (_, a, b) -> go_bv a; go_bv b; define id '-'
          | Bv_mul (_, a, b) -> go_bv a; go_bv b; define id '*'
          | Bv_concat (_, a, b) -> go_bv a; go_bv b; define id 'c'
          | Bv_extract (_, hi, lo, a) -> go_bv a; define id 'x'; int hi; int lo
          | Bv_zero_ext (_, w, a) -> go_bv a; define id 'z'; int w
          | Bv_ite (_, c, a, b) -> go_bool c; go_bv a; go_bv b; define id '?')
  and go_bool t =
    match t with
    | B_true -> Buffer.add_char buf 'T'
    | B_false -> Buffer.add_char buf 'F'
    | B_var (_, name) -> Buffer.add_char buf 'b'; str name
    | _ -> (
        let id = bool_id t in
        if not (shared id) then
          match t with
          | B_true | B_false | B_var _ -> assert false
          | B_eq (_, a, b) -> go_bv a; go_bv b; define id '='
          | B_ult (_, a, b) -> go_bv a; go_bv b; define id '<'
          | B_ule (_, a, b) -> go_bv a; go_bv b; define id 'l'
          | B_not (_, a) -> go_bool a; define id '!'
          | B_and (_, a, b) -> go_bool a; go_bool b; define id 'A'
          | B_or (_, a, b) -> go_bool a; go_bool b; define id 'O'
          | B_ite (_, c, a, b) -> go_bool c; go_bool a; go_bool b; define id 'I')
  in
  List.iter (fun root -> go_bool root; Buffer.add_char buf ';') roots;
  Digest.string (Buffer.contents buf)

let rec pp_bv fmt = function
  | Bv_const (_, c) -> Bitvec.pp fmt c
  | Bv_var (_, name, w) -> Format.fprintf fmt "%s:%d" name w
  | Bv_not (_, a) -> Format.fprintf fmt "~%a" pp_bv a
  | Bv_neg (_, a) -> Format.fprintf fmt "-%a" pp_bv a
  | Bv_and (_, a, b) -> Format.fprintf fmt "(%a & %a)" pp_bv a pp_bv b
  | Bv_or (_, a, b) -> Format.fprintf fmt "(%a | %a)" pp_bv a pp_bv b
  | Bv_xor (_, a, b) -> Format.fprintf fmt "(%a ^ %a)" pp_bv a pp_bv b
  | Bv_add (_, a, b) -> Format.fprintf fmt "(%a + %a)" pp_bv a pp_bv b
  | Bv_sub (_, a, b) -> Format.fprintf fmt "(%a - %a)" pp_bv a pp_bv b
  | Bv_mul (_, a, b) -> Format.fprintf fmt "(%a * %a)" pp_bv a pp_bv b
  | Bv_concat (_, a, b) -> Format.fprintf fmt "(%a ++ %a)" pp_bv a pp_bv b
  | Bv_extract (_, hi, lo, a) -> Format.fprintf fmt "%a[%d:%d]" pp_bv a hi lo
  | Bv_zero_ext (_, w, a) -> Format.fprintf fmt "zext%d(%a)" w pp_bv a
  | Bv_ite (_, c, a, b) ->
      Format.fprintf fmt "(if %a then %a else %a)" pp_bool c pp_bv a pp_bv b

and pp_bool fmt = function
  | B_true -> Format.pp_print_string fmt "true"
  | B_false -> Format.pp_print_string fmt "false"
  | B_var (_, name) -> Format.pp_print_string fmt name
  | B_eq (_, a, b) -> Format.fprintf fmt "(%a = %a)" pp_bv a pp_bv b
  | B_ult (_, a, b) -> Format.fprintf fmt "(%a < %a)" pp_bv a pp_bv b
  | B_ule (_, a, b) -> Format.fprintf fmt "(%a <= %a)" pp_bv a pp_bv b
  | B_not (_, a) -> Format.fprintf fmt "!%a" pp_bool a
  | B_and (_, a, b) -> Format.fprintf fmt "(%a && %a)" pp_bool a pp_bool b
  | B_or (_, a, b) -> Format.fprintf fmt "(%a || %a)" pp_bool a pp_bool b
  | B_ite (_, c, a, b) ->
      Format.fprintf fmt "(if %a then %a else %a)" pp_bool c pp_bool a pp_bool b
