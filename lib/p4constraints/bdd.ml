module Bitvec = Switchv_bitvec.Bitvec
module Rng = Switchv_bitvec.Rng

type key_kind = Exact | Ternary | Optional

type key_layout = { kl_name : string; kl_kind : key_kind; kl_width : int }

(* --- ROBDD core -------------------------------------------------------------- *)

(* Nodes are integers: 0 = false, 1 = true, >= 2 index into [nodes].
   Children always have a strictly larger variable index (or are
   terminals); the unique table enforces reduction. *)

type manager = {
  mutable vars : int;                           (* number of variables *)
  nodes : (int * int * int) array ref;           (* var, lo, hi *)
  mutable n_nodes : int;
  unique : (int * int * int, int) Hashtbl.t;
  apply_memo : (string * int * int, int) Hashtbl.t;
}

let fls = 0
let tru = 1

let manager nvars =
  { vars = nvars;
    nodes = ref (Array.make 1024 (0, 0, 0));
    n_nodes = 2; (* slots 0/1 reserved for terminals, never dereferenced *)
    unique = Hashtbl.create 1024;
    apply_memo = Hashtbl.create 4096 }

let node_of m u = !(m.nodes).(u)
let var_of m u = if u < 2 then max_int else let v, _, _ = node_of m u in v

let mk m v lo hi =
  if lo = hi then lo
  else begin
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some u -> u
    | None ->
        if m.n_nodes = Array.length !(m.nodes) then begin
          let bigger = Array.make (2 * m.n_nodes) (0, 0, 0) in
          Array.blit !(m.nodes) 0 bigger 0 m.n_nodes;
          m.nodes := bigger
        end;
        let u = m.n_nodes in
        !(m.nodes).(u) <- (v, lo, hi);
        m.n_nodes <- m.n_nodes + 1;
        Hashtbl.add m.unique (v, lo, hi) u;
        u
  end

let rec apply m op f a b =
  match op with
  | "and" when a = fls || b = fls -> fls
  | "and" when a = tru -> b
  | "and" when b = tru -> a
  | "or" when a = tru || b = tru -> tru
  | "or" when a = fls -> b
  | "or" when b = fls -> a
  | "xor" when a = fls -> b
  | "xor" when b = fls -> a
  | _ when a < 2 && b < 2 -> if f (a = tru) (b = tru) then tru else fls
  | _ -> (
      let key = (op, min a b, max a b) in
      (* and/or/xor are commutative, so normalise the memo key *)
      match Hashtbl.find_opt m.apply_memo key with
      | Some r -> r
      | None ->
          let va = var_of m a and vb = var_of m b in
          let v = min va vb in
          let a_lo, a_hi =
            if va = v then let _, lo, hi = node_of m a in (lo, hi) else (a, a)
          in
          let b_lo, b_hi =
            if vb = v then let _, lo, hi = node_of m b in (lo, hi) else (b, b)
          in
          let r = mk m v (apply m op f a_lo b_lo) (apply m op f a_hi b_hi) in
          Hashtbl.add m.apply_memo key r;
          r)

let band m a b = apply m "and" ( && ) a b
let bor m a b = apply m "or" ( || ) a b

let rec bnot m a =
  if a = fls then tru
  else if a = tru then fls
  else
    match Hashtbl.find_opt m.apply_memo ("not", a, a) with
    | Some r -> r
    | None ->
        let v, lo, hi = node_of m a in
        let r = mk m v (bnot m lo) (bnot m hi) in
        Hashtbl.add m.apply_memo ("not", a, a) r;
        r

let bvar m v = mk m v fls tru

(* --- compilation of constraints ----------------------------------------------- *)

(* Variable layout: for each key in order, MSB-first; for ternary keys the
   value and mask bits are INTERLEAVED (v_0 m_0 v_1 m_1 ...) — the
   canonicality constraint relates v_i and m_i, and separating the two
   runs would make its BDD exponential in the key width. *)

type slot = { s_key : string; s_value_vars : int array; s_mask_vars : int array option }

type compiled = {
  m : manager;
  root : int;       (* the restriction itself *)
  canon : int;      (* ternary canonicality side-condition *)
  compliant : int;  (* root AND canon: what compliant samples come from *)
  violating : int Lazy.t;  (* NOT root AND canon *)
  slots : slot list;
  total_vars : int;
  mutable counts : float array;
      (* per node, its models below it (see [models]); nan until first
         asked. Nodes never change, so the counts are kept across draws. *)
}

exception Unsupported of string

(* A "bit vector" during compilation: each bit is either a constant or a
   BDD variable index; MSB first. *)
type cbit = Const of bool | Var of int

(* [n] zero-extended to [width] bits: [lsr] by [Sys.int_size] or more is
   unspecified (on amd64 it repeated the low bits past bit 63). *)
let bits_of_int width n =
  List.init width (fun i ->
      let shift = width - 1 - i in
      Const (shift < Sys.int_size && (n lsr shift) land 1 = 1))

(* Both builders below fold from the least significant bit, the highest
   variable, up: each step then joins one bit above a BDD over the
   variables below it in constant time. Folding from the MSB rebuilt the
   whole BDD so far at every bit, quadratic in the key width. *)
let bit_eq m x y =
  match (x, y) with
  | Const p, Const q -> if p = q then tru else fls
  | Var v, Const true | Const true, Var v -> bvar m v
  | Var v, Const false | Const false, Var v -> bnot m (bvar m v)
  | Var v, Var w -> bnot m (apply m "xor" ( <> ) (bvar m v) (bvar m w))

let eq_bits m a b = List.fold_right2 (fun x y rest -> band m (bit_eq m x y) rest) a b tru

(* Unsigned a < b, MSB-first: a_0 < b_0, or a_0 = b_0 and the rest of a
   is below the rest of b. *)
let lt_bits m a b =
  let to_bdd = function
    | Const true -> tru
    | Const false -> fls
    | Var v -> bvar m v
  in
  List.fold_right2
    (fun x y rest ->
      bor m (band m (bnot m (to_bdd x)) (to_bdd y)) (band m (bit_eq m x y) rest))
    a b fls

let compile layouts constr =
  try
    (* Assign variable indices. *)
    let slots = ref [] in
    let next = ref 0 in
    List.iter
      (fun kl ->
        if kl.kl_kind = Ternary then begin
          let base = !next in
          next := !next + (2 * kl.kl_width);
          slots :=
            { s_key = kl.kl_name;
              s_value_vars = Array.init kl.kl_width (fun i -> base + (2 * i));
              s_mask_vars = Some (Array.init kl.kl_width (fun i -> base + (2 * i) + 1)) }
            :: !slots
        end
        else begin
          let base = !next in
          next := !next + kl.kl_width;
          slots :=
            { s_key = kl.kl_name;
              s_value_vars = Array.init kl.kl_width (fun i -> base + i);
              s_mask_vars = None }
            :: !slots
        end)
      layouts;
    let slots = List.rev !slots in
    let total_vars = !next in
    let m = manager total_vars in
    let slot name =
      match List.find_opt (fun s -> String.equal s.s_key name) slots with
      | Some s -> s
      | None -> raise (Unsupported (Printf.sprintf "unknown key %s" name))
    in
    let value_bits s = Array.to_list (Array.map (fun v -> Var v) s.s_value_vars) in
    let mask_bits s =
      match s.s_mask_vars with
      | Some vars -> Array.to_list (Array.map (fun v -> Var v) vars)
      | None -> List.init (Array.length s.s_value_vars) (fun _ -> Const true)
    in
    (* An atom yields (bits, width hint). Integers adapt to the other
       side's width; oversized constants are handled via comparison
       semantics on an extended width. *)
    let atom_bits width = function
      | Constraint_lang.A_int n ->
          if n < 0 then raise (Unsupported "negative constant");
          bits_of_int width n
      | Constraint_lang.A_key k -> value_bits (slot k)
      | Constraint_lang.A_key_mask k -> mask_bits (slot k)
      | Constraint_lang.A_key_prefix_length _ ->
          raise (Unsupported "::prefix_length is not a flat bit vector")
    in
    (* An integer constant wider than the key is simply larger than every
       key value (Constraint_lang's unbounded-literal semantics). *)
    let oversized width = function
      | Constraint_lang.A_int n -> width <= 62 && n > (1 lsl width) - 1
      | _ -> false
    in
    let atom_width = function
      | Constraint_lang.A_int _ -> None
      | Constraint_lang.A_key k | Constraint_lang.A_key_mask k ->
          Some (Array.length (slot k).s_value_vars)
      | Constraint_lang.A_key_prefix_length _ ->
          raise (Unsupported "::prefix_length is not a flat bit vector")
    in
    let cmp_bdd op a b =
      let width =
        match (atom_width a, atom_width b) with
        | Some w, Some w' when w <> w' -> raise (Unsupported "key width mismatch")
        | Some w, _ | _, Some w -> w
        | None, None -> 62 (* int vs int: constant-fold below *)
      in
      if oversized width a then
        (* constant > any key value: a OP b with huge a *)
        match op with
        | Constraint_lang.Eq | Constraint_lang.Lt | Constraint_lang.Le -> fls
        | Constraint_lang.Ne | Constraint_lang.Gt | Constraint_lang.Ge -> tru
      else if oversized width b then
        match op with
        | Constraint_lang.Eq | Constraint_lang.Gt | Constraint_lang.Ge -> fls
        | Constraint_lang.Ne | Constraint_lang.Lt | Constraint_lang.Le -> tru
      else begin
        let ba = atom_bits width a and bb = atom_bits width b in
        match op with
        | Constraint_lang.Eq -> eq_bits m ba bb
        | Constraint_lang.Ne -> bnot m (eq_bits m ba bb)
        | Constraint_lang.Lt -> lt_bits m ba bb
        | Constraint_lang.Le -> bnot m (lt_bits m bb ba)
        | Constraint_lang.Gt -> lt_bits m bb ba
        | Constraint_lang.Ge -> bnot m (lt_bits m ba bb)
      end
    in
    let rec go = function
      | Constraint_lang.C_true -> tru
      | Constraint_lang.C_false -> fls
      | Constraint_lang.C_not c -> bnot m (go c)
      | Constraint_lang.C_and (a, b) -> band m (go a) (go b)
      | Constraint_lang.C_or (a, b) -> bor m (go a) (go b)
      | Constraint_lang.C_atom_truthy a ->
          bnot m (eq_bits m (atom_bits (Option.value ~default:1 (atom_width a)) a)
                    (bits_of_int (Option.value ~default:1 (atom_width a)) 0))
      | Constraint_lang.C_cmp (op, a, b) -> cmp_bdd op a b
    in
    let root = go constr in
    (* Canonicality side-condition: a ternary value bit may be set only
       where the mask bit is set (Ternary.make canonicalises exactly so);
       samples must respect it or the constructed entry would evaluate
       differently from the sampled assignment. *)
    let canon =
      List.fold_left
        (fun acc s ->
          match s.s_mask_vars with
          | None -> acc
          | Some mvars ->
              let per_bit =
                List.init (Array.length s.s_value_vars) (fun i ->
                    bor m (bnot m (bvar m s.s_value_vars.(i))) (bvar m mvars.(i)))
              in
              band m acc (List.fold_right (band m) per_bit tru))
        tru slots
    in
    Ok
      { m; root; canon; compliant = band m root canon;
        violating = lazy (band m (bnot m root) canon); slots; total_vars;
        counts = [||] }
  with
  | Unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg

let size c = c.m.n_nodes

(* --- model counting and sampling ------------------------------------------------ *)

(* models(u): number of satisfying assignments of the variables from u's
   own variable to total_vars-1 under node u. Memoized per node in
   [c.counts], which grows with the manager. *)
let rec models c u =
  if u = fls then 0.
  else if u = tru then 1.
  else begin
    if u >= Array.length c.counts then begin
      let grown = Array.make (max 256 (2 * c.m.n_nodes)) Float.nan in
      Array.blit c.counts 0 grown 0 (Array.length c.counts);
      c.counts <- grown
    end;
    let x = c.counts.(u) in
    if Float.is_nan x then begin
      let v, lo, hi = node_of c.m u in
      let x = weighted c v lo +. weighted c v hi in
      c.counts.(u) <- x;
      x
    end
    else x
  end

(* [child]'s models over the variables after [v]: the variables the edge
   skips are free. *)
and weighted c v child =
  let next_v = if child < 2 then c.total_vars else var_of c.m child in
  match models c child with
  | 0. -> 0.
  | n ->
      (* Past 1023 skipped variables the factor is infinite, and 0 * inf
         would be nan: the "not yet counted" mark, which made every visit
         recount the whole DAG below. *)
      n *. (2. ** float_of_int (next_v - v - 1))

(* Satisfying assignments of all the variables under [root]. *)
let count_from c root = weighted c (-1) root

let model_count c = count_from c c.compliant

type assignment = {
  values : (string * Bitvec.t) list;
  masks : (string * Bitvec.t) list;
}

let assignment_of_bits c bits =
  let read vars =
    (* MSB-first layout: value bit j sits at position width-1-j *)
    let width = Array.length vars in
    Bitvec.init width (fun j -> bits.(vars.(width - 1 - j)))
  in
  { values = List.map (fun s -> (s.s_key, read s.s_value_vars)) c.slots;
    masks =
      List.filter_map
        (fun s -> Option.map (fun vars -> (s.s_key, read vars)) s.s_mask_vars)
        c.slots }

(* Uniform sampling by walking the BDD weighted by model counts; variables
   skipped on an edge are uniform coin flips. *)
let sample_node c rng root =
  if root = fls || count_from c root = 0. then None
  else begin
    let bits = Array.make c.total_vars false in
    let rec walk u v =
      if v >= c.total_vars then ()
      else if u = tru then begin
        (* all remaining variables free *)
        bits.(v) <- Rng.bool rng;
        walk u (v + 1)
      end
      else begin
        let uv = var_of c.m u in
        if v < uv then begin
          bits.(v) <- Rng.bool rng;
          walk u (v + 1)
        end
        else begin
          let _, lo, hi = node_of c.m u in
          let wlo = weighted c v lo and whi = weighted c v hi in
          let go_hi =
            if wlo = 0. then true
            else if whi = 0. then false
            else begin
              (* Bernoulli(whi / (wlo + whi)) with integer rng *)
              let p = whi /. (wlo +. whi) in
              float_of_int (Rng.int rng 1_000_000) < p *. 1_000_000.
            end
          in
          bits.(v) <- go_hi;
          walk (if go_hi then hi else lo) (v + 1)
        end
      end
    in
    walk root 0;
    Some (assignment_of_bits c bits)
  end

let sample_compliant c rng = sample_node c rng c.compliant

let sample_violation c rng = sample_node c rng (Lazy.force c.violating)

let eval_node c node bits =
  let rec walk u =
    if u = tru then true
    else if u = fls then false
    else begin
      let v, lo, hi = node_of c.m u in
      walk (if bits.(v) then hi else lo)
    end
  in
  walk node

let eval_bits c bits = eval_node c c.root bits

let bits_of_assignment c a =
  let bits = Array.make c.total_vars false in
  List.iter
    (fun s ->
      let write vars v =
        let width = Array.length vars in
        Array.iteri (fun i var -> bits.(var) <- Bitvec.bit v (width - 1 - i)) vars
      in
      (match List.assoc_opt s.s_key a.values with
      | Some v -> write s.s_value_vars v
      | None -> ());
      match (s.s_mask_vars, List.assoc_opt s.s_key a.masks) with
      | Some vars, Some v -> write vars v
      | _ -> ())
    c.slots;
  bits

let satisfies c a = eval_bits c (bits_of_assignment c a)

let sample_near_violation c rng =
  match sample_compliant c rng with
  | None -> None
  | Some a -> (
      let bits = bits_of_assignment c a in
      let order = Rng.shuffle rng (List.init c.total_vars Fun.id) in
      let rec try_flips = function
        | [] -> sample_violation c rng
        | v :: rest ->
            bits.(v) <- not bits.(v);
            if (not (eval_bits c bits)) && eval_node c c.canon bits then
              Some (assignment_of_bits c bits)
            else begin
              bits.(v) <- not bits.(v);
              try_flips rest
            end
      in
      try_flips order)
