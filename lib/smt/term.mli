(** Quantifier-free bitvector terms.

    This is the formula language produced by p4-symbolic and consumed by
    {!Solver}. Terms are built only through the smart constructors below,
    which perform width checking and aggressive constant folding
    (p4-symbolic's guards over concrete table entries fold substantially,
    which keeps the CNF small).

    Every node carries an id, unique for the life of the process, as its
    first field ([B_true] and [B_false] have ids 0 and 1). Physically
    shared subterms are preserved by construction, and memo tables key on
    the id — an O(1) lookup — so building terms incrementally (as the
    symbolic interpreter does) yields DAG-sized, not tree-sized, CNF. Ids
    depend on how many terms the process built before, so they never
    reach output: {!fingerprint} is the id-free identity of a term. *)

module Bitvec = Switchv_bitvec.Bitvec

type bv = private
  | Bv_const of int * Bitvec.t
  | Bv_var of int * string * int          (* id, name, width *)
  | Bv_not of int * bv
  | Bv_neg of int * bv
  | Bv_and of int * bv * bv
  | Bv_or of int * bv * bv
  | Bv_xor of int * bv * bv
  | Bv_add of int * bv * bv
  | Bv_sub of int * bv * bv
  | Bv_mul of int * bv * bv
  | Bv_concat of int * bv * bv
  | Bv_extract of int * int * int * bv    (* id, hi, lo *)
  | Bv_zero_ext of int * int * bv         (* id, target width *)
  | Bv_ite of int * boolean * bv * bv

and boolean = private
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

val bv_id : bv -> int
val bool_id : boolean -> int
(** The node's id. [bv] and [boolean] ids come from one counter, so they
    never collide with each other either. *)

module Id_tbl : Hashtbl.S with type key = int
(** Tables keyed by node id. *)

val bv_width : bv -> int

(** {1 Smart constructors (fold constants, check widths)} *)

val const : Bitvec.t -> bv
val var : string -> int -> bv
val of_int : width:int -> int -> bv

val bvnot : bv -> bv
val bvneg : bv -> bv
val bvand : bv -> bv -> bv
val bvor : bv -> bv -> bv
val bvxor : bv -> bv -> bv
val bvadd : bv -> bv -> bv
val bvsub : bv -> bv -> bv
val bvmul : bv -> bv -> bv
val concat : bv -> bv -> bv
val extract : hi:int -> lo:int -> bv -> bv
val zero_ext : int -> bv -> bv
val ite : boolean -> bv -> bv -> bv

val tru : boolean
val fls : boolean
val bvar : string -> boolean
val eq : bv -> bv -> boolean
val ult : bv -> bv -> boolean
val ule : bv -> bv -> boolean
val neq : bv -> bv -> boolean
val not_ : boolean -> boolean
val and_ : boolean -> boolean -> boolean
val or_ : boolean -> boolean -> boolean
val iff : boolean -> boolean -> boolean
val bite : boolean -> boolean -> boolean -> boolean
val conj : boolean list -> boolean
val disj : boolean list -> boolean

val matches_ternary :
  bv -> value:Bitvec.t -> mask:Bitvec.t -> boolean
(** [(key land mask) = value] — the TCAM match condition. *)

val matches_prefix : bv -> Switchv_bitvec.Prefix.t -> boolean

(** {1 Evaluation}

    Reference semantics used by tests and by model validation. *)

type env = { bv_of : string -> Bitvec.t; bool_of : string -> bool }

val eval_bv : env -> bv -> Bitvec.t
val eval_bool : env -> boolean -> bool

(** {1 Variable collection} *)

val bv_vars : boolean -> (string * int) list
(** All bitvector variables (name, width), each reported once. Raises
    [Invalid_argument] if one name occurs at two widths. *)

val fingerprint : boolean list -> Digest.t
(** A digest of the formulas' DAG: each root in order, its node kinds,
    leaves, payloads and the sharing of inner nodes within and across
    roots, read in post-order with nodes numbered by that walk rather than
    by id. Two lists built by the same sequence of constructor calls have
    the same fingerprint, in any process; lists that differ in length, in
    the order of their roots, or in any constant, name or operator do not
    (up to digest collisions). No root is folded into another, so a
    constant [tru] or [fls] root hides nothing. *)

val flatten_conj : boolean -> boolean list
(** Top-level conjuncts of a (nested) conjunction, left to right, with
    [tru] units dropped. [conj (flatten_conj f)] is logically [f]. *)

val pp_bv : Format.formatter -> bv -> unit
val pp_bool : Format.formatter -> boolean -> unit
