(** The P4-constraints entry-restriction language.

    Mirrors the open-source P4-constraints extension the paper introduces
    (§3): boolean expressions over a table's match keys, attached to tables
    via [@entry_restriction], evaluated against candidate table entries at
    run time by the switch's P4Runtime layer, and used by SwitchV's oracle
    to classify fuzzed requests as valid or invalid.

    Grammar (precedence low to high: [||], [&&], [!], comparisons):
    {v
      constraint := disj
      disj   := conj ("||" conj)*
      conj   := unary ("&&" unary)*
      unary  := "!" unary | "(" constraint ")" | "true" | "false" | cmp
      cmp    := atom (("=="|"!="|"<"|"<="|">"|">=") atom)?
      atom   := INT | 0xHEX | 0bBIN | key | key "::" field
      key    := ident ("." ident)*
      field  := "value" | "mask" | "prefix_length"
    v}

    A bare [key] denotes the match value. [::mask] is the ternary mask (for
    LPM keys, the implied prefix mask). [::prefix_length] is the LPM prefix
    length. An omitted optional/ternary key behaves as a wildcard: its mask
    is zero and its value is zero. *)

module Bitvec = Switchv_bitvec.Bitvec

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type atom =
  | A_int of int
  | A_key of string                (** bare key: match value *)
  | A_key_mask of string
  | A_key_prefix_length of string

type t =
  | C_true
  | C_false
  | C_cmp of cmp_op * atom * atom
  | C_atom_truthy of atom          (** a bare boolean key, nonzero = true *)
  | C_not of t
  | C_and of t * t
  | C_or of t * t

val parse : string -> (t, string) result
(** Parse the textual form. Errors carry a human-readable position. *)

val to_string : t -> string

(** {1 Evaluation} *)

type key_value =
  | K_exact of Bitvec.t
  | K_lpm of Switchv_bitvec.Prefix.t
  | K_ternary of Switchv_bitvec.Ternary.t
  | K_optional of Bitvec.t option

type lookup = string -> key_value option
(** [None] means the key does not exist in the table (an evaluation
    error, as opposed to an omitted wildcard key which is represented by
    [K_ternary (wildcard)] or [K_optional None]). *)

val eval : t -> lookup -> (bool, string) result

val keys : t -> string list
(** Key names referenced, without duplicates, in first-use order. *)
