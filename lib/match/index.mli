(** Indexed table-entry lookup.

    Implements the interpreter's match precedence — the matching entry
    minimising the lexicographic pair (rank, seq), where rank is
    [-priority] for tables with ternary/optional keys and minus the LPM
    specificity otherwise, and seq is insertion order (the documented
    tie-break) — without scanning every entry, by tuple-space search for
    every table: entries grouped by mask signature (exact = all ones, LPM
    = a prefix mask, optional = ones or zero, omitted = zero), one hash
    probe per distinct mask shape.

    Entries whose widths disagree with the schema fall back to a residual
    linear list with the interpreter's scan semantics, so lookup is
    equivalent to the reference for every entry shape. The module is
    independent of lib/p4runtime (which depends on it): match values are
    re-declared here, payloads are abstract. *)

module Bitvec = Switchv_bitvec.Bitvec

type kind = Exact | Lpm | Ternary | Optional

type mv =
  | Mexact of Bitvec.t
  | Mlpm of Bitvec.t * int            (** value, prefix length *)
  | Mternary of Bitvec.t * Bitvec.t   (** value, mask *)
  | Moptional of Bitvec.t option      (** [None] = wildcard *)

type key = { key_width : int; key_kind : kind }

type 'a t

val create : key array -> 'a t

val insert : 'a t -> mvs:mv option array -> priority:int -> seq:int -> 'a -> unit
(** Add an entry. [mvs] is per key, [None] meaning omitted (wildcard);
    values are canonicalised (masked) on the way in. [seq] must be unique
    per live entry; it is both the removal handle and the tie-break. *)

val remove : 'a t -> mvs:mv option array -> seq:int -> unit

val lookup : 'a t -> Bitvec.t array -> 'a option
(** The payload of the matching entry that minimises (rank, seq), i.e.
    the interpreter's winner, for probe key values in schema order. *)

val mv_matches : Bitvec.t -> mv -> bool
(** Reference single-value match semantics (interp.ml's
    [match_value_ok]); exposed for differential tests. *)
