(** Ternary match values: (value, mask) pairs as used by ACL (TCAM) table
    keys. A bit of the key participates in the match iff the corresponding
    mask bit is set. Canonical form zeroes value bits where the mask is 0. *)

type t = private { value : Bitvec.t; mask : Bitvec.t }

val make : value:Bitvec.t -> mask:Bitvec.t -> t
(** Canonicalises by masking the value. Widths must agree. *)

val width : t -> int
val value : t -> Bitvec.t
val mask : t -> Bitvec.t

val matches : t -> Bitvec.t -> bool

val exact : Bitvec.t -> t
(** Full mask: matches only the given value. *)

val wildcard : int -> t
(** Empty mask of the given width: matches everything. *)

val is_wildcard : t -> bool

val of_prefix : Prefix.t -> t
