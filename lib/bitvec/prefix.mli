(** Longest-prefix-match values: a bitvector with a significant-prefix
    length, as used for LPM table keys (e.g. IPv4 routes). The value is kept
    canonical: bits beyond the prefix are forced to zero. *)

type t = private { value : Bitvec.t; len : int }

val make : Bitvec.t -> int -> t
(** [make v len] canonicalises [v] by zeroing its low [width - len] bits.
    Raises [Invalid_argument] if [len] is outside [0 .. width v]. *)

val width : t -> int
val value : t -> Bitvec.t
val len : t -> int

val matches : t -> Bitvec.t -> bool
(** [matches p v] holds when the top [len p] bits of [v] equal the prefix. *)

val is_canonical : Bitvec.t -> int -> bool
(** Whether a raw (value, length) pair already has zeros past the prefix. *)

val full : Bitvec.t -> t
(** Exact-match prefix: length = width. *)

val any : int -> t
(** Zero-length prefix of the given width; matches everything. *)

val subsumes : t -> t -> bool
(** [subsumes a b]: every value matched by [b] is matched by [a]
    (i.e. [a] is a shorter-or-equal prefix of [b]). *)

val equal : t -> t -> bool

val of_ipv4_string : string -> t
(** Parse dotted-quad with optional "/len", e.g. "10.0.0.0/8". Wildcard
    octets as in the paper's Figure 3 ("10.*.*.*") are also accepted. *)

val to_ipv4_string : t -> string
