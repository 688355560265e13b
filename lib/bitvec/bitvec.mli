(** Arbitrary-width unsigned bitvectors.

    The foundation type for packet fields, table keys, and SMT terms.
    Values are immutable; all operations return fresh vectors. A bitvector
    has an explicit [width] in bits (>= 1); operations over two vectors
    require equal widths and raise [Invalid_argument] otherwise. *)

type t

val width : t -> int

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates the two's-complement representation of [n]
    to [width] bits. [n] must be non-negative. *)

val of_int64 : width:int -> int64 -> t

val of_bin_string : string -> t
(** Parse a binary string, e.g. ["1010"] has width 4. *)

val of_hex_string : width:int -> string -> t
(** Parse a hex string (without ["0x"] prefix), truncated/zero-extended to
    [width]. *)

val init : int -> (int -> bool) -> t
(** [init w f] has bit [i] (bit 0 the least significant) set when [f i]
    holds, built in one pass. *)

(** {1 Observation} *)

val to_int : t -> int option
(** [Some n] if the value fits in a non-negative OCaml [int]. *)

val to_int_exn : t -> int


val bit : t -> int -> bool
(** [bit v i] is bit [i], with bit 0 the least significant.
    Raises [Invalid_argument] when out of range. *)

val is_zero : t -> bool
val is_ones : t -> bool

val to_bin_string : t -> string
val to_hex_string : t -> string

val popcount : t -> int

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison. Widths must match. *)

val ult : t -> t -> bool
val ule : t -> t -> bool

val hash : t -> int

(** {1 Bitwise operations} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical shifts; bits shifted out are dropped, zeros shifted in. *)

(** {1 Arithmetic (modulo 2^width)} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** {1 Structure} *)

val concat : t -> t -> t
(** [concat hi lo] has width [width hi + width lo] with [hi] in the most
    significant bits. *)

val extract : hi:int -> lo:int -> t -> t
(** [extract ~hi ~lo v] is bits [hi..lo] inclusive, width [hi - lo + 1]. *)

val zero_extend : int -> t -> t
(** [zero_extend w v] pads [v] with zero bits up to total width [w];
    [w >= width v]. *)

val prefix_mask : width:int -> int -> t
(** [prefix_mask ~width len] has the [len] most significant of [width] bits
    set — the netmask of a length-[len] prefix. *)

val random : (int -> int) -> int -> t
(** [random rand_int w]: uniformly random vector of width [w] using
    [rand_int bound] as the entropy source. *)

val pp : Format.formatter -> t -> unit
(** Hex with width annotation, e.g. [0x0a000001#32]. *)


(** {1 Byte conversion} *)

val of_bytes_be : string -> t
(** Big-endian bytes to bitvector; width is [8 * String.length]. *)

val to_bytes_be : t -> string
(** Big-endian bytes; width must be a multiple of 8. *)
