(** Concrete packets: an ordered stack of header instances plus an opaque
    payload. The order of [headers] is wire order (outermost first). *)

module Bitvec = Switchv_bitvec.Bitvec

type instance = { header : Header.t; values : (string * Bitvec.t) list }
(** One parsed header with a value for every field of its layout. *)

type t = { headers : instance list; payload : string }

val empty : t

val instance : Header.t -> (string * Bitvec.t) list -> instance
(** Checks that every field of the layout is assigned exactly once with the
    right width; raises [Invalid_argument] otherwise. *)

val push : t -> instance -> t
(** Append as the innermost header. *)

val has_header : t -> string -> bool

val get : t -> header:string -> field:string -> Bitvec.t option
val get_exn : t -> header:string -> field:string -> Bitvec.t
val set : t -> header:string -> field:string -> Bitvec.t -> t
(** Raises [Invalid_argument] for an unknown header/field or width clash. *)

val remove_header : t -> string -> t
(** Drop the (outermost) instance of the named header, if present. *)

val serialize : instance -> Bitvec.t
(** Concatenate the fields in layout order. *)

val to_bytes : t -> string
(** Wire representation. Total header width must be a byte multiple. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Builders for common test packets} *)

val ethernet_frame :
  ?src:string -> ?dst:string -> ether_type:int -> unit -> instance
(** MACs as "aa:bb:cc:dd:ee:ff" strings. Defaults are fixed test MACs. *)

val ipv4_header :
  ?ttl:int -> ?protocol:int -> ?dscp:int -> src:string -> dst:string -> unit -> instance
(** IPs as dotted quads. Length/checksum fields are filled with plausible
    defaults (the validated pipelines do not verify checksums). *)

val udp_header : src_port:int -> dst_port:int -> unit -> instance

val simple_ipv4 : ?ttl:int -> src:string -> dst:string -> unit -> t
(** Ethernet + IPv4 + UDP test packet. *)

val mac_of_string : string -> Bitvec.t
val ipv4_of_string : string -> Bitvec.t
val ipv6_of_string : string -> Bitvec.t
(** Parse an RFC-style IPv6 literal limited to full (non "::") or "::"-form
    addresses, e.g. "2001:db8::1". *)
