(** PTF-style end-to-end fabric assertions.

    A fabric expectation is derived from the reference model's trace and
    checked against the switch-side trace — the analogue of PTF's
    [verify_packet] / [verify_no_packet] pair: either the packet must come
    out of a specific (switch, port) edge with specific bytes, or it must
    not come out anywhere. Byte comparison is pluggable so the caller can
    pass {!Dataplane.masked_bytes_equal} and admit taint-masked
    differences on delivered bytes. *)

module Fabric = Switchv_topo.Fabric

type expectation =
  | Deliver_at of { x_switch : int; x_port : int; x_bytes : string }
      (** the packet must leave the fabric here, with these bytes *)
  | Deliver_nowhere
      (** the packet must not leave the fabric (drop, punt, dead hop,
          loop cut by the hop budget) *)

val of_trace : Fabric.trace -> expectation
(** The expectation a reference trace encodes: [Delivered] maps to
    {!Deliver_at}; every other disposition maps to {!Deliver_nowhere}. *)

val check :
  bytes_equal:(string -> string -> bool) ->
  expectation -> Fabric.trace -> (unit, string) result
(** [Error detail] describes the mismatch (expected vs observed
    disposition) for incident messages. *)
