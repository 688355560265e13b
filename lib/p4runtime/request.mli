(** P4Runtime RPC shapes: Write (batched updates), Read, and packet I/O.

    A Write carries a batch of updates; per the specification the switch
    may execute a batch's updates {e in any order} (§4, Example 2), and
    must report a per-update status vector. *)

type op = Insert | Modify | Delete

type update = { op : op; entry : Entry.t }

type write_request = { updates : update list }

type write_response = { statuses : Status.t list }
(** One status per update, in request order. *)

type read_response = { entries : Entry.t list }

(** Packet I/O between controller and switch (PacketIn = switch-to-
    controller punt; PacketOut = controller-injected packet). *)
type packet_out = { po_payload : Switchv_packet.Packet.t; po_egress_port : int option }
(** [po_egress_port = None] requests submit-to-ingress processing. *)

type packet_in = { pi_payload : Switchv_packet.Packet.t; pi_ingress_port : int }

val op_to_string : op -> string
val pp_update : Format.formatter -> update -> unit
val write_ok : write_response -> bool
val insert : Entry.t -> update
val modify : Entry.t -> update
val delete : Entry.t -> update

val insert_batches : Entry.t list -> update list list
(** Inserts for dependency-ordered entries, one batch per run of
    same-table entries (§4.4, "Batching Table Entries"). Referenced
    entries precede the entries referring to them, and a batch never mixes
    tables, so no batch carries an internal [@refers_to] dependency. *)
