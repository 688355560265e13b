(** Structured, serializable reproducers (the triage subsystem's core
    artifact).

    §6 of the paper reports that {e reproducing} a miscompare is the
    dominant human cost of a finding. A reproducer captures, at the
    incident site, exactly the inputs needed to re-trigger the divergence
    against a freshly provisioned stack:

    - control plane: the installed-entry prefix (the switch state the
      campaign had built up), the triggering Write batch, and the campaign
      seed;
    - data plane: the installed entry set, the ingress port, and the exact
      wire bytes of the test packet.

    Reproducers are plain data — serializable to the hand-rolled JSON the
    corpus stores, minimizable by {!Ddmin}, replayable by {!Corpus}. *)

module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request

type control = {
  cr_seed : int;            (** campaign RNG seed (provenance) *)
  cr_prefix : Entry.t list; (** switch state before the failing batch *)
  cr_batch : Request.update list;  (** the triggering Write batch *)
}

type data = {
  dr_entries : Entry.t list;  (** full installed entry set *)
  dr_port : int;              (** ingress port the packet arrived on *)
  dr_bytes : string;          (** exact wire bytes injected *)
}

type t = Control of control | Data of data

val size : t -> int
(** Number of minimizable elements: prefix + batch updates for control,
    entries for data. The triage bench's shrinkage factor is
    [size raw / size minimized]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** One-line summary (sizes, not contents). *)

val to_json : t -> string
(** JSON object fragment (see DESIGN.md "Triage" for the schema). *)

val of_json : Switchv_telemetry.Jsonp.t -> (t, string) result

(** {1 Wire-byte helpers} (shared with tests) *)

val hex_of_bytes : string -> string
val bytes_of_hex : string -> (string, string) result
