(** The fabric forwarding loop.

    A fabric is an array of {!node}s (one per switch) plus a {!Topo.t}
    link table. {!forward} injects raw bytes at one (switch, port) and
    carries each switch's {!Interp.behavior} output across links until the
    packet leaves the fabric, is dropped, reaches a crashed switch, or
    exhausts the hop budget (which turns forwarding loops into a reported
    disposition instead of divergence).

    Nodes abstract over the two sides of a differential campaign: a
    {!stack_node} wraps a simulated {!Stack.t} (the "switch under test"),
    a {!model_node} wraps a P4 interpreter config (the reference). Both
    traverse the same link table, so per-hop traces line up
    hop-for-hop. *)

module Interp = Switchv_bmv2.Interp
module Stack = Switchv_switch.Stack

type node = {
  n_id : int;
  n_crashed : unit -> bool;
  n_inject : ingress_port:int -> string -> Interp.behavior;
}

val stack_node : int -> Stack.t -> node
(** Wraps [Stack.inject]. Each injection runs under a scratch telemetry
    registry whose contents are absorbed into the ambient registry
    unchanged, and additionally every [cov.*] counter is re-emitted under
    [topo.sw.<id>.] — the per-switch coverage namespace folded into the obs
    report. *)

val model_node : int -> Interp.config -> node
(** Wraps the staged evaluator ({!Switchv_bmv2.Compile}); never crashed; a
    parse failure becomes a drop. *)

type hop = {
  h_switch : int;
  h_ingress : int;  (** ingress port at this switch; 0 for packet-out *)
  h_bytes_in : string;  (** the bytes as they arrived at this switch *)
  h_behavior : Interp.behavior;
}

type disposition =
  | Delivered of { d_switch : int; d_port : int; d_bytes : string }
      (** Egressed on an unlinked (edge) port — left the fabric. *)
  | Dropped of { d_switch : int; d_punted : bool }
  | Dead_hop of int  (** Reached a crashed switch; dropped there. *)
  | Budget_exhausted of int
      (** Hop budget ran out at this switch — a forwarding loop. *)

type trace = { t_hops : hop list; t_disposition : disposition }

val default_budget : Topo.t -> int
(** [4 * switches + 8] — generous for any shortest path, small enough to
    cut loops quickly. *)

val forward :
  ?budget:int -> Topo.t -> node array -> switch:int -> port:int -> string ->
  trace
(** Inject bytes at [switch]'s [port] and follow the link table. *)

val forward_from :
  ?budget:int -> Topo.t -> node array -> switch:int -> ingress_port:int ->
  bytes:string -> Interp.behavior -> trace
(** Continue from a precomputed first-hop behavior (e.g. a packet-out
    processed by [Stack.packet_out]); the first hop is recorded with the
    given [ingress_port] and [bytes]. *)

val pp_disposition : Format.formatter -> disposition -> unit
