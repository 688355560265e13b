(** The simulated switch-under-test.

    Mirrors the layering of a PINS switch (Figure 4): a P4Runtime server
    that validates and caches control-plane state, sync layers
    (orchestration agent + SyncD) that propagate it to the ASIC, and an
    ASIC data plane (driven by our reference interpreter over the ASIC's
    own copy of the state, with an internal, vendor-private hash seed).

    An unseeded stack is {e correct by construction} with respect to its P4
    model — SwitchV campaigns against it must report zero incidents (this
    is itself a test of SwitchV). Seeding {!Fault.t} values perturbs
    specific layers: server faults corrupt validation/read behaviour, sync
    faults desynchronise the ASIC state from the server's view, data-plane
    faults perturb packet behaviour. *)

module Ast = Switchv_p4ir.Ast
module P4info = Switchv_p4ir.P4info
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State
module Interp = Switchv_bmv2.Interp

type t

val create :
  ?faults:Fault.t list -> ?hash_seed:int -> ?compile:bool -> Ast.program -> t
(** [compile] (default [true]) selects the staged evaluator
    ({!Switchv_bmv2.Compile}) for the ASIC data plane; [false] falls back
    to the reference interpreter — behaviour is identical either way (a
    test oracle, checked by the determinism matrix in
    test/test_parallel.ml). *)

val program : t -> Ast.program
val info : t -> P4info.t

val push_p4info : t -> Status.t
(** The "Set P4Info" step; must succeed before writes are accepted. *)

val write : t -> Request.write_request -> Request.write_response
val read : t -> Request.read_response

val inject : t -> ingress_port:int -> string -> Interp.behavior
(** Send wire bytes into the data plane. On a {!crashed} stack the packet
    is silently dropped (no egress, no punt) — a dead switch is link-dead,
    which fabric forwarding reports as a drop at the dead hop. *)

val packet_out : t -> Request.packet_out -> Interp.behavior
(** Same crashed-stack contract as {!inject}. *)

val crashed : t -> bool
(** True once a fault has driven the switch into an unresponsive state;
    subsequent RPCs return [Unavailable]. *)

val server_state : t -> State.t
(** The P4Runtime server's view (what [read] reflects); exposed for
    white-box tests. *)

val asic_state : t -> State.t
(** The ASIC's view; differs from [server_state] under sync faults. *)
