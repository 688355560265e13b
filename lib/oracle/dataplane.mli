(** The data-plane verdict: the one place a switch behaviour is judged
    against the P4 model — campaign packets, the packet-I/O contract,
    fabric hops and packet-outs, corpus replay and metrics.

    Verdicts are set-valued for nondeterministic models.

    The paper's oracle handles hashing/WCMP by round-robin enumeration of
    [Fixed] hash rounds and set membership. That is sound but expensive
    (one model execution per round, for every packet) and it is the only
    verdict available even for fully deterministic packets. This module
    consumes the static {!Switchv_analysis.Taint} summary to decide
    cheaply:

    - a single [Fixed 0] model run that matches the switch exactly is
      accepted outright (and, if the run consulted no hash, it is the
      complete behaviour set — no enumeration can add anything);
    - a differing switch behaviour is accepted without enumeration when it
      agrees with the model on every untainted observable: egress port
      inside the statically-computed candidate set (the ports reachable
      through tainted egress-writer tables' installed entries), punt and
      mirror flags equal, and forwarded bytes equal on every bit outside
      taint-reaching output fields;
    - anything else {e escalates} to the classic enumeration, whose
      verdict is authoritative — so the fast paths can only save work,
      never change an incident into a false positive or vice versa. In
      particular a [Seeded] switch run outside the candidate set is
      reported as a real incident, not noise.

    On hash-free programs (empty taint summary, one hash round) verdicts,
    model execution counts, and divergence behaviour sets are identical to
    plain enumeration, byte for byte.

    Telemetry: [oracle.dataplane_fast], [oracle.dataplane_set_admits],
    [oracle.dataplane_escalations], [oracle.enum_rounds_saved]. *)

module Interp = Switchv_bmv2.Interp
module Taint = Switchv_analysis.Taint
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request

type t

val model : Switchv_p4ir.Ast.program -> Entry.t list -> Interp.config
(** The reference model over an entry set (whatever a switch accepted),
    hash outcome [Fixed 0], mirror sessions from the entries. Entries the
    model state refuses are skipped. *)

val create : ?compile:bool -> Interp.config -> taint:Taint.summary -> t
(** [create cfg ~taint] precomputes the candidate egress-port set and the
    output byte mask. The config's hash mode is forced to [Fixed 0] (the
    reference round); pass {!Taint.empty} to disable set-valued verdicts
    (pure enumeration semantics). [compile] (default [true]) picks the
    staged evaluator for every model run, else the interpreter's walk. *)

val candidate_ports : t -> int list
(** The statically-computed egress candidate set, sorted: every port an
    installed entry or default action of a tainted egress-writer table can
    select. *)

type verdict =
  | Admitted
  | Diverged of Interp.behavior list
      (** the behaviours the model admits (the enumeration set, or the
          singleton [Fixed 0] behaviour for hash-free programs) — for
          incident messages *)

val judge :
  t -> ingress_port:int -> bytes:string -> switch:Interp.behavior -> verdict
(** Compare one switch behaviour against the model. Raises
    {!Interp.Parse_failure} like the underlying interpreter when [bytes]
    does not parse. *)

val judge_info :
  t -> ingress_port:int -> bytes:string -> switch:Interp.behavior ->
  verdict * Interp.run_info
(** Like {!judge}, also returning the reference [Fixed 0] run's info —
    fabric campaigns use [ri_hash_calls] to tell deterministic hops from
    hash-consulting ones and [ri_valid] to drive {!masked_bytes_equal} on
    end-to-end byte comparisons. *)

val judge_packet_out :
  t -> Request.packet_out -> switch:Interp.behavior -> verdict * Interp.behavior
(** Judge the switch's handling of a controller packet-out. A directed one
    (egress port given) bypasses the pipeline: it diverges when the switch
    emits it anywhere but that port or punts it back (bytes and mirrors
    are not part of this contract). A submit-to-ingress one is judged
    against {!Interp.behavior_set}, every hash round of the model's
    pipeline. Also returns the model's reference behaviour (the direct
    emission, or round 0), which a fabric forwards on its model side. *)

val masked_bytes_equal : t -> Interp.run_info -> string -> string -> bool
(** Taint-masked byte equality: walk the run's valid headers in wire
    order, ignore the bits of exit-tainted fields, compare everything else
    (including the payload) exactly. *)
