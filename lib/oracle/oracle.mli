(** The P4Runtime oracle (§4.3).

    Judges whether a switch's responses to control-plane requests comply
    with the P4Runtime specification instantiated for the given P4 program.
    Because the specification under-specifies some behaviours (batch
    ordering, resource rejection beyond the guaranteed size), the oracle
    never predicts a single outcome: it classifies each update as
    must-accept, must-reject, or may-either, checks the response vector
    against that, and then reads the switch's state back to verify it is
    exactly the state implied by the statuses the switch itself reported.
    On success it {e forgets} the prior state and proceeds from the newly
    observed one, avoiding state-set explosion. *)

module P4info = Switchv_p4ir.P4info
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module Status = Switchv_p4runtime.Status
module State = Switchv_p4runtime.State

type t

val create : P4info.t -> t

val observed : t -> State.t
(** The oracle's current model of the switch state. This is the live
    state, not a snapshot: the next judged batch applies its accepted
    updates to it in place, keeps it when the read-back lists exactly its
    entries in its order, and otherwise replaces it with a state rebuilt
    from the read-back. Copy it ({!State.copy}) to keep a snapshot. *)

type expectation = Must_accept | Must_reject of string | May_either of string

val classify : t -> Request.update -> expectation
(** State-independent validity (§4 "Valid and Invalid Requests") combined
    with the oracle's current state: invalid requests must be rejected;
    valid requests must be accepted unless the specification allows
    rejection in this state (duplicate insert, missing entry, dangling or
    still-referenced target, table beyond its guaranteed size). *)

type kind =
  [ `Status_violation | `State_divergence | `Unresponsive | `P4info_rejected ]

val kind_to_string : kind -> string
(** The incident kind as reports and corpus records name it, e.g.
    ["status violation"]. *)

type incident = { inc_kind : kind; inc_detail : string }

val pp_incident : Format.formatter -> incident -> unit

val spec_valid : P4info.t -> Entry.t list -> State.t * Entry.t list
(** The entries of a dependency-ordered list that the specification lets
    a switch hold when they are installed in order — syntactically valid,
    constraint compliant, with every reference satisfied by an earlier
    kept entry, and no duplicate keys — and the state they build. A
    switch may claim, or a reproducer may carry, entries outside it. *)

val judge_batch :
  t ->
  Request.update list ->
  Request.write_response ->
  read_back:Request.read_response ->
  incident list
(** Judge one batch: response statuses against expectations, then the
    read-back state against the state implied by the reported statuses.
    Afterwards the oracle adopts the read-back state as its new baseline
    (even on incidents, so later batches are judged relative to what the
    switch actually claims). *)

type detailed = {
  incidents : incident list;
  per_update_ok : bool list;
      (** For each update, whether the switch's status was admissible —
          the raw signal behind the paper's §7 OKR metric "percentage of
          fuzzed table entries correctly handled by the switch". *)
}

val judge_batch_detailed :
  t ->
  Request.update list ->
  Request.write_response ->
  read_back:Request.read_response ->
  detailed
