(** p4-fuzzer: control-plane request generation (§4).

    Given a P4Info schema, generates batched Write requests containing both
    valid updates and "interestingly invalid" ones produced by applying a
    single mutation to a valid update (§4.2). Generation is directed by the
    schema — field widths, permitted actions, reference annotations — and
    by a mirror of the entries installed so far, so that valid updates can
    reference previously installed objects, and deletions target existing
    (preferably unreferenced) entries.

    Batches are formed so that no update depends on another update in the
    same batch ([@refers_to]-derived ordering, §4.4): a switch may execute
    a batch in any order, so intra-batch dependencies would make validity
    order-dependent and unjudgeable. *)

module P4info = Switchv_p4ir.P4info
module Entry = Switchv_p4runtime.Entry
module Request = Switchv_p4runtime.Request
module State = Switchv_p4runtime.State
module Rng = Switchv_bitvec.Rng

type config = {
  respect_dependencies : bool;
      (** When false, batches may contain internal dependencies (deletes of
          entries referenced by same-batch inserts) — the ablation of the
          paper's @refers_to-aware batching, expected to produce spurious
          oracle incidents. *)
}

val default_config : config
(** Dependencies respected. *)

type t

val create : ?config:config -> ?greybox:Greybox.t -> P4info.t -> Rng.t -> t
(** [greybox] plugs in a coverage-feedback state ({!Greybox}): valid-insert
    table choice becomes energy-weighted and some mutation bases come from
    the corpus. Without it (or before any feedback arrives) generation is
    exactly the blind fuzzer — greybox draws use a private generator, so
    the [rng] stream is untouched. *)

val mirror : t -> State.t
(** The fuzzer's view of what should be installed, assuming the switch
    accepted every valid update. Used by campaigns for reporting only; the
    oracle keeps its own observed state. Read-only: the fuzzer keeps its
    draw views in step with its own writes to the mirror, so a write from
    outside would leave them stale. *)

val views : t -> Entry.t list * Entry.t list
(** The two views of {!mirror} that generation draws from, in insertion
    order: every installed entry, and the entries that provide no value an
    installed entry references (the delete candidates). Maintained across
    batches by the fuzzer's mirror writes; exposed so tests can check them
    against a rebuild from {!mirror}. *)

type annotated_update = {
  update : Request.update;
  mutation : string option;
      (** The mutation applied, or [None] for an un-mutated update. The
          oracle classifies validity independently. *)
}

val next_batch : t -> annotated_update list
(** Generate the next batch: 50 draws, as in the paper's campaigns, of
    which 30% are mutated (invalid) updates and, of the valid ones, 25%
    deletes, 10% modifies and the rest inserts (draws that find no
    candidate add nothing). The fuzzer optimistically applies its own
    valid updates to [mirror] (the oracle reconciles against the switch's
    actual state). *)

val sweep : t -> annotated_update list list
(** Directed batches that systematically exercise the whole control
    surface: valid inserts into every table (in [@refers_to] dependency
    order, several per table), one valid modify and one valid delete per
    table where possible, then one instance of {e every applicable
    mutation against every table}. Campaigns run a sweep before the random
    phase so that table-specific handling is always covered at least
    once. *)

val mutations : string list
(** Names of all implemented mutations (§4.2). *)
