(** FP4-style coverage-guided greybox scheduling (feedback loop).

    One instance per campaign shard. After each execution (update batch's
    probe packets on the control side, each generated test packet on the
    data side) the campaign folds the [cov.branch.*]/[cov.action.*]
    counter delta into this shard's novelty map; executions that reached
    edges new to the shard enter a bounded corpus and assign energy to the
    tables they touched. The fuzzer then draws mutation targets through
    {!pick_table}/{!pick_seed_entry} — a power schedule favoring rare-edge
    reachers — and the campaign injects {!probe_packet}s derived from the
    corpus.

    Determinism: novelty is shard-local and fed only by deltas around this
    shard's own executions, so scheduling is a pure function of
    (config, shard) — byte-identical at any [--jobs]. All randomness comes
    from a private generator, so disabling the loop reproduces the blind
    fuzzer's stream exactly. *)

module P4info = Switchv_p4ir.P4info
module Entry = Switchv_p4runtime.Entry
module Telemetry = Switchv_telemetry.Telemetry

type seed_input =
  | Batch of Entry.t list   (** control-plane seed: an admitted batch *)
  | Packet of int * string  (** data-plane seed: (ingress port, bytes) *)

type t

val create : program:Switchv_p4ir.Ast.program -> seed:int -> unit -> t
(** Fresh, empty feedback state over the program's full edge space
    ({!Coverage.edge_keys}). [seed] is decorrelated internally, so passing
    the campaign shard seed is fine. *)

type snapshot

val snapshot : t -> Telemetry.t -> snapshot
(** Current values of every coverage counter, to diff after an execution. *)

val observe :
  t -> Telemetry.t -> before:snapshot -> tables:string list ->
  ?seed:seed_input -> unit -> int
(** Fold the delta since [before] into the novelty map. Returns the number
    of shard-novel edges; when positive, [seed] (if any) is admitted to
    the corpus with that energy and each of [tables] gains that much
    energy. Bumps [fuzzer.greybox.novel_edges] / [corpus_admitted] /
    [energy_assigned]. *)

val admit : t -> seed_input -> energy:int -> unit
(** Admit an input directly (used to credit the batch whose probes found
    novelty). The corpus is bounded; the lowest-energy seed is evicted. *)

val pick_table : t -> P4info.table list -> P4info.table
(** Energy-weighted table choice (weight [1 + energy], one RNG draw). *)

val pick_seed_entry : t -> Entry.t option
(** A third of the time, an entry from an energy-weighted corpus batch to
    use as a mutation base; [None] otherwise or when the corpus has no
    control-plane seeds. *)

val probe_packet : t -> int * string
(** [(ingress_port, bytes)] to inject after a batch, on a port in 1–4: a
    fresh random IPv4 frame or a byte-mutated energy-weighted corpus packet. *)

val covered : t -> string -> bool
(** Has this shard concretely covered the given edge key ([cov.…])? *)

val novel_edges : t -> int
(** Distinct edges first observed by this shard. *)

val corpus_size : t -> int
