(** The reference P4 interpreter ("our BMv2").

    Executes a P4 model program concretely: byte-level parsing per the
    program's parser, match-action pipeline evaluation against installed
    table entries, action execution, and deparsing. SwitchV runs generated
    test packets through this interpreter and through the switch under
    test, and compares behaviours (§5).

    {b Hashing.} Black-box hashes ([E_hash], and the implicit selector hash
    of one-shot WCMP tables) are pluggable. [Seeded] mode computes a real
    (FNV-based) hash — what a switch might do. [Fixed n] makes every hash
    evaluate to [n] — the building block for round-robin behaviour-set
    enumeration (§5 "Hashing"): {!behavior_set} runs [Fixed 0],
    [Fixed 1], ... until every WCMP member has been reachable. *)

module Bitvec = Switchv_bitvec.Bitvec
module Packet = Switchv_packet.Packet
module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry
module State = Switchv_p4runtime.State

type hash_mode =
  | Seeded of int       (** deterministic concrete hash with given seed *)
  | Fixed of int        (** every hash application evaluates to this value *)

type config = {
  program : Ast.program;
  state : State.t;
  hash_mode : hash_mode;
  mirror_map : (int * int) list;
      (** mirror session id -> destination port (the paper's logical
          mirror-session table, §3 "Mirror Sessions") *)
}

(** The externally observable outcome of processing one packet. *)
type behavior = {
  b_egress : int option;          (** [None] = dropped *)
  b_punted : bool;                (** a copy went to the controller *)
  b_mirrors : (int * string) list;(** mirror copies: port, wire bytes *)
  b_packet : string;              (** wire bytes of the forwarded packet *)
  b_trace : (string * string) list;
      (** debug: table name -> action taken (["<default>"] markers kept
          human-readable; not part of behaviour equality) *)
}

val behavior_equal : behavior -> behavior -> bool
(** Equality of observable outcome (egress, punt, mirrors, bytes if
    forwarded); ignores the trace. *)

val pp_behavior : Format.formatter -> behavior -> unit

val pp_behavior_set : Format.formatter -> behavior list -> unit
(** [{b1; b2; …}]: the behaviours a model admits, for divergence details. *)

exception Parse_failure of string
(** Raised when the input bytes cannot be parsed by the program's parser
    (truncated packet, or no transition matches and the default leads
    nowhere). *)

val ordered_entries : Ast.table -> Entry.t list -> Entry.t list
(** The table's entries in match-precedence order (priority descending for
    ternary/optional tables, LPM specificity descending otherwise, with
    insertion order breaking ties): the first entry in this list whose
    matches hold wins. Shared with p4-symbolic so that the reference
    interpreter and the symbolic encoding agree on tie-breaking. *)

(** {2 Evaluator internals}

    The per-packet runtime state and the pieces of the AST walk the staged
    evaluator ({!Compile}) shares: field access, hash accounting and
    coverage emission, so the two are behavior-identical by construction.
    Differential tests also use {!entry_matches} as the linear-scan
    reference. *)

(** Mutable per-packet execution state. *)
type rt = {
  cfg : config;
  fields : (string, Bitvec.t) Hashtbl.t;    (** "hdr.field" -> value *)
  valid : (string, bool) Hashtbl.t;         (** header name -> validity *)
  mutable payload : string;
  mutable trace : (string * string) list;
  mutable hash_calls : int;
}

val fkey : string -> string -> string
(** [fkey hdr field] is the [fields] key ["hdr.field"]. *)

val read_field : rt -> Ast.field_ref -> Bitvec.t
val write_field : rt -> Ast.field_ref -> Bitvec.t -> unit
val is_valid : rt -> string -> bool

val hash_value : rt -> Bitvec.t list -> int
(** Apply the configured hash, counting the call in [hash_calls]. *)

val apply_table : rt -> string -> unit
(** Reference table application (linear scan), including trace and
    coverage-counter emission. *)

val entry_matches : Ast.table -> (string * Bitvec.t) list -> Entry.t -> bool
(** Do the entry's field matches hold for the given key values? Omitted
    keys are wildcards. *)

(** {2 Evaluators and entry points}

    An evaluator supplies one packet's three stages for a program: the
    AST walk ({!walk}) or {!Compile}'s staged closures
    ({!Compile.stage}). Every entry point below is written once over that
    split, so the two evaluators differ only in how a stage runs. *)

type pipeline = {
  parse : rt -> string -> unit;
      (** extract headers and the payload, or raise {!Parse_failure} *)
  ingress : rt -> unit;
  egress : rt -> unit;
}

type evaluator = Ast.program -> pipeline

val walk : evaluator
(** The interpreter: walks the program's AST for every packet, scanning
    table entries linearly. *)

val run_with : evaluator -> config -> ingress_port:int -> string -> behavior
(** Process raw wire bytes arriving on [ingress_port]. *)

(** {!run_with} plus the execution facts a set-valued oracle needs:
    whether the run consulted a hash at all (if not, the behaviour is
    deterministic and needs no enumeration), and which headers were valid
    at deparse (the wire-format layout, for masked byte comparison). *)
type run_info = {
  ri_behavior : behavior;
  ri_hash_calls : int;    (** hash applications during the run *)
  ri_valid : string list; (** valid headers at deparse, in wire order *)
}

val run_info_with : evaluator -> config -> ingress_port:int -> string -> run_info

val run_packet_out_with :
  evaluator -> config -> egress_port:int option -> Packet.t -> behavior
(** Controller packet-out: [Some port] bypasses the pipeline and emits
    directly; [None] submits to ingress (sets [std.submit_to_ingress]). *)

val run : config -> ingress_port:int -> string -> behavior
(** [run_with walk]. *)

val run_packet : config -> ingress_port:int -> Packet.t -> behavior
(** {!run} on the serialised packet. *)

val run_packet_out : config -> egress_port:int option -> Packet.t -> behavior
(** [run_packet_out_with walk]. *)

val hash_rounds : config -> int
(** The number of distinct [Fixed] hash rounds needed to reach every WCMP
    member of every installed group (the maximum total weight). *)

val behavior_set : config -> (config -> behavior) -> behavior list
(** [behavior_set cfg run] is the round-robin over hash outcomes (§5
    "Hashing"): [run] under [Fixed 0], [Fixed 1], … for {!hash_rounds}
    rounds (at most 32), keeping each distinct behaviour once in
    first-seen order, so round 0's comes first. It is the set of possible
    behaviours of a non-deterministic program on one input. *)
