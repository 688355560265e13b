(** Findings produced by the static analyses, with stable codes.

    Every pass reports through this module so consumers (the [switchv
    lint] subcommand, tests, telemetry) see one uniform shape. Codes are
    stable identifiers — tests and suppression lists key on them, so a
    code is never reused for a different defect class.

    The shipped codes:

    - [P4A001] {e error} — a header field is read at a point where the
      header is provably never valid (includes [setInvalid]-then-read).
    - [P4A002] {e warning} — a header field is read at a point where the
      header is not provably valid on every path to the read.
    - [P4A003] {e error} — a table is applied in a pipeline, but only on
      statically-unreachable paths (e.g. under a branch whose condition
      constant/range propagation decides is always false).
    - [P4A004] {e error} — a table's [@entry_restriction] is
      unsatisfiable: no entry can ever be installed, so the fuzzer would
      silently generate nothing and every coverage goal for it is dead.
    - [P4A005] {e warning} — a parser state is unreachable from the start
      state.
    - [P4A006] {e warning} — a pipeline conditional is statically decided
      (one arm can never execute).
    - [P4A007] {e info} — a table is defined but never applied in any
      pipeline. This is legitimate for control-plane-only resources (the
      SAI mirror-session table), hence info severity.
    - [P4A008] {e warning} — an action is referenced by no live table.
      Never-applied tables ([P4A007]) still count as referencing their
      actions (the control plane may exercise them); statically-dead
      tables ([P4A003]) do not.
    - [P4A009] {e warning} — a table matches on a value tainted by a
      nondeterminism source (an [E_hash] result or an action-selector
      member choice): which entry wins cannot be predicted
      deterministically.
    - [P4A010] {e warning} — taint reaches the egress specification
      ([std.egress_port] may hold a tainted value at pipeline exit): the
      oracle falls back to set-valued verdicts for affected packets. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val severity_of_string : string -> severity option
(** Accepts ["error"], ["warning"] (or ["warn"]), ["info"]. *)

type t = {
  d_code : string;      (** stable code, e.g. ["P4A003"] *)
  d_severity : severity;
  d_loc : string;       (** program location, e.g. ["table ipv4_table"] *)
  d_message : string;
}

val error : string -> loc:string -> ('a, unit, string, t) format4 -> 'a
(** [error code ~loc fmt ...] builds an error-severity finding. *)

val warning : string -> loc:string -> ('a, unit, string, t) format4 -> 'a
val info : string -> loc:string -> ('a, unit, string, t) format4 -> 'a

val filter : min_severity:severity -> t list -> t list
(** Keep findings at or above the given severity. *)

val has_errors : t list -> bool

val count : severity -> t list -> int

val dedup : t list -> t list
(** Drop exact duplicates (same code, location, and message), preserving
    first-occurrence order. *)

val sort : t list -> t list
(** Sort by (descending severity, location, code, message) — a total key,
    so the order is deterministic regardless of discovery order or OCaml
    version. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[P4A001] table t: message]. *)

val pp_summary : Format.formatter -> t list -> unit
(** One line of totals: [2 errors, 3 warnings, 1 info]. *)
