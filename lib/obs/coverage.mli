(** Edge-coverage accounting over the program CFG.

    The bmv2 interpreter bumps a telemetry counter per CFG edge it takes
    (condition arms keyed by the Symexec branch-id numbering, table-action
    edges keyed by table/role/action). This module turns those counters
    plus {!Switchv_analysis.Cfg} — which knows the {e full} edge space,
    including edges never taken — into a coverage map: the observability
    prerequisite for FP4-style coverage-guided feedback.

    Coverage counters are ordinary counters, so they merge across forked
    shards like everything else; because shard decomposition is
    jobs-invariant, [to_string] is byte-identical for any [--jobs]. *)

type t = {
  entries : (string * int) list;  (** full edge key space, sorted; 0 = unhit *)
  covered : int;
  total : int;
}

val edge_keys : Switchv_p4ir.Ast.program -> string list
(** Every edge key the program can ever produce, sorted, deduplicated. *)

val of_registry :
  ?prefix:string -> Switchv_telemetry.Telemetry.t -> Switchv_p4ir.Ast.program -> t
(** Fold the registry's coverage counters over the program's edge space.
    [?prefix] (default [""]) reads each key as [prefix ^ key] — used for
    per-switch fabric coverage, whose counters are re-emitted under
    [topo.sw.<i>.]; the resulting map still carries canonical unprefixed
    keys. *)

val percent : t -> float
(** 100 for an empty edge space. *)

val to_string : t -> string
(** Canonical text form ("key count" lines under two header comments);
    deterministic across jobs counts — what [--coverage-out] writes and
    [make check-obs] byte-compares. *)

val write_file : t -> string -> unit
(** Write [to_string] atomically (temp file + rename). *)

val to_json : t -> string
val pp : Format.formatter -> t -> unit
