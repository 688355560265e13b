(** The staged evaluator: compiles a P4 model once into OCaml closures
    (parser states, expressions, actions, tables, pipelines) and serves
    table lookups from indexed match structures
    ({!Switchv_match.Index} via {!State.index_lookup}), replacing the
    interpreter's per-packet AST walk and O(entries) scans.

    It only stages: {!stage} is an {!Interp.evaluator}, and every entry
    point ([Interp.run_with], [run_info_with], [run_packet_out_with],
    [behavior_set]) is the interpreter's own, over the same
    slot-indexed runtime state ({!Interp.rt}, laid out by
    {!Interp.layout}); staging resolves every field and header name to
    its slot once. Behavior-identical to
    {!Interp.walk}: same [behavior] (trace included), same
    coverage-counter keys (branch ids baked in [Ast.count_ifs]'s
    pre-order numbering), same hash-call accounting, same [Parse_failure]
    messages. The walk remains the linear-scan reference, as a test
    oracle — campaigns run with [compile = false] must be byte-identical
    (a row of the determinism matrix in test/test_parallel.ml), and
    test/test_match.ml drives both differentially.

    Staged pipelines are memoized per program value (physical equality,
    bounded), so staging is a one-time cost per long-lived program. *)

val stage : Interp.evaluator
(** The staged pipeline for a program, built on first use. *)

val select : compile:bool -> Interp.evaluator
(** {!stage} when [compile], else {!Interp.walk}: the one place a campaign
    component's [compile] flag picks its evaluator. *)

val run : Interp.config -> ingress_port:int -> string -> Interp.behavior
(** [Interp.run_with stage]. *)

val run_packet_out :
  Interp.config -> egress_port:int option -> Switchv_packet.Packet.t -> Interp.behavior
(** [Interp.run_packet_out_with stage]. *)
