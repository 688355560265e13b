(** The staged evaluator: compiles a P4 model once into OCaml closures
    (parser states, expressions, actions, tables, pipelines) and serves
    table lookups from indexed match structures
    ({!Switchv_match.Index} via {!State.index_lookup}), replacing the
    interpreter's per-packet AST walk and O(entries) scans.

    The API mirrors {!Interp} and is behavior-identical: same [behavior]
    (trace included), same coverage-counter keys (branch ids baked with
    the interpreter's pre-order numbering), same hash-call accounting,
    same [Parse_failure] messages. [Interp] remains the retained
    linear-scan reference, as a test oracle — campaigns run with
    [compile = false] must be byte-identical (a row of the determinism
    matrix in test/test_parallel.ml), and test/test_match.ml drives both
    differentially.

    Staged pipelines are memoized per program value (physical equality,
    bounded), so staging is a one-time cost per long-lived program. *)

module Packet = Switchv_packet.Packet

val run : Interp.config -> ingress_port:int -> string -> Interp.behavior
val run_info : Interp.config -> ingress_port:int -> string -> Interp.run_info
val run_packet : Interp.config -> ingress_port:int -> Packet.t -> Interp.behavior

val run_packet_out :
  Interp.config -> egress_port:int option -> Packet.t -> Interp.behavior

val enumerate_behaviors :
  ?max_rounds:int -> Interp.config -> ingress_port:int -> string -> Interp.behavior list
