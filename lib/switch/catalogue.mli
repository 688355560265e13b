(** The seeded-bug catalogues for the two validated stacks.

    Modeled on the paper's Table 1 and Appendix A: 122 fault instances for
    the PINS stack and 32 for Cerberus, each with a component attribution,
    an expected detector, resolution-time metadata following the Figure 7
    distribution, and (where applicable) the first trivial test of §6.2
    that would catch it.

    Fault parameters (addresses, ports, tables) are derived from the
    program and the workload entries so that a SwitchV campaign over that
    workload actually exercises them. *)

module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry

val pins : Ast.program -> Entry.t list -> Fault.t list
(** 122 faults across the eight PINS components of Table 1. *)

val cerberus : Ast.program -> Entry.t list -> Fault.t list
(** 32 faults across the four Cerberus categories of Table 1. *)

val topo : Ast.program -> Entry.t list -> Fault.t list
(** Fabric-specific fault instances (TOPO-xxx ids) for multi-switch
    campaigns — e.g. a TTL trap threshold bug that is invisible to
    single-hop edge traffic. Kept separate so the PINS/Cerberus
    populations stay pinned to the paper's counts. *)

val resolve :
  Ast.program -> Entry.t list -> string list -> (Fault.t list, string) result
(** Look fault ids up across all three catalogues (PINS, Cerberus, TOPO),
    in order; an error names the first unknown id. *)

val expected_detector : Fault.t -> [ `Fuzzer | `Symbolic ]
(** Which SwitchV component the catalogue expects to find this fault
    (control-plane kinds → fuzzer, data-plane/sync kinds → symbolic). *)
