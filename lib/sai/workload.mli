(** Production-like table-entry workloads.

    The paper seeds p4-symbolic with "a replay of production table entries"
    (§2). We have no production fabric, so this module synthesises entry
    sets with the same structure: a referentially-coherent object graph
    (VRFs → RIFs → neighbors → nexthops → WCMP groups → routes → ACLs)
    at the paper's scales — 798 entries for Inst1 (middleblock) and 1314
    for Inst2 (WAN), per Table 3. Generation is deterministic in the
    seed. *)

module Ast = Switchv_p4ir.Ast
module Entry = Switchv_p4runtime.Entry

type profile = {
  vrfs : int;
  rifs : int;
  neighbors : int;
  nexthops : int;
  wcmp_groups : int;
  ipv4_routes : int;
  ipv6_routes : int;
  acl_pre : int;
  acl_ingress : int;
  acl_egress : int;
  mirror_sessions : int;
  l3_admits : int;
  tunnels : int;
  egress_rifs : int;
}

val total : profile -> int

val inst1 : profile
(** Sums to 798 (Table 3, Inst1). *)

val inst2 : profile
(** Sums to 1314 (Table 3, Inst2). *)

val small : profile
(** A fast profile for unit tests (~60 entries). *)

val scaled : float -> profile -> profile
(** Scale every component count (at least 1 where the base is nonzero). *)

val generate : ?seed:int -> Ast.program -> profile -> Entry.t list
(** Entries in dependency order (references always precede referents), so
    installing them sequentially never dangles. Components whose table does
    not exist in the program are skipped, and so is every entry invoking an
    action its table does not offer. *)

val mirror_map : Entry.t list -> (int * int) list
(** Derive the interpreter's mirror-session → port map from the
    mirror_session_table entries. *)

val scale_routes : ?seed:int -> ?nexthops:int -> Ast.program -> int -> Entry.t list
(** A fixed small nexthop dependency chain followed by [n] unique-/24
    IPv4 routes (up to 2^20 before prefixes repeat), in dependency order.
    The scale workload for the indexed-match bench (`BENCH_scale.json`). *)

