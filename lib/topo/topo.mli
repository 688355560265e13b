(** Declarative multi-switch topologies.

    A topology wires [n] switches together through a link table mapping
    (switch, port) to (peer switch, peer port). Ports are allocated
    deterministically: each switch numbers its fabric-facing ports
    [1 .. degree] in ascending order of the peer's switch index, and every
    switch additionally exposes one host-facing {!edge_port} that is never
    part of the link table — packets egressing there leave the fabric.

    The same builder is used for the simulated stacks and for the P4 model
    references, so both sides of a differential fabric campaign see an
    identical wiring. *)

type shape =
  | Line        (** switch [i] links to [i+1] *)
  | Star        (** switch 0 is the hub; every other switch links to it *)
  | Mesh        (** every pair of switches is linked *)
  | Leaf_spine  (** spines [0..s-1], leaves [s..n-1], full bipartite *)

val shape_to_string : shape -> string

val shape_of_string : string -> (shape, string) result
(** Accepts ["line"], ["star"], ["mesh"], ["leaf_spine"]/["leaf-spine"]. *)

val all_shapes : shape list

type t

val edge_port : int
(** The host-facing port present on every switch (100). Never linked. *)

val build : ?spines:int -> shape -> int -> t
(** [build shape n] wires [n] switches (indices [0..n-1]).
    [?spines] only applies to {!Leaf_spine} (default: 2 when [n >= 4],
    else 1). Raises [Invalid_argument] when [n < 1], [n > 64], or the
    spine count does not leave at least one leaf. *)

val shape : t -> shape
val switches : t -> int
val spines : t -> int
(** 0 for non-leaf-spine shapes. *)

val links : t -> ((int * int) * (int * int)) list
(** Undirected links as [((sw_a, port_a), (sw_b, port_b))] with
    [sw_a < sw_b], sorted. *)

val link_count : t -> int

val neighbors : t -> int -> int list
(** Ascending switch indices adjacent to the given switch. *)

val link_port : t -> src:int -> dst:int -> int option
(** The port on [src] that faces [dst], when they are adjacent. *)

val peer : t -> switch:int -> port:int -> (int * int) option
(** Link-table lookup: [None] means the port is unlinked (an edge port),
    so an egress there is a delivery out of the fabric. *)

val next_hop : t -> src:int -> dst:int -> int option
(** First switch on the deterministic shortest path (BFS, ascending
    neighbor order, so ties break toward the lowest switch index).
    [None] when [dst] is unreachable or [src = dst]. *)

val path : t -> src:int -> dst:int -> int list option
(** Inclusive switch sequence [src; ...; dst] along the same deterministic
    shortest path. [Some [src]] when [src = dst]. *)
