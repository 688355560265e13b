(** Deterministic pseudo-random number generator (splitmix64).

    Fuzzing campaigns and workload generators must be reproducible from a
    seed, independent of OCaml's global [Random] state; every component
    that needs entropy threads one of these explicitly. *)

type t

val create : int -> t
(** [create seed] — equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val bool : t -> bool

val bitvec : t -> int -> Bitvec.t
(** Uniformly random bitvector of the given width. *)

val choose : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val choose_weighted : t -> ('a * int) list -> 'a
(** Choice proportional to the (positive) integer weights. *)

val shuffle : t -> 'a list -> 'a list
