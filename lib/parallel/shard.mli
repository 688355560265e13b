(** Deterministic work decomposition for parallel campaigns.

    The cardinal rule: a decomposition is a function of the {e work} and
    the {e shard count} only, never of the worker count. That is what
    makes a sharded campaign's merged output independent of [--jobs] —
    workers merely race to execute a plan that is fixed up front. *)

val counts : total:int -> shards:int -> int array
(** Even contiguous split of [total] items into [shards] parts; earlier
    shards absorb the remainder. [shards] is clamped to [>= 1]. *)

val partition : shards:int -> 'a list -> (int * 'a list) array
(** Contiguous slices of the list, each with its global start offset.
    Concatenating the slices in shard order rebuilds the input exactly. *)

val assignment : jobs:int -> shards:int -> int list array
(** Round-robin shard-to-worker plan: entry [w] lists the shard ids worker
    [w] executes, in increasing order. Length is
    [max 1 (min jobs shards)]. *)
