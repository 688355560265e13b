(** What the control, data and fabric campaigns share: an incident sink
    that owns the incident budget, and one sharded run that owns the merge
    rule.

    The merge rule keeps a capped campaign's output independent of how its
    shards were executed. Every shard counts from the parent's count at the
    fork and may use the whole budget; the merge concatenates the shards'
    incidents in shard order and truncates them to what the parent had
    left. Each shard keeps at least as many incidents as any merged prefix
    can ask of it, so the truncated list is the same whether the shards ran
    in this process or in any interleaving of forked workers. *)

module Repro = Switchv_triage.Repro

(** {1 The incident sink} *)

type sink
(** A campaign's incidents so far: their detector, the cap, and a running
    count. *)

val sink : cap:int -> Report.detector -> sink
(** An empty sink. *)

val room : sink -> bool
(** The budget is not spent: the count is below the cap. *)

val add :
  sink -> ?context:Report.context -> ?repro:Repro.t -> string -> string -> unit
(** [add sink kind detail] records one incident and bumps
    [campaign.incidents], unless the budget is spent. *)

val add_batch :
  sink ->
  ?context:Report.context ->
  ?repro:Repro.t ->
  (string * string) list ->
  unit
(** Record a group of [(kind, detail)] incidents judged as one unit (a
    control batch): all of them when the budget is not spent, else none.
    A group may overshoot the cap. *)

val incidents : sink -> Report.incident list
(** The recorded incidents, in the order they were added. *)

(** {1 Sharded runs} *)

type totals = (string * float) list
(** A shard's named numeric results: counts and durations. *)

val total : totals -> string -> float
(** A named total; [0.] when no shard reported it. *)

val run :
  ?jobs:int ->
  ?parent_shards:int list ->
  sink ->
  shards:int ->
  (int -> sink -> int * 'a list -> totals) ->
  'a list ->
  totals
(** [run sink ~shards shard work] splits [work] into [shards] contiguous
    slices ({!Switchv_parallel.Shard.partition}) and runs
    [shard s s_sink (offset, slice)] for each shard [s] through
    {!Switchv_parallel.Pool.map} ([jobs] defaults to 1; [parent_shards] as
    there). [s_sink] is a fresh sink with [sink]'s detector and cap whose
    count starts at [sink]'s. The shards' incidents are appended to [sink]
    in shard order, truncated to the budget [sink] had left when more than
    one shard ran; with one shard they are kept whole, so a control batch's
    overshoot survives. The result sums the shards' totals name by name,
    each contribution clamped at [>= 0]. Forked shards return their
    incidents and totals as one JSON payload; in-process shards encode
    nothing. *)
