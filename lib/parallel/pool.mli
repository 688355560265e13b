(** Fork-based worker pool for campaign sharding.

    [map ~jobs ~shards ~encode ~decode task] runs [task s] for every shard
    id [0 .. shards-1] and returns the results in shard order, regardless
    of which worker ran what or in what order frames arrived.

    With [jobs <= 1] or [shards <= 1] every shard runs in this process, in
    shard order, and nothing is encoded. Otherwise workers are forked
    {e after} the caller's setup, so they inherit the parsed program,
    installed stack, and symbolic encoding copy-on-write; each shard's
    result crosses the pipe as [encode r] and is rebuilt with [decode].

    Each worker runs under a fresh registry seeded with its own span-id
    block and streams length-prefixed JSON frames back: batches of raw
    trace-event lines (spliced into the parent's trace sink, so a
    campaign trace is one stitched causal tree), periodic telemetry
    heartbeats, and one result envelope per shard carrying the payload
    (or an error). Telemetry always crosses the pipe as {e deltas}
    (heartbeats, then a final delta on the envelope), so the parent
    absorbs every frame additively — including full histogram bucket
    contents, which is why sharded quantiles match single-process runs —
    and the merged totals are independent of flush cadence and of
    [jobs]. The forked pool runs inside a [parallel.pool] span; worker
    [parallel.shard] root spans carry it as their parent id.

    Failure is containment, not abort: a crashed or erroring worker, or
    one silent for 300 s, forfeits its undelivered shards, and a payload
    [decode] rejects is dropped the same way. Each loss bumps the
    [parallel.workers_failed] counter and is logged to stderr; the result
    list simply omits the lost shards. SIGINT kills and reaps every
    worker, then re-raises [Sys.Break]. *)

val map :
  ?parent_shards:int list ->
  jobs:int ->
  shards:int ->
  encode:('a -> string) ->
  decode:(string -> ('a, string) result) ->
  (int -> 'a) ->
  'a list
(** @param parent_shards shards to run in this process after forking the
      workers — used when a shard's side effects (e.g. a populated stack
      to harvest entries from) are needed in the parent. *)
