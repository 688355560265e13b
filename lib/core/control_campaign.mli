(** The control-plane validation campaign: p4-fuzzer driving the switch
    under the oracle's judgment (§4). Pushes the P4Info, then streams
    fuzzed Write batches, reading the switch state back after each batch
    and judging statuses + state against the P4Runtime specification.

    The campaign shards by seed range: shard [i] fuzzes a fresh stack with
    seed [config.seed + i] and its contiguous slice of the batch budget
    (the directed sweep runs in shard 0 only). The decomposition is a
    function of [config] alone — never of how many workers execute it —
    so merged results are identical at any [jobs] count, and
    [shards = 1] is exactly the historical sequential campaign. *)

module Stack = Switchv_switch.Stack

type config = {
  batches : int;
  fuzzer_config : Switchv_fuzzer.Fuzzer.config;
  seed : int;
  max_incidents : int;
      (** Stop early once this many incidents have been collected (a real
          nightly run pages a human long before). *)
  shards : int;
      (** Number of independent seed-range shards ([1] = the historical
          single-stack campaign). Changing it changes which batches are
          fuzzed; changing [jobs] never does. *)
  greybox : bool;
      (** Coverage-guided feedback ({!Switchv_fuzzer.Greybox}): probe
          packets after every batch, a corpus of coverage-novel inputs,
          and energy-weighted mutation scheduling. Shard-local state keeps
          the campaign byte-identical at any [jobs]. [false] reproduces
          the blind (pre-feedback) fuzzer exactly. On by default. *)
}

val default_config : config

val run : Stack.t -> config -> Report.incident list * Report.control_stats
(** The single-stack sequential campaign ([config.shards] is ignored and
    treated as 1). *)

val run_shard :
  Stack.t ->
  config ->
  shard:int ->
  Report.incident list * Report.control_stats
(** One shard of the decomposition ([0 <= shard < config.shards]) against
    a fresh stack. Deterministic per [(config, shard)]. *)

val run_sharded :
  ?jobs:int ->
  ?stack0:Stack.t ->
  (unit -> Stack.t) ->
  config ->
  Report.incident list * Report.control_stats
(** Run every shard through {!Campaign.run} (incident list truncated to
    [max_incidents] when more than one shard ran; stats summed). With one
    shard the result is exactly {!run}'s, untruncated. [jobs <= 1] runs
    shards sequentially in-process; [jobs > 1] fans the remaining shards
    out over forked workers. When [stack0] is given, shard 0 runs on it
    {e in this process} (parallel runs included), so the caller can
    harvest the fuzzed switch state afterwards. A lost worker drops its
    shards with a logged warning and a [parallel.workers_failed] bump; the
    merge simply has less input. *)
