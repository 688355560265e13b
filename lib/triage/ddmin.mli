(** Delta-debugging minimization (Zeller & Hildebrandt's ddmin).

    SwitchV's raw reproducers are whatever the campaign happened to be
    doing when the oracle fired: a 50-update Write batch, a workload of
    hundreds of entries. Most of that is noise; the human debugging the
    incident wants the two updates that actually interact. [run] shrinks a
    failing input to a 1-minimal sublist — removing any single remaining
    element makes the failure disappear — by binary-search-style partition
    testing, probing the predicate O(k·log n) times in the common case
    (worst case O(n²), bounded by [max_probes]).

    The predicate is expected to be {e deterministic}: triage replays run
    against freshly provisioned simulated stacks with fixed seeds, so a
    probe's verdict never flips between calls. *)

val run : max_probes:int -> check:('a list -> bool) -> 'a list -> 'a list
(** [run ~max_probes ~check xs] with [check xs = true] ("still fails")
    returns a sublist [ys] of [xs], in original order, with
    [check ys = true].

    If the probe budget [max_probes] runs out, the best failing sublist
    found so far is returned — still failing, possibly not 1-minimal. If [check xs] is [false] (the caller's reproducer is flaky
    or vacuous), [xs] is returned unchanged and no minimization happens.

    Every probe increments the [triage.ddmin_probes] telemetry counter;
    the counter is registered (created at 0) even when no probe runs. *)

val run_stats :
  max_probes:int -> check:('a list -> bool) -> 'a list -> 'a list * int
(** Like {!run}, also returning the number of probes spent. *)
