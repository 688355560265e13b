(** The replayable regression corpus: an append-only JSONL archive of
    reproducers.

    Every line is one archived incident: the model it was found on, the
    detector and kind, the fingerprint, the catalogue fault ids that were
    seeded when it was found (provenance metadata), and the full
    {!Repro.t}. The format is hand-rolled JSON like [Report.to_json];
    {!Switchv_telemetry.Jsonp} reads it back.

    Replay is the regression contract (after P4Testgen's deterministic
    test-artifact discipline): [replay] re-runs a record's reproducer
    against a freshly provisioned stack and reports whether the archived
    divergence still occurs. A fixed switch stack replays clean; a
    regressed one does not. *)

module Stack = Switchv_switch.Stack

type record = {
  c_program : string;        (** model name, e.g. ["middleblock"] *)
  c_detector : string;       (** ["p4-fuzzer"] or ["p4-symbolic"] *)
  c_kind : string;           (** incident kind *)
  c_fingerprint : Fingerprint.t;
  c_faults : string list;    (** catalogue fault ids seeded at capture *)
  c_repro : Repro.t;
}

val record_to_json : record -> string
(** One JSONL line (no trailing newline). *)

val record_of_json : string -> (record, string) result

val save : ?append:bool -> string -> record list -> unit
(** Write records to the file, one JSON object per line. [append]
    (default true — the corpus is append-only) adds to an existing file. *)

val load : string -> (record list, string) result
(** Parse every non-empty line; the first malformed line fails the whole
    load (a corrupt corpus should be loud, not silently shorter). *)

(** {1 Replay} *)

type outcome = {
  o_reproduced : bool;   (** the archived divergence happened again *)
  o_incidents : int;     (** distinct replay observations (>= 1 if reproduced) *)
  o_detail : string;     (** first observation, for the replay report *)
}

val replay_repro : Stack.t -> Repro.t -> outcome
(** Re-run one reproducer on a freshly created stack (caller provisions
    faults; the stack must not have had its P4Info pushed yet).

    Control reproducers re-push the P4Info, re-install the prefix, then
    submit the triggering batch — every step judged by a fresh
    {!Switchv_oracle.Oracle}. Data reproducers re-install the entry set
    and inject the archived bytes, comparing the stack's behaviour against
    the reference interpreter over the same entries. *)

val replay : mk_stack:(unit -> Stack.t) -> record -> outcome
(** [replay ~mk_stack record] = [replay_repro (mk_stack ()) record.c_repro]. *)
