(** Constant/width-range propagation (forward, over {!Cfg}).

    Every field is tracked as an unsigned interval [Range (lo, hi)] or
    [Top]. Metadata starts at zero (the interpreter and symbolic engine
    both zero-initialise it), header fields and [std.ingress_port] start
    unknown. Assignments evaluate their right-hand side over the current
    fact; action parameters are unknown on hit edges and bound to the
    default action's constant arguments on miss edges. Branch edges refine
    the interval of fields compared against constants, and an edge whose
    condition is statically decided against it is killed during the
    fixpoint — so constancy and reachability reinforce each other
    (conditional constant propagation).

    The per-branch verdicts ([Some true]/[Some false] when one arm can
    never run) drive the [P4A006] diagnostic and {!Reachability}. *)

type t

val analyze : Cfg.t -> validity:Validity.fact Dataflow.result -> t

val verdict : t -> int -> bool option
(** [verdict t branch_id] is [Some b] when the condition of that branch
    (Symexec numbering) always evaluates to [b] — considering only
    reachable paths — and [None] when both arms can run (or the branch is
    itself unreachable). *)
