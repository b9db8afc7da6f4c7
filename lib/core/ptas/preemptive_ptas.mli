(** PTAS for preemptive CCS (Section 4.3, Theorem 19).

    For a guess T, the instance is grouped exactly as in the non-preemptive
    case (Lemma 15) and rounded; time up to Tbar = (1+3delta)(1+delta^2)T is
    divided into layers of height delta^2*T. In a well-structured schedule
    (Lemma 16 — proved there via an integral flow, which {!Flow} implements)
    every piece of a job from a large class fills exactly one machine-layer
    slot, and a machine's class slots partition a subset of its layers into
    "modules": the layer set one class occupies on that machine.

    The paper's modules are 0-1 vectors over layers, so |M| = 2^|L| - 1,
    which is astronomically large even at delta = 1/2 (13 layers). All
    layers are interchangeable in the ILP — every constraint is either
    indexed by a single layer uniformly or aggregates over layers — so this
    implementation canonicalizes modules by their cardinality and
    configurations by the multiset of module cardinalities. A solution of
    the symmetrized ILP is then realized back into actual layer sets:
    module layer sets are chosen greedily to balance each class's per-layer
    slot supply, and each class's (grouped, rounded) jobs are matched to
    layer slots by a Dinic max-flow with per-layer capacity 1 per job —
    precisely the no-two-pieces-in-parallel constraint (Theorem 18). The
    realization is verified; a failure is a loud error, never a wrong
    schedule. Small classes go whole into the time gaps of their round-robin
    machine (Lemma 15 allows this), possibly continuing above Tbar by at
    most delta*T.

    DESIGN.md discusses why the symmetrization preserves the algorithm's
    guarantees.

    The oracle tries smaller budgets first ({!Common.budget_ladder}): Tbar
    = (1+k*delta)T for k = 1, 2, 4, ... below the paper's
    (1+3delta)(1+delta^2)T, with d(d+k)+1 layers and c* = min(c, |L|) at
    rung k, then the paper's. It returns the first rung's witness, and
    only the paper's rung may reject, so the accepted guesses and the
    guarantee below stay the paper's. Lemma 16 guarantees the layer
    realization only at the paper's budget: a smaller rung whose
    realization fails falls through to the next one, while a failure at
    the paper's rung stays a loud error. *)

type stats = {
  t_accepted : Rat.t;
  oracle_calls : int;
  ilp_vars : int;
  layers : int;  (** |L| at the accepted guess *)
}

(** Makespan guarantee at accepted guess T:
    (1+3delta)(1+delta^2)T + delta^2*T + delta*T. *)
val guarantee : Common.param -> Rat.t -> Rat.t

(** As {!Splittable_ptas.solve}. With [m >= n] it returns one job per
    machine without a search, and [progress] stays empty. *)
val solve :
  ?progress:(Schedule.preemptive * int * int) Common.progress ->
  Common.param ->
  Instance.t ->
  Schedule.preemptive * stats

(** Feasibility oracle for one guess (exposed for tests): the schedule, the
    variable count of the configuration ILP that produced it, and |L| at
    the accepted rung. *)
val oracle :
  Common.param ->
  Instance.t ->
  Rat.t ->
  (Schedule.preemptive * int * int) option

(** {2 Internals exposed for tests} *)

(** The paper's budget over the guess, Tbar/T = (1+3delta)(1+delta^2). *)
val paper_budget : Common.param -> Rat.t

(** One rung of {!oracle}: the configuration ILP at that rung's budget
    alone. At {!Common.Paper} it is the paper's oracle. A failed layer
    realization raises {!Common.Unrealizable} at any rung; {!oracle} falls
    through it below the paper's. *)
val oracle_at :
  Common.rung ->
  Common.param ->
  Instance.t ->
  Rat.t ->
  (Schedule.preemptive * int * int) option
