(** Exact branch & bound for non-preemptive CCS.

    Ground truth for measured approximation ratios (experiments E3, E7).
    A conflict-driven depth-first search: jobs are assigned in
    activity-ordered sequence with load/area/class-slot pruning, learned
    no-goods over canonical (machine load + class-set, remaining job
    multiset) states, failed-placement probing at the root (jobs with a
    single feasible machine are forced there before the search starts; a
    job with none proves the warm-start incumbent optimal), Luby restarts
    that keep the learned store, and full identical-machine symmetry
    breaking (machines with equal load and class set are interchangeable,
    not just empty ones). The store is a bounded set of bit-packed keys
    ({!Nogoods}): the incumbent only falls, so any stored state still
    cuts. A search node allocates nothing. Exponential, intended for n up
    to ~20. *)

(** How far a search got. The search warm-starts from the 7/3
    approximation, so a valid incumbent exists from the first node on. *)
type status =
  | Complete  (** incumbent is optimal *)
  | Node_limit  (** budget exhausted; incumbent is the best found *)
  | Interrupted of exn  (** ambient deadline cancelled the search *)

(** What a search run yields even when it cannot finish: the incumbent, the
    best proven lower bound on the optimum (equal to [makespan] iff
    [status] is [Complete]), and the node count. Mirrors the anytime
    [Degraded] contract: an exhausted budget is a weaker answer, not no
    answer. *)
type result = {
  makespan : int;
  assignment : Ccs.Schedule.nonpreemptive;
  lower_bound : int;
  status : status;
  nodes : int;
}

(** [solve_result inst] never returns [None] for a schedulable instance and
    never raises on cancellation — the incumbent plus proven bound survive
    any interruption. [None] only for unschedulable instances.
    [nogood_limit] caps the learned store: when it holds that many keys it
    is cleared before the next one is added;
    [restart_unit] is the Luby base in nodes, [0] disables restarts. Both
    knobs change only the search trajectory, never the answer — the
    property suite pins the makespan against {!brute_force} under
    adversarial settings for both. *)
val solve_result :
  ?node_limit:int ->
  ?nogood_limit:int ->
  ?restart_unit:int ->
  Ccs.Instance.t ->
  result option

(** [solve ?node_limit inst] returns the optimal makespan and an optimal
    assignment, or [None] if the node limit was exhausted before the search
    completed (the incumbent may then not be optimal) or the instance is
    unschedulable. Re-raises {!Ccs_resil.Deadline.Cancelled} if the ambient
    deadline expires mid-search; use {!solve_result} to recover the
    incumbent instead. *)
val solve : ?node_limit:int -> Ccs.Instance.t -> (int * Ccs.Schedule.nonpreemptive) option

(** Exhaustive reference (every class-feasible assignment, no makespan
    pruning) for cross-checking the pruned search on tiny instances. Loads
    and class counts are maintained incrementally and a deadline checkpoint
    runs at every node, so oracles built on it cannot hang. *)
val brute_force : Ccs.Instance.t -> int option
