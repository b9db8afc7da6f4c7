(** A portfolio of exact non-preemptive solvers.

    Three members run one after another in fixed priority order — the
    conflict-driven {!Bnb}, an exact configuration-ILP (binary search on
    the integral makespan, each probe decided by {!Ilp}), and an exact
    N-fold program with one brick per machine ({!Nfold.solve_ilp}). A
    member returns only a {e proof} (an optimal assignment) or abstains
    when its budget runs out; the first proof wins and the later members
    do not run. The members are complementary: the B&B wins
    on instances with many distinct job sizes, the ILP members on
    palette-style instances (few types, many interchangeable jobs) whose
    combinatorial search space is deep but whose configuration space is
    tiny. *)

type outcome = {
  makespan : int;  (** optimal iff [proved] *)
  assignment : Ccs.Schedule.nonpreemptive;
  winner : string;
      (** ["bnb"], ["config_ilp"], ["nfold"], or ["none"] when every member
          abstained (the B&B's best incumbent is returned) *)
  proved : bool;
  lower_bound : int;
      (** the B&B's proven bound, or [makespan] when [proved] *)
}

(** [None] only for unschedulable instances. [node_limit] budgets the B&B
    member; [max_configs] and [ilp_nodes] budget the configuration
    enumeration and the exact MILP probes of the other two. Re-raises
    {!Ccs_resil.Deadline.Cancelled} if the ambient deadline expires
    mid-solve. *)
val solve :
  ?node_limit:int ->
  ?max_configs:int ->
  ?ilp_nodes:int ->
  Ccs.Instance.t ->
  outcome option
