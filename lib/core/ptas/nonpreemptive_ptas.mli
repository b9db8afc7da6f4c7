(** PTAS for non-preemptive CCS (Section 4.2, Theorem 14).

    For a guess T the jobs of every class are grouped (Lemma 12): jobs
    smaller than delta*T are repeatedly bundled into packets of total size
    in [delta*T, 2*delta*T); a leftover bundle of size < delta*T is merged
    into some other job of the class, or forms a single-job small class.
    Grouped sizes are rounded up to multiples of delta^2*T (small classes to
    multiples of delta^2*T/c). Modules are multisets of rounded job sizes
    summing to at most Tbar = (1+3delta)(1+2delta)T — the jobs of one class
    on one machine — and configurations are multisets of module sizes
    (Figure 4). Feasibility of the configuration ILP (Lemma 13) is decided
    exactly; a solution dissolves into machines -> module slots -> concrete
    jobs, small classes are placed by round robin within (size, slots)
    groups, and grouped jobs are expanded back to the original jobs (all on
    the same machine — nothing was ever actually split).

    The oracle tries smaller budgets first ({!Common.budget_ladder}): Tbar
    = (1+k*delta)T for k = 1, 2, 4, ... below the paper's
    (1+3delta)(1+2delta)T, then the paper's, with c* = min(Tbar/(delta*T),
    c) at each. It returns the first rung's witness, and only the paper's
    rung may reject, so the accepted guesses and the guarantee below stay
    the paper's.

    Implementation notes: modules are enumerated per class as sub-multisets
    of that class's rounded size histogram (the only modules a class can
    fill), which keeps the variable count far below the paper's generic
    bound without losing any solution; small classes of equal rounded size
    are counted, not enumerated. When m >= n the instance is answered
    directly with the optimal one-job-per-machine schedule. *)

type stats = {
  t_accepted : Rat.t;
  oracle_calls : int;
  ilp_vars : int;
}

(** Makespan guarantee for a schedule accepted at guess T:
    (1+3delta)(1+2delta)T + delta*T. *)
val guarantee : Common.param -> Rat.t -> Rat.t

(** As {!Splittable_ptas.solve}. With [m >= n] it returns one job per
    machine without a search, and [progress] stays empty. *)
val solve :
  ?progress:(Schedule.nonpreemptive * int) Common.progress ->
  Common.param ->
  Instance.t ->
  Schedule.nonpreemptive * stats

(** Feasibility oracle for one guess (exposed for tests): the schedule and
    the variable count of the configuration ILP that produced it. *)
val oracle :
  Common.param ->
  Instance.t ->
  Rat.t ->
  (Schedule.nonpreemptive * int) option

(** {2 Internals exposed for the N-fold form ({!Nfold_form}) and tests} *)

(** The paper's budget over the guess, Tbar/T = (1+3delta)(1+2delta). *)
val paper_budget : Common.param -> Rat.t

(** One rung of {!oracle}: the configuration ILP at that rung's budget
    alone. At {!Common.Paper} it is the paper's oracle. *)
val oracle_at :
  Common.rung ->
  Common.param ->
  Instance.t ->
  Rat.t ->
  (Schedule.nonpreemptive * int) option

(** Distilled view of the grouped + rounded instance at a guess, at the
    paper's budget: everything the duplicated N-fold needs, in base units
    of delta^2*T/c. *)
type abstract = {
  a_tbar : int;
  a_cstar : int;
  a_large_hists : (int * int) list list;  (** per large class: (size, count) *)
  a_smalls : (int * int) list;  (** (rounded size, number of such classes) *)
}

val abstract : Common.param -> Instance.t -> Rat.t -> abstract
