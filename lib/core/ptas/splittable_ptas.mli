(** PTAS for splittable CCS (Section 4.1, Theorems 10 and 11).

    For a guess T, the instance is simplified (Lemma 7): each class becomes
    one splittable job of size P_u; classes with P_u > delta*T are large and
    rounded up to multiples of delta^2*T, the rest are small and rounded to
    multiples of delta^2*T/c. A well-structured schedule (Lemma 8) cuts
    large classes into pieces ("modules") of size l*delta^2*T with
    l in [1/delta, Tbar/(delta^2 T)], at most c* = min(1/delta+4, c) per
    machine; machine types are "configurations" — multisets of module
    sizes. Feasibility of the configuration ILP (Lemma 9) is decided
    exactly; its solution is turned back into a schedule with makespan at
    most Tbar + delta*T = (1+5*delta)*T, small classes placed by round robin
    within (size, slot-count) machine groups.

    The oracle tries smaller budgets first ({!Common.budget_ladder}): Tbar
    = (1+delta)T, then (1+2delta)T, then the paper's (1+4delta)T, with
    modules up to Tbar and c* = min(Tbar/(delta*T), c) at each. It returns
    the first rung's witness, and only the paper's rung may reject. A
    smaller rung's schedule keeps the (1+5*delta)T guarantee, and a guess
    a smaller rung accepts is one the paper's accepts, so the accepted
    guesses stay the paper's. (With m above [explicit_limit] the Theorem
    11 cap below follows the rung's full module, and DESIGN.md notes why
    that implication is not shown there.)

    The implementation solves the ILP in the aggregated form (the paper's
    per-class duplication exists only to expose N-fold structure and "has no
    meaning itself"); small classes of equal rounded size are interchangeable
    and therefore counted rather than enumerated. The duplicated N-fold form
    is available from {!Nfold_forms} for cross-validation.

    When [m] exceeds [explicit_limit] the Theorem 11 machinery kicks in
    automatically: only the two trivial configurations (empty, and one
    full-size module) may be used more than (C choose 2) + C times — an
    extra globally-uniform constraint — and the output uses compressed
    {!Schedule.block}s, keeping the whole run polynomial in n with only a
    logarithmic dependence on m. *)

type stats = {
  t_accepted : Rat.t;  (** accepted guess; makespan <= (1+5 delta) t_accepted *)
  oracle_calls : int;
  compressed : bool;  (** Theorem 11 path taken *)
  ilp_vars : int;  (** variables in the configuration ILP at [t_accepted] *)
}

(** [solve param inst] runs the full PTAS (binary search + oracle). The
    returned schedule is already validated against the original instance.
    Raises [Invalid_argument] on unschedulable instances and
    [Common.Too_many] if the configuration space for this delta explodes.
    [progress] is the search's live record ({!Common.geometric_search}):
    when a deadline cancels the solve, it still holds the best accepted
    witness and the highest refuted guess. *)
val solve :
  ?explicit_limit:int ->
  ?progress:(Schedule.splittable * int) Common.progress ->
  Common.param ->
  Instance.t ->
  Schedule.splittable * stats

(** The feasibility oracle for one guess (exposed for tests): [None] means
    provably no schedule with makespan T exists; otherwise the schedule and
    the variable count of the configuration ILP that produced it. *)
val oracle :
  ?explicit_limit:int ->
  Common.param ->
  Instance.t ->
  Rat.t ->
  (Schedule.splittable * int) option

(** {2 Internals exposed for the N-fold form ({!Nfold_form}) and tests} *)

(** The paper's budget over the guess, Tbar/T = 1 + 4*delta. *)
val paper_budget : Common.param -> Rat.t

(** One rung of {!oracle}: the configuration ILP at that rung's budget
    alone. At {!Common.Paper} it is the paper's oracle. *)
val oracle_at :
  ?explicit_limit:int ->
  Common.rung ->
  Common.param ->
  Instance.t ->
  Rat.t ->
  (Schedule.splittable * int) option

type rounded = {
  unit_q : Rat.t;  (** delta^2*T/c *)
  tbar : int;  (** Tbar in base units *)
  module_sizes : int list;  (** descending, base units *)
  large : (int * int) list;  (** (class, rounded size in base units) *)
  smalls_by_size : (int * int list) list;  (** (rounded size, class ids) *)
}

(** The rounded instance at a rung's budget. Raises [Common.Too_many]
    when the module sizes alone exceed the enumeration cap or the budget
    overflows a native int. *)
val round_instance : rung:Common.rung -> Common.param -> Instance.t -> Rat.t -> rounded

val configurations : Common.param -> Instance.t -> rounded -> int list list
