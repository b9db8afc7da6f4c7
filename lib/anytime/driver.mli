(** The graceful-degradation ladder: deadline-aware anytime solving.

    [solve_* ?deadline inst] walks a ladder of solvers from strongest to
    cheapest — exact, PTAS, 2-approximation (7/3 for non-preemptive),
    greedy fallback — under the cooperative cancellation tokens of
    {!Ccs_resil.Deadline}. Each rung inherits the remaining budget (a fresh
    child of the caller's token, so one rung tripping does not poison the
    next) and contributes to a shared incumbent / certified-lower-bound
    pair:

    - the exact solvers certify the optimum itself (and the non-preemptive
      branch & bound carries a valid incumbent from its very first node, so
      even an interrupted exact rung leaves a schedule behind);
    - a cancelled PTAS yields its best accepted witness plus the highest
      oracle-refuted guess, which the dual-approximation argument turns
      into a lower bound (the same [T_acc/(1+delta)] certificate
      {!Ccs_check.Solvers} reports for completed runs);
    - the approximation algorithms certify their accepted guess [T <= OPT]
      (Lemma 2 / Theorem 6).

    The 2-approximation rung runs under a small grace extension past the
    deadline ([grace_ms], default 25ms) and the final greedy rung is
    uninstrumented and allocation-light, so the ladder always terminates
    with a validator-clean schedule and the deadline overshoot stays
    bounded by the grace window plus one checkpoint latency. Overshoot is
    recorded in the [resil.deadline_overshoot_ms] histogram; every degraded
    return bumps [resil.degradations].

    This module lives outside {!Ccs_resil} because the solvers it drives
    themselves depend on [ccs_resil] for their checkpoints — see
    DESIGN.md, "Cancellation contract". *)

type rung = Exact | Ptas | Approx | Fallback

val rung_name : rung -> string

(** A schedule with its validated makespan and the rung that produced it. *)
type 'a solved = { schedule : 'a; makespan : Rat.t; rung : rung }

(** [Complete s]: no rung was interrupted; [s] is the answer the ladder's
    strongest applicable rung produces (the exact optimum when the exact
    rung completed). [Degraded d]: a deadline or an injected fault landed
    mid-ladder; [d.incumbent] is the best schedule recovered (always
    [Some] — the fallback rung cannot fail), [d.lower_bound] the best
    certificate, and [d.ratio_bound = makespan / lower_bound] a sound bound
    on how far the incumbent can be from this regime's optimum. *)
type 'a outcome = 'a solved Ccs_resil.Outcome.t

(** All [solve_*] functions: [deadline] defaults to the ambient token
    (wrapped in a child, so a pre-tripped ambient token degrades instead of
    raising); [start] picks the top rung (default [Exact]); [param] is the
    PTAS accuracy (default [delta = 1/3]); [node_limit] bounds each exact
    rung's branch & bound (default 200_000 nodes) so a deadline-free ladder
    still terminates; [grace_ms] is the post-deadline budget of the
    approximation rung. Raise [Invalid_argument] on unschedulable
    instances ([C > c*m]) like every solver in the repository. *)

val solve_splittable :
  ?deadline:Ccs_resil.Deadline.t ->
  ?start:rung ->
  ?param:Ccs.Ptas.Common.param ->
  ?node_limit:int ->
  ?grace_ms:int ->
  Ccs.Instance.t ->
  Ccs.Schedule.splittable outcome

val solve_preemptive :
  ?deadline:Ccs_resil.Deadline.t ->
  ?start:rung ->
  ?param:Ccs.Ptas.Common.param ->
  ?node_limit:int ->
  ?grace_ms:int ->
  Ccs.Instance.t ->
  Ccs.Schedule.preemptive outcome

(** [portfolio] (default false) replaces the exact rung's lone branch &
    bound with the {!Ccs_exact.Portfolio}, which runs B&B, config-ILP and
    N-fold in turn until one proves the optimum: palette-style instances
    that stall the B&B get proven by an ILP member instead of degrading to
    the PTAS rung. *)
val solve_nonpreemptive :
  ?deadline:Ccs_resil.Deadline.t ->
  ?start:rung ->
  ?param:Ccs.Ptas.Common.param ->
  ?node_limit:int ->
  ?portfolio:bool ->
  ?grace_ms:int ->
  Ccs.Instance.t ->
  Ccs.Schedule.nonpreemptive outcome
