(** Exact linear programming over rationals.

    A bounded-variable revised simplex with exact {!Rat} arithmetic and
    sparse columns: the basis is held as a product-form-eta factorization,
    pricing is Devex (float scores choose the pivot order; every number
    that enters the solution is exact), and Bland's rule takes over after
    a run of degenerate pivots so the primal phases cannot cycle. The
    dual-simplex repair of a warm start has no such rule: an iteration cap
    ends it, and the solve then restarts cold. There are no tolerances and
    answers are exactly right — which is what the branch-and-bound ILP
    solver and the PTAS feasibility oracles require.
    Built from scratch; the sealed environment has no LP library.

    Finite variable bounds are implicit (a nonbasic variable rests at its
    lower or upper bound) rather than explicit rows, so tightening bounds
    — as branch & bound does — never changes the LP shape and a basis from
    one solve can warm-start the next. *)

type cmp = Le | Ge | Eq

type constr = {
  coeffs : (int * Rat.t) list;  (** sparse row: (variable index, coefficient) *)
  cmp : cmp;
  rhs : Rat.t;
}

type problem = {
  nvars : int;
  objective : Rat.t array;  (** minimized; length [nvars] *)
  constraints : constr list;
  lower : Rat.t option array;  (** [None] = unbounded below *)
  upper : Rat.t option array;  (** [None] = unbounded above *)
}

(** Solver effort for one [solve] call. Iterations count simplex loop
    passes (each prices a column, then pivots, flips a bound, or proves
    optimality/unboundedness); [pivots] counts actual basis changes.
    [bland_switched] is true only if at least one pivot was chosen by
    Bland's anti-cycling rule — not merely because the degenerate-streak
    threshold was crossed. [pricing_switches] counts Devex-to-Bland
    handovers; [basis_refactorizations] counts eta-file rebuilds.
    [warm_started] records that a caller-supplied basis was adopted —
    either feasible as-is (then [phase1_iterations] is 0) or made feasible
    by dual-simplex repair pivots, which are what [phase1_iterations]
    counts on a warm start. *)
type stats = {
  phase1_iterations : int;
  phase2_iterations : int;  (** 0 when phase 1 proves infeasibility *)
  pivots : int;
  bland_switched : bool;
  pricing_switches : int;
  basis_refactorizations : int;
  warm_started : bool;
}

(** Opaque snapshot of an optimal basis, exportable across solves.

    A basis is valid for any problem with the same internal shape: the
    same constraint rows (count and Le/Ge/Eq kinds in order) and the same
    variable layout (which variables have finite lower bounds). Bound
    values and right-hand sides are free to differ — [solve ~warm] checks
    the adopted basis under the new data: primal-feasible bases skip
    phase 1 outright, bases violating only variable bounds (the
    branch-and-bound case, dual feasible by construction) are repaired
    with dual-simplex pivots, and anything else falls back to a cold
    start. Passing a stale or mismatched basis is always safe, never
    wrong. *)
type basis

type result =
  | Optimal of { objective : Rat.t; solution : Rat.t array; stats : stats; basis : basis }
  | Infeasible of stats
  | Unbounded of stats

(** Convenience constructor with all variables in [0, +inf). *)
val problem :
  ?lower:Rat.t option array ->
  ?upper:Rat.t option array ->
  nvars:int ->
  objective:Rat.t array ->
  constr list ->
  problem

val constr : (int * Rat.t) list -> cmp -> Rat.t -> constr

(** [solve ?warm ?bland_after p] minimizes [p]. [warm] supplies a starting
    basis from a previous same-shape solve (see {!basis}). [bland_after]
    is the number of consecutive degenerate pivots tolerated before
    pricing hands over to Bland's rule (default 32; 0 forces Bland from
    the first degenerate pivot, which the cycling tests use). With the
    default [bland_after] it is
    [solve_model (model p) ~lower:p.lower ~upper:p.upper]. *)
val solve : ?warm:basis -> ?bland_after:int -> problem -> result

(** The part of an LP that bound values do not touch: the internal
    variable layout and the constraint matrix as sparse columns, with
    duplicate variable indices merged and rows in their natural signs.
    Immutable; one model serves every solve of the same constraints whose
    bounds have the same layout, such as all the nodes of one
    branch-and-bound tree.

    The layout is which variables have a finite lower bound and, among the
    rest, which have a finite upper bound. Row signs are normalised (rhs
    >= 0) only when a solve takes the cold path; a warm start runs on the
    natural signs, since its pivot choices do not depend on them. *)
type model

(** [model p] builds the model of [p]'s constraints and objective, with
    the layout of [p]'s bounds; the bound values themselves are ignored. *)
val model : problem -> model

(** [solve_model ?warm md ~lower ~upper] solves [md]'s problem under the
    bounds [lower] and [upper], building only the shifted right-hand side,
    the column bounds and fresh simplex state. The result is the one
    {!solve} gives on the same problem. If the bounds' layout differs from
    [md]'s, a fresh model is built for this solve. *)
val solve_model :
  ?warm:basis ->
  model ->
  lower:Rat.t option array ->
  upper:Rat.t option array ->
  result

(** Checks that [solution] satisfies every constraint and bound exactly.
    Used by the test-suite and as a post-solve assertion. *)
val feasible : problem -> Rat.t array -> bool
