(** Exact mixed integer linear programming by branch & bound over the exact
    rational simplex ({!Lp}).

    This is the workhorse that decides the configuration ILPs of Section 4
    exactly (feasibility mode) and computes exact optima for the baseline
    solvers. There are no numeric tolerances anywhere: a variable is integral
    iff its rational value has denominator 1. *)

type problem = {
  lp : Lp.problem;
  integer : bool array;  (** [integer.(j)] forces variable [j] integral *)
}

type result =
  | Optimal of { objective : Rat.t; solution : Rat.t array }
  | Infeasible
  | Unbounded
  | Node_limit  (** search aborted after [max_nodes] B&B nodes *)

(** [solve ?max_nodes ?feasibility p] minimizes. With [~feasibility:true]
    the search stops at the first integral feasible point (use a zero
    objective for pure feasibility questions, as the PTAS oracles do). The
    root relaxation starts cold; inside the tree each node warm-starts its
    children from its own optimal basis.

    Before a node solves its LP, integer bound propagation over the rows
    whose coefficients and rhs are native ints may show that the node's
    box holds no integer point; the node then counts toward [max_nodes]
    but skips its LP and subtree. The LP never sees the propagated bounds,
    so the result is the one the search gives without them. *)
val solve :
  ?max_nodes:int ->
  ?feasibility:bool ->
  problem ->
  result

(** All-integer convenience wrapper. *)
val all_integer : Lp.problem -> problem
