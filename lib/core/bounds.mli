(** Lower and upper bounds on the optimal makespan, as used throughout
    Section 3 of the paper. All bounds but {!lb_integral} are exact
    rationals. *)

(** Splittable lower bound: the average load [sum p_j / m] (the paper's LB
    for Algorithm 1). *)
val lb_splittable : Instance.t -> Rat.t

(** Preemptive / non-preemptive lower bound:
    [max (pmax, sum p_j / m)] (Theorems 5 and 6). *)
val lb_preemptive : Instance.t -> Rat.t

(** Integral lower bound [max (pmax, ceil (sum p_j / m))] for the
    non-preemptive variant: its optimum is an integer. Never wraps, even at
    [sum p_j = max_int]. *)
val lb_integral : Instance.t -> int

(** Upper bound [c * max_u P_u] (Algorithm 1). Computed as a rational to
    survive huge values. *)
val ub_splittable : Instance.t -> Rat.t

(** Upper bound [n * pmax] for the integral cases. Returned as an exact
    rational: the product overflows native ints when [pmax] is near
    [max_int], which seeded fuzz instances do exercise. *)
val ub_integral : Instance.t -> Rat.t
