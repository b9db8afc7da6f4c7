(** The advanced binary search of Lemma 2.

    The splittable/preemptive algorithms must find the smallest guess T for
    which splitting every class with [P_u > T] into [ceil (P_u / T)]
    sub-classes leaves at most [c * m] classes. The optimal T can be
    fractional, so a plain binary search cannot terminate exactly; but the
    class count only changes at the "borders" [P_u / k], so it suffices to
    binary-search along each class's borders (k <= m of them) and take the
    smallest feasible one — [O(C log m)] feasibility probes overall. *)

type result = {
  t_star : Rat.t;  (** smallest feasible guess, >= [lb] *)
  probes : int;  (** feasibility evaluations performed (Lemma 2 bound) *)
}

(** [solve_phase f] runs one solve of a 2-approximation (all three share
    this module's framework) as the recorder phase [approx], counted in
    [approx.solves]. *)
val solve_phase : (unit -> 'a) -> 'a

(** [c * m], saturating at [max_int] for astronomically many machines. *)
val slot_cap : machines:int -> slots:int -> int

(** Number of classes after splitting at guess [t]:
    [sum_{P_u > t} ceil (P_u / t) + #{u : P_u <= t}]. Saturates at [cap+1]
    to avoid overflow with astronomically many machines. *)
val count_classes : loads:int array -> cap:int -> Rat.t -> int

(** [search ~loads ~machines ~slots ~lb] returns the smallest
    [t >= lb] that is either [lb] itself or a border [P_u / k] and
    satisfies [count_classes t <= slots * machines]. Raises
    [Invalid_argument] if even the trivial guess [max_u P_u] is infeasible
    (i.e. C > c * m: no schedule exists at all). *)
val search : loads:int array -> machines:int -> slots:int -> lb:Rat.t -> result

(** Reference implementation for the A1 ablation and tests: naive scan over
    every border of every class (O(C^2 m) in the worst case, exact). Only
    usable when [machines] is small. *)
val search_naive : loads:int array -> machines:int -> slots:int -> lb:Rat.t -> result
