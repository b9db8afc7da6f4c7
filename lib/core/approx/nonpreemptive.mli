(** The 7/3-approximation for non-preemptive CCS (Theorem 6).

    Framework of Algorithm 1 with three changes. The lower bound is
    [max (pmax, ceil (sum p / m))]. The number of sub-classes for a class u
    at guess T is the sharper [C_u = max (C1_u, C2_u)] where [C1_u =
    ceil (P_u / T)] is the area bound and [C2_u = k_u + ceil (l_u / 2)]
    counts machines forced by large jobs: the [k_u] jobs above T/2 cannot
    share a machine; of the jobs in (T/3, T/2], as many as possible are
    greedily paired on top of them (largest fitting first) and the [l_u]
    leftovers fit at most two per machine. Jobs are then distributed into
    the [C_u] sub-classes by LPT, which overfills each sub-class by at most
    one job of size <= T/3, giving sub-class loads <= 4T/3 and overall
    makespan <= LB + 4T/3 <= 7T/3. The makespan guess is integral, so a
    standard binary search replaces the border search. *)

type stats = {
  t_guess : int;
  probes : int;  (** binary-search feasibility evaluations *)
}

(** [cu ~t jobs] computes [C_u] for one class (exposed for the
    heterogeneous-slots extension and tests): [jobs] are the processing
    times of the class. *)
val cu : t:int -> int list -> int

(** Area-only variant [C1_u] (what ablation A2 counts). *)
val cu_area_only : t:int -> int list -> int

(** Raises [Invalid_argument] if the instance is unschedulable (C > c*m).
    O(n log n) once, then O(n) per probe of the binary search. *)
val solve : Instance.t -> Schedule.nonpreemptive * stats

(** {!solve} with the two ablation switches, both off in {!solve}:
    [~area_only:true] counts sub-classes by {!cu_area_only} instead of
    {!cu} (ablation A2, demonstrating that the careful [C2_u] computation
    matters); [~input_order:true] splits each class by list scheduling in
    job index order instead of LPT order (ablation A3). Either way the
    schedule stays valid, only worse. *)
val solve_ablation :
  area_only:bool -> input_order:bool -> Instance.t -> Schedule.nonpreemptive * stats

(** {!solve}, kept only because [bench/e2e] still calls it; it goes when
    that harness next changes. *)
val solve_flat : Instance.t -> Schedule.nonpreemptive * stats
