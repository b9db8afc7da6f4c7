(** The 2-approximation for splittable CCS (Algorithm 1, Theorem 4).

    Guess the makespan T with the border search of Lemma 2; slice every
    class with [P_u > T] into [ceil (P_u/T)] sub-classes (all but the last
    of size exactly T); round-robin all sub-classes in non-ascending size
    order. The slices of size exactly T land one per machine (there are
    fewer than m of them whenever T >= LB), so they are emitted as
    compressed {!Schedule.block}s and the whole algorithm runs in time
    polynomial in n even when m is astronomically large — the case the
    paper treats explicitly at the end of Theorem 4's proof. *)

type stats = {
  t_guess : Rat.t;  (** the accepted guess T; [t_guess <= opt(I)] by Lemma 2 *)
  probes : int;  (** border-search feasibility probes *)
  full_slices : int;  (** number of size-T sub-classes (compressed machines) *)
}

(** Raises [Invalid_argument] if the instance is unschedulable (C > c*m). *)
val solve : Instance.t -> Schedule.splittable * stats

(** {!solve}, kept only because [bench/e2e] still calls it; it goes when
    that harness next changes. *)
val solve_flat : Instance.t -> Schedule.splittable * stats
