(** Reproducible workload generators for experiments.

    The paper evaluates nothing empirically (it is a theory paper), so these
    families are designed to stress the algorithms where their analyses are
    tight: many small classes (round-robin pressure), few heavy classes
    (splitting pressure), Zipf-distributed class sizes (the data-placement
    motivation: few hot databases, many cold ones), and adversarial large-job
    mixes for the non-preemptive 7/3 bound (jobs straddling T/2 and T/3). *)

type family =
  | Uniform  (** uniform p in [p_lo, p_hi], uniform class choice *)
  | Zipf  (** class popularity ~ 1/rank (data-placement / VoD shape) *)
  | Heavy_classes  (** a few classes hold most of the load *)
  | Large_jobs  (** p concentrated in (T/3, T] for the 7/3 analysis *)
  | Lp_stress
      (** interchangeable classes (identical size multisets) and only 2–3
          distinct job sizes: the induced configuration LPs are degenerate
          and near-singular, which is exactly what the simplex's
          anti-cycling and warm-start repair paths have to survive *)
  | Bnb_stress
      (** near-perfect-partition instances: all sizes in a narrow band
          around p_hi/2 with round-robin classes, so the exact search's
          area bound is weak and the tree is deep — the adversarial family
          for the conflict-driven B&B and the solver portfolio *)

(** Every family with its command-line name, in declaration order. The
    CLIs' [--family] converters and docs are built from this table. *)
val families : (string * family) list

(** The family's name in {!families}. *)
val family_name : family -> string

type spec = {
  n : int;
  classes : int;
  machines : int;
  slots : int;
  p_lo : int;
  p_hi : int;
  family : family;
}

val default : spec

(** Deterministic from the seed. Guarantees: exactly [n] jobs, every class
    non-empty is NOT guaranteed (Instance.make renumbers densely). *)
val generate : seed:int -> spec -> Instance.t

(** {!generate}, kept only because [bench/e2e] still calls it; it goes
    when that harness next changes. *)
val generate_flat : seed:int -> spec -> Instance.t

(** The 10-class example of the paper's Figure 1 (sizes chosen to reproduce
    the illustrated layout: four classes of decreasing size above T/2, six
    more below). *)
val figure1_example : unit -> Instance.t
