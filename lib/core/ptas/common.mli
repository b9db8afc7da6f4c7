(** Shared machinery for the three PTASs of Section 4.

    All three follow the same dual-approximation skeleton (Hochbaum-Shmoys):
    a guess T on the makespan, an oracle that either produces a schedule of
    makespan (1+O(delta))T or correctly reports that no schedule of makespan
    T exists, and a geometric binary search driving the guess down. The
    accuracy parameter is delta = 1/d with integral d, as the paper
    assumes. *)

type param = { d : int  (** 1/delta; d >= 1 *) }

val param : int -> param
val delta : param -> Rat.t

(** The jobs of each class as [(job, p_job)] pairs, in increasing job
    order: the input of the PTASs' per-class grouping. *)
val class_members : Instance.t -> (int * int) list array

(** All multisets (as sorted-descending lists) over the given distinct part
    values, with sum <= [max_sum] and at most [max_count] parts. Includes
    the empty multiset. Raises [Too_many] beyond [limit] (default 200000) —
    the configuration spaces of Section 4 are exponential in 1/delta, and
    exceeding the cap means the requested accuracy is out of practical
    reach. *)
exception Too_many

val multisets :
  ?limit:int -> parts:int list -> max_sum:int -> max_count:int -> unit -> int list list

(** Like {!multisets} but each part value [v] has a limited multiplicity
    [mult v] (used to enumerate the sub-multisets of one class's job-size
    histogram in the non-preemptive PTAS). *)
val bounded_multisets :
  ?limit:int -> parts:(int * int) list -> max_sum:int -> max_count:int -> unit -> int list list

(** Raised when the branch & bound exhausts its node budget: the answer is
    unknown, and silently reporting "infeasible" would break the PTAS
    completeness guarantee, so the failure is loud. *)
exception Budget_exceeded

(** Integer-feasibility wrapper around {!Ilp}: rows over int coefficients
    (a row may repeat a variable; its coefficients are summed), all
    variables integral in [0, upper_j] ([None] = unbounded above).
    Returns a witness assignment or [None] iff provably infeasible; raises
    {!Budget_exceeded} after [max_nodes] B&B nodes. *)
type row = { coeffs : (int * int) list; cmp : Lp.cmp; rhs : int }

val row_eq : (int * int) list -> int -> row
val row_le : (int * int) list -> int -> row
val row_ge : (int * int) list -> int -> row

val solve_int_feasibility :
  ?max_nodes:int ->
  ?warm:Lp.basis ->
  ?basis_out:Lp.basis option ref ->
  nvars:int ->
  upper:int option array ->
  row list ->
  int array option

(** Record the shape of one oracle call's rounded instance into the metrics
    registry (histograms [ptas.large_classes], [ptas.small_size_groups] and
    [ptas.configs]); every PTAS variant calls this once per guess. *)
val observe_rounding : large:int -> small_groups:int -> configs:int -> unit

(** [warm_oracle oracle] wraps a PTAS oracle for {!geometric_search}: it
    counts the calls (the returned ref), and starts every later ILP from
    the root basis of the first call that produced one — normally the
    search's upper-bound probe. A basis of another shape is safe: the LP
    checks it and falls back to a cold start. *)
val warm_oracle :
  (warm:Lp.basis option -> basis_out:Lp.basis option ref -> Rat.t -> 'a option) ->
  (Rat.t -> 'a option) * int ref

(** Live progress of a {!geometric_search}, for recovering a certified
    partial answer when the search is cancelled mid-flight: [accepted] is
    the best (lowest-guess) witness produced so far, [rejected] the highest
    guess the oracle has refuted — by the dual-approximation argument a
    certificate that no schedule of makespan [rejected] exists for the
    rounded relaxation, hence a lower-bound witness for the search. *)
type 'a progress = {
  mutable accepted : ('a * Rat.t) option;
  mutable rejected : Rat.t option;
}

val progress : unit -> 'a progress

(** Outcome of an interruptible PTAS run (see [solve_anytime] in the three
    variant modules): the best accepted witness with its guess, the highest
    refuted guess, and whether the search actually finished (in which case
    [result] is the same answer [solve] returns). *)
type 'a anytime = {
  result : ('a * Rat.t) option;
  refuted : Rat.t option;
  complete : bool;
}

(** [geometric_search ~lb ~ub ~delta ~oracle] finds the smallest grid point
    [T = lb * (1+delta)^i] (clamped to [ub]) accepted by the oracle and
    returns the oracle's witness together with the accepted guess. The
    oracle must be monotone (accepting T implies accepting any larger grid
    point); this is the standard dual-approximation argument. Raises
    [Failure] if even [ub] is rejected. [progress] (when supplied) is kept
    current while the search runs. *)
val geometric_search :
  ?progress:'a progress ->
  lb:Rat.t ->
  ub:Rat.t ->
  delta:Rat.t ->
  oracle:(Rat.t -> 'a option) ->
  unit ->
  'a * Rat.t
