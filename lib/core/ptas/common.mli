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

(** The accuracy a command line's epsilon asks for: delta =
    1/ceil(1/epsilon), so every epsilon >= 1 (infinity included) gives
    delta = 1. [None] for an epsilon that maps to no delta: NaN, <= 0, or
    so small that ceil(1/epsilon) exceeds [max_int]. *)
val param_of_epsilon : float -> param option

(** The jobs of each class as [(job, p_job)] pairs, in increasing job
    order: the input of the PTASs' per-class grouping. *)
val class_members : Instance.t -> (int * int) list array

exception Too_many

(** The enumeration cap, 200000 multisets. *)
val enum_limit : int

(** Raises [Too_many] when a list of [n] parts alone exceeds
    {!enum_limit}. Every single part is itself a multiset of the
    enumeration, so the check changes no answer; it only refuses before
    the parts are allocated. *)
val check_parts : int -> unit

(** [units factors] is the product of positive ints, for the PTASs' sizes
    in base units. Raises [Too_many] where the product would overflow a
    native int: such a delta is far beyond the enumeration cap anyway. *)
val units : int list -> int

(** All multisets (as sorted-descending lists) over the [(v, mult)] parts,
    each value [v] at most [mult] times, with sum <= [max_sum] and at most
    [max_count] parts. Includes the empty multiset. Raises [Too_many] when
    the search visits more than [limit] (default {!enum_limit}) nodes — the
    configuration spaces of Section 4 are exponential in 1/delta, and
    exceeding the cap means the requested accuracy is out of practical
    reach. The non-preemptive PTAS enumerates the sub-multisets of one
    class's job-size histogram with it. *)
val bounded_multisets :
  ?limit:int -> parts:(int * int) list -> max_sum:int -> max_count:int -> unit -> int list list

(** {!bounded_multisets} with multiplicity [max_count] on each distinct
    value of [parts]: the configurations of Section 4. *)
val multisets :
  ?limit:int -> parts:int list -> max_sum:int -> max_count:int -> unit -> int list list

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

val solve_int_feasibility :
  ?max_nodes:int ->
  nvars:int ->
  upper:int option array ->
  row list ->
  int array option

(** Record the shape of one rung's rounded instance into the metrics
    registry (histograms [ptas.large_classes], [ptas.small_size_groups] and
    [ptas.configs]); every PTAS variant calls this once per rung it tries. *)
val observe_rounding : large:int -> small_groups:int -> configs:int -> unit

(** {2 The configuration budget}

    Each oracle call decides a configuration ILP whose machines may load up
    to a budget Tbar. The paper's Tbar (Theorems 10, 14 and 19) is needed
    for completeness only, where a guess is rejected. Every bound on an
    accepted schedule's makespan grows with Tbar, and so do the
    configurations, the module sizes and the room left for small classes.
    So a witness at a smaller budget is a schedule within the paper's
    guarantee, and a guess that a smaller budget accepts is one the
    paper's accepts too. *)

(** [Rung k] is the budget (1 + k*delta)T; [Paper] is the paper's Tbar. *)
type rung = Rung of int | Paper

(** Raised by an attempt whose ILP witness could not be realized as a
    schedule (the preemptive PTAS's layer realization, which Lemma 16
    guarantees only at the paper's budget). *)
exception Unrealizable of string

(** [budget_ladder p ~paper t attempt] tries the budgets smallest first:
    [attempt (Rung k)] for k = 1, 2, 4, ... while 1 + k*delta < [paper]
    (the paper's Tbar/T), then [attempt Paper]. It returns the first
    witness. Only the paper rung may answer [None]: below it, [None],
    {!Budget_exceeded} and {!Unrealizable} fall through to the next rung.
    At the paper rung {!Unrealizable} becomes [Failure], a solver bug.
    [Too_many] and [Ccs_resil.Deadline.Cancelled] propagate from every
    rung. Each rung tried emits a [ptas.rung] recorder event ([t],
    [budget] = Tbar/T as a rational, [paper], [accepted]). *)
val budget_ladder : param -> paper:Rat.t -> Rat.t -> (rung -> 'a option) -> 'a option

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

(** [geometric_search ~lb ~ub ~delta ~oracle] finds the smallest grid point
    [T = lb * (1+delta)^i] (clamped to [ub]) accepted by the oracle and
    returns the oracle's witness together with the accepted guess. The
    oracle must be monotone (accepting T implies accepting any larger grid
    point); this is the standard dual-approximation argument. Raises
    [Failure] if even [ub] is rejected. [progress] (when supplied) is kept
    current while the search runs.

    Probe order: [lb] (grid point 0) first, and an accepted [lb] ends the
    search after one oracle call, before any other grid point is computed.
    Otherwise the search bisects over grid indices [1, imax] (imax the
    index of [ub]) and probes [ub] only when every lower point was
    rejected, as the fallback witness. A rejected [lb] thus costs at most
    ceil(log2 imax) + 2 calls, typically one more than a search that
    starts at [ub]. *)
val geometric_search :
  ?progress:'a progress ->
  lb:Rat.t ->
  ub:Rat.t ->
  delta:Rat.t ->
  oracle:(Rat.t -> 'a option) ->
  unit ->
  'a * Rat.t
