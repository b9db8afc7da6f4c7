(** Schedules for the three CCS placement regimes, with independent
    validators. Every algorithm in this repository runs its output through
    these validators in the test-suite, so they are written directly from the
    problem definitions in Section 1 of the paper and share no code with the
    solvers.

    Machine counts can be astronomically larger than [n] in the splittable
    case (Theorems 4 and 11), so splittable schedules use a compressed
    class-level representation: a set of [blocks] — runs of consecutive
    machines all carrying the same per-machine load of one class — plus
    explicit per-machine class-load lists. Splittable placement is fully
    determined by the class->machine load matrix (pieces can be cut
    arbitrarily), so job-level output is recovered by the canonical
    {!to_job_pieces} decoding, which cuts each class's jobs in index order. *)

(** {1 Splittable} *)

type block = {
  cls : int;
  m_start : int;  (** first machine of the run *)
  m_count : int;  (** number of consecutive machines *)
  per_machine : Rat.t;  (** load of [cls] placed on each machine of the run *)
}

type splittable = {
  blocks : block list;
  explicit_machines : (int * (int * Rat.t) list) list;
      (** (machine, [(class, load); ...]); machines absent everywhere are
          empty. A machine may appear both in a block and here (the
          round-robin wrap of Theorem 4 stacks a remainder item on top of a
          full machine); its contents are the union. *)
}

(** Job-level piece: fraction of job [job] of the given size. *)
type piece = { job : int; size : Rat.t }

val splittable_makespan : splittable -> Rat.t

(** [validate_splittable inst s] checks: machine indices within [0, m);
    block ranges pairwise disjoint; every class's loads sum to exactly
    [P_u]; every load positive; every machine carries at most [c] distinct
    classes (blocks contribute their class to every machine of the run).
    Returns the makespan, or [Error] with a human-readable reason; of
    several faulty blocks, the first in list order is reported.

    O((B + E) log (B + E) + C) for [B] blocks and [E] explicit entries:
    overlap is tested between neighbours in [m_start] order. Nothing is
    allocated per machine, so [m] may be astronomically large. *)
val validate_splittable : Instance.t -> splittable -> (Rat.t, string) result

(** Canonical job-level decoding: per class, jobs are concatenated in index
    order and cut to fill the machines in increasing machine order (blocks
    and explicit loads together). Materializes one entry per machine that
    carries work, so it requires the number of such machines to be
    manageable; raises [Invalid_argument] if more than [limit] (default
    [1_000_000]) machines carry load. *)
val to_job_pieces : ?limit:int -> Instance.t -> splittable -> (int * piece list) list

(** {1 Preemptive} *)

type ppiece = { pjob : int; start : Rat.t; len : Rat.t }

(** One piece list per machine (preemptive schedules are always materialized
    — w.l.o.g. m <= n in this regime, Theorem 5). *)
type preemptive = ppiece list array

val preemptive_makespan : preemptive -> Rat.t

(** Checks: every job fully scheduled; piece lengths positive; no two pieces
    overlap in time on the same machine; no two pieces of the same job
    overlap in time across machines (the defining constraint of the
    regime); at most [c] classes per machine. The first faulty machine is
    reported, then the first faulty job.

    O(P + n + C) for [P] pieces, plus a sort of the pieces of each machine
    not already listed in start order and of each job with two or more
    pieces. Nothing is allocated per machine beyond the schedule itself. *)
val validate_preemptive : Instance.t -> preemptive -> (Rat.t, string) result

(** {1 Non-preemptive} *)

(** [assignment.(j)] is the machine of job [j]. *)
type nonpreemptive = int array

(** [iter_machines a f] calls [f mi jobs lo hi] once for every machine [mi]
    that carries a job, in increasing machine order; its jobs are
    [jobs.(lo) .. jobs.(hi - 1)], in increasing order. One grouping pass: a
    counting sort when every machine index lies in [0, n), a sort of the
    job ids otherwise, so a huge [m] never costs O(m). *)
val iter_machines : nonpreemptive -> (int -> int array -> int -> int -> unit) -> unit

val nonpreemptive_makespan : Instance.t -> nonpreemptive -> int

(** Checks the length, every machine index within [0, m) (the lowest bad job
    is reported) and at most [c] classes per machine (the lowest overfull
    machine is reported). Returns the makespan.

    O(n + C) when [m <= n], O(n log n + C) otherwise; never O(m). *)
val validate_nonpreemptive : Instance.t -> nonpreemptive -> (int, string) result

(** {1 Rendering} *)

(** ASCII Gantt-style rendering (used to regenerate the paper's Figures 1
    and 2). Machines as columns, time flowing upward, [scale] characters per
    [unit] of load. *)
val render_loads : ?width:int -> (string * Rat.t) list array -> string
