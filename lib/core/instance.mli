(** Class Constrained Scheduling instances.

    An instance is [n] jobs, each with an integral processing time
    [p_j >= 1] and a class [c_j] in [0 .. classes-1]; [machines] identical
    machines; and a per-machine budget of [slots] class slots (a machine may
    run jobs from at most [slots] distinct classes). This is the input
    [I = [p_1..p_n, c_1..c_n, m, c]] of the paper, 0-indexed.

    Processing times and classes live in two off-heap [Bigarray]s (16
    bytes per job, never scanned by the GC), so a million-job instance
    costs two allocations, not a million boxed records. *)

type arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

type job = { p : int; cls : int }

(** [make ~machines ~slots jobs] builds and validates an instance from
    [(p, class)] pairs. Classes are renumbered densely (empty classes are
    discarded, matching the paper's assumption C <= n): the distinct
    original ids, sorted ascending, map to 0, 1, ... Slots are clamped to
    [min slots C] — a machine can never use more distinct classes than
    exist (the paper's observation that c <= C, c <= n is w.l.o.g.).
    Raises [Invalid_argument "Instance.make: ..."] on empty jobs,
    non-positive processing times or machine/slot counts, negative classes,
    and a total processing time above [max_int] (every load the solvers sum
    is at most the total, so it must not wrap). *)
val make : machines:int -> slots:int -> (int * int) list -> t

(** {!make} from parallel arrays.

    Renumbering is O(n) when the largest class id is below 2n: an array
    indexed by id marks the ids present and numbers them in ascending
    order (a temporary of at most 2n words). Larger ids — sparse ids such
    as hashes are a supported input — switch to a [Hashtbl] of the
    distinct ids and a sort, O(n + C log C). *)
val of_arrays : machines:int -> slots:int -> p:int array -> cls:int array -> t

(** Like {!of_arrays} but takes ownership of the Bigarrays — the class
    array is renumbered in place, no copy. This is the entry point of both
    loaders (text and [ccsb1]). Its validation pass also finds the largest
    class id, which renumbering needs. *)
val of_bigarrays : machines:int -> slots:int -> p:arr -> cls:arr -> t

(** The identity. Kept only because [bench/e2e] still calls it; it goes
    when that harness next changes. *)
val of_flat : t -> t

val n : t -> int
val m : t -> int
val c : t -> int
val num_classes : t -> int

(** Processing time and class of job [i]; [Invalid_argument] unless
    [0 <= i < n t]. *)
val job_p : t -> int -> int

val job_cls : t -> int -> int

(** Both fields of job [i], boxed. For callers outside the library; the
    solvers read {!job_p} and {!job_cls}. *)
val job : t -> int -> job

(** Sum of all processing times. *)
val total_load : t -> int

val pmax : t -> int

(** [class_load t] is the array of accumulated loads [P_u]. *)
val class_load : t -> int array

(** [(offsets, ids)]: the job indices of class [u] in increasing order are
    [ids.(offsets.(u)) .. ids.(offsets.(u+1) - 1)]. One counting pass,
    O(n) ints, no per-class list cells. *)
val class_jobs_csr : t -> int array * int array

(** True iff any schedule exists at all: C <= c * m. *)
val schedulable : t -> bool

(** Off-heap bytes the two Bigarrays address: 16 per job. A text load's
    arrays are views of a reservation sized from the file's length (see
    {!Io}); its tail past the last job is never written, so it is not
    counted here, and its pages are never made resident by the loader. *)
val mem_bytes : t -> int

val pp : Format.formatter -> t -> unit
