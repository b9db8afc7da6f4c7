(** Class Constrained Scheduling instances.

    An instance is [n] jobs, each with an integral processing time
    [p_j >= 1] and a class [c_j] in [0 .. classes-1]; [machines] identical
    machines; and a per-machine budget of [slots] class slots (a machine may
    run jobs from at most [slots] distinct classes). This is the input
    [I = [p_1..p_n, c_1..c_n, m, c]] of the paper, 0-indexed. *)

type job = { p : int; cls : int }

type t = private {
  jobs : job array;
  machines : int;  (** m; may be astronomically larger than n *)
  slots : int;  (** c *)
  classes : int;  (** C; every class in [0, C) has at least one job *)
}

(** [make ~machines ~slots jobs] builds and validates an instance. Classes
    are renumbered densely (empty classes are discarded, matching the paper's
    assumption C <= n). Slots are clamped to [min slots C] — a machine can
    never use more distinct classes than exist (the paper's observation that
    c <= C, c <= n is w.l.o.g.). Raises [Invalid_argument] on empty jobs,
    non-positive processing times or machine/slot counts, negative classes,
    and a total processing time above [max_int] (every load the solvers sum
    is at most the total, so it must not wrap). *)
val make : machines:int -> slots:int -> (int * int) list -> t

val n : t -> int
val m : t -> int
val c : t -> int
val num_classes : t -> int

val job : t -> int -> job

(** Sum of all processing times. *)
val total_load : t -> int

val pmax : t -> int

(** [class_load t] is the array of accumulated loads [P_u]. *)
val class_load : t -> int array

(** [class_jobs t].(u) lists job indices of class [u] in increasing order. *)
val class_jobs : t -> int list array

(** True iff any schedule exists at all: C <= c * m. *)
val schedulable : t -> bool

(** Encoding length |I| in bits, as defined in the paper's introduction. *)
val encoding_length : t -> int

val pp : Format.formatter -> t -> unit

(** Compact flat representation for million-job instances: processing times
    and classes live in two off-heap [Bigarray]s (16 bytes per job, never
    scanned by the GC) instead of an array of boxed records. The invariants
    are the same as the record form's — classes dense in [0, classes),
    slots clamped to [min slots classes], positive processing times — so
    {!to_flat}/{!of_flat} are exact O(n) inverses and every solver accepting
    either form produces bit-identical output. *)
module Flat : sig
  type arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = private {
    p : arr;
    cls : arr;
    machines : int;
    slots : int;
    classes : int;
  }

  val n : t -> int
  val m : t -> int
  val c : t -> int
  val num_classes : t -> int
  val job_p : t -> int -> int
  val job_cls : t -> int -> int

  (** Build from parallel arrays, validating and renumbering classes densely
      exactly as {!Instance.make} does (distinct original ids, sorted
      ascending, map to 0, 1, ...). Raises [Invalid_argument] like [make],
      including on a total processing time above [max_int].

      Renumbering is O(n) when the largest class id is below 2n: an array
      indexed by id marks the ids present and numbers them in ascending
      order (a temporary of at most 2n words). Larger ids — sparse ids
      such as hashes are a supported input — switch to a [Hashtbl] of the
      distinct ids and a sort, O(n + C log C). *)
  val of_arrays : machines:int -> slots:int -> p:int array -> cls:int array -> t

  (** Like {!of_arrays} but takes ownership of the Bigarrays — the class
      array is renumbered in place, no copy. This is the entry point of both
      loaders (text and [ccsb1]). *)
  val of_bigarrays : machines:int -> slots:int -> p:arr -> cls:arr -> t

  val total_load : t -> int
  val pmax : t -> int

  (** Accumulated per-class loads [P_u], as in {!Instance.class_load}. *)
  val class_load : t -> int array

  (** [(offsets, ids)]: the job indices of class [u] in increasing order are
      [ids.(offsets.(u)) .. ids.(offsets.(u+1) - 1)]. One counting pass,
      O(n) ints, no per-class list cells. *)
  val class_jobs_csr : t -> int array * int array

  (** True iff any schedule exists at all: C <= c * m. *)
  val schedulable : t -> bool

  (** Off-heap bytes held by the two Bigarrays (16 per job). *)
  val mem_bytes : t -> int
end

(** O(n) conversions between the two forms; exact inverses. *)
val to_flat : t -> Flat.t

val of_flat : Flat.t -> t
