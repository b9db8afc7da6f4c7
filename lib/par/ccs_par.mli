(** Multicore execution layer: a fixed-size domain pool with deterministic
    parallel maps.

    Parallelism lives only across independent instances — a [ccs_solve]
    batch, a [ccs_fuzz] sweep, repeated bench instances. The paper's
    searches inside one solve run sequentially.

    Every combinator is sequential-equivalent: results are delivered in
    input-index order as soon as every earlier index is done, and the
    exception that escapes a batch is the one the sequential loop would
    have hit first, after everything that loop delivers before it. A seeded
    run therefore produces bit-identical output at any pool size, provided
    the mapped functions are pure (draw randomness only via
    [Ccs_util.Prng.stream] keyed by index, never from shared streams).

    Nesting is safe: the calling domain always works through its own batch,
    so a task that itself fans out makes progress even when every pool
    worker is busy.

    Worker domains beyond [Domain.recommended_domain_count] never claim
    work: oversubscribing cores cannot help a CPU-bound batch, so a pool
    larger than the machine only costs what the idle domains cost. The
    results are unaffected — that is the point of the determinism
    contract. *)

module Pool : sig
  type t

  (** [create ~jobs ()] spawns [jobs - 1] worker domains (capped by
      [Domain.recommended_domain_count] unless [force] is set; see below);
      the caller of each combinator acts as the [jobs]-th worker.
      [jobs = 1] spawns nothing and makes every combinator run strictly
      sequentially. [force] spawns [jobs - 1] domains even beyond the core
      count — oversubscription buys nothing for throughput, but
      cancellation tests need genuinely concurrent tasks on single-core
      machines. Raises [Invalid_argument] if [jobs < 1]. *)
  val create : ?force:bool -> jobs:int -> unit -> t

  (** Joins the worker domains. Idempotent; combinators must not be
      called on a pool after shutdown. *)
  val shutdown : t -> unit
end

(** {1 Ambient pool}

    The batch entry points ([--jobs N] of the CLIs and the bench harness)
    set a process-wide ambient pool. The default is 1: nothing runs in parallel
    unless explicitly requested. *)

(** [set_jobs n] replaces the ambient pool with one of size [n] (shutting
    down the previous one). *)
val set_jobs : int -> unit

(** {1 Combinators}

    All default to the ambient pool. *)

(** [parallel_emit ~emit f arr] is
    [Array.iteri (fun i x -> emit i (f i x)) arr] with the [f] calls
    evaluated concurrently. [emit i r] runs as soon as the results of
    [0..i] exist, on whichever domain completes that prefix, in index
    order and one call at a time; a result is dropped once delivered, so
    the batch holds only results that wait for an earlier index. If [f] or
    [emit] raises, the results before the lowest such index are delivered
    and, once every task has ended, that exception is re-raised (later
    elements may still have been evaluated, unlike the sequential loop). *)
val parallel_emit :
  ?pool:Pool.t -> emit:(int -> 'b -> unit) -> (int -> 'a -> 'b) -> 'a array -> unit

(** [parallel_map f arr] is [Array.map f arr]; elements are evaluated
    concurrently but the result is ordered by index. If several elements
    raise, the lowest-index exception is re-raised (later elements may
    still have been evaluated, unlike the sequential loop). *)
val parallel_map : ?pool:Pool.t -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_mapi] passes the element index, e.g. to seed a
    [Prng.stream]. *)
val parallel_mapi : ?pool:Pool.t -> (int -> 'a -> 'b) -> 'a array -> 'b array
