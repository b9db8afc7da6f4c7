(** Solver flight recorder: a process-wide, ring-buffered event stream.

    Disabled by default; every emitter below is a single bool check when
    off, so instrumented solvers cost nothing unless a run asked for
    [--record] or [--trace-out]. When on, events carry
    seconds-since-{!start} timestamps from the monotonic clock and are
    kept in a fixed-size ring — a long solve can evict old events (see
    {!dropped}) but never grows memory.

    The recorder only observes (metric counters, [Gc.quick_stat]); it
    cannot perturb solver decisions, so output is bit-identical with and
    without recording.

    Event kinds emitted by the instrumented solvers:
    - [incumbent] / [lower_bound] — convergence updates with [src]
      ("driver", "ilp", "bnb"), a per-source [solve] ordinal, and the
      bound [value]; the gap-over-time trace.
    - decisions, through {!emit}: [ptas.guess] ([t], [accepted]) per
      guess of a PTAS search; [ptas.rung] ([t], [budget], [paper],
      [accepted]) per configuration budget a PTAS oracle tried at that
      guess, [budget] being Tbar/T as a rational; [border_search.done]
      ([t_star], [probes]) per 2-approximation border search; [bnb.done]
      ([nodes], [nogoods], [nogood_resets], [restarts], [prunes_area],
      [prunes_count], [complete]) per exact B&B solve; [fault] ([site], [ordinal],
      [what]) per injected fault.
      Emitters guard them with {!active}, so a run without recording
      builds no fields.
    - [phase_start] / [phase_end] — paired by [id], tagged with the
      domain. [phase_start] carries the caller's fields (sizes, the
      guess, which operation); [phase_end] adds [dur_s], [Gc.quick_stat] deltas
      ([gc_minor_words], [gc_promoted_words], [gc_major_words],
      [gc_minor_collections], [gc_major_collections]) and watched-counter
      deltas (pivots, nodes, augment steps, ...), zeros omitted.
    - [sample] — periodic absolute counter snapshot from deadline
      checkpoints the solvers already visit ([site], [checks], counters).

    Serialized as JSONL: one meta header line
    [{"ev":"meta","format":"ccs-recorder",...}], then one event object per
    line with floats rounded to 9 significant digits. *)

type event = { t_s : float; kind : string; fields : (string * Jsonx.t) list }

(** Enable recording into a fresh ring ([capacity] events, default 65536)
    and reset the clock epoch. Raises [Invalid_argument] on a
    non-positive capacity. *)
val start : ?capacity:int -> unit -> unit

(** Disable and discard the buffer (also turns the progress ticker off). *)
val stop : unit -> unit

val active : unit -> bool

(** Toggle the stderr progress ticker: at most one line per 100 ms
    showing current phase, relative gap, and elapsed (plus the deadline
    when {!set_deadline_ns} was called). *)
val set_progress : bool -> unit

(** Absolute monotonic deadline ([Ccs_util.Mono.now_ns] scale) shown by
    the ticker as [elapsed/budget]. *)
val set_deadline_ns : int -> unit

(** Append an arbitrary event (no-op when inactive). *)
val emit : string -> (string * Jsonx.t) list -> unit

(** Convergence updates. [src] identifies the emitter; [solve] is that
    source's solve ordinal, so traces from repeated sub-solves (many ILP
    calls per PTAS guess) can be grouped before asserting monotonicity. *)
val incumbent : src:string -> solve:int -> float -> unit

val lower_bound : src:string -> solve:int -> float -> unit

(** [phase ~fields name f] runs [f] between a [phase_start] (carrying
    [fields]) and a [phase_end] carrying GC and watched-counter deltas.
    Nesting follows the dynamic call structure, per domain. Exceptions
    propagate (the [phase_end] is still emitted, flagged [raised]). When
    the recorder is off this is exactly [f ()]. *)
val phase : ?fields:(string * Jsonx.t) list -> string -> (unit -> 'a) -> 'a

(** Phases entered while recording that are still open on the calling
    domain. Zero outside every {!phase} — including right after a
    [Ccs_resil.Deadline.Cancelled] unwound a solver, which the resilience
    tests and the chaos sweep assert. *)
val open_depth : unit -> int

(** Checkpoint hook (called by [Ccs_resil.Deadline.check]): amortized —
    one [sample] event per 1024 calls per domain. *)
val sample : site:string -> checks:int -> unit

(** Buffered events, oldest first. *)
val events : unit -> event list

(** Events evicted by ring wrap-around since {!start}. *)
val dropped : unit -> int

val to_jsonl : unit -> string
val write_jsonl : string -> unit

(** Chrome trace-event array ([chrome://tracing], Perfetto, [jq]): one
    complete (["ph":"X"]) event per buffered [phase_start]/[phase_end]
    pair, in start order, with integral-microsecond [ts]/[dur], the
    domain as [tid] and the start's fields under ["args"]. Bounded by the
    ring: a pair whose start was evicted is skipped. *)
val to_chrome_json : unit -> Jsonx.t

val write_chrome_trace : string -> unit
