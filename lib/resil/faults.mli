(** Seeded fault injection at cancellation checkpoints.

    When a plan is armed, every {!Deadline.check} consults this module
    before doing its normal work. The plan decides — as a pure function of
    the plan's seed and the global checkpoint ordinal — whether to do
    nothing, inject artificial latency, raise a synthetic exception, or
    cancel the run. That makes a chaos sweep replayable: the same seed
    injects the same fault at the same checkpoint every time (at a fixed
    [--jobs] count; checkpoint ordinals are claimed from one global
    counter, so cross-domain interleavings can reorder them).

    Nothing here is armed in normal operation: the fast path of
    {!Deadline.check} reads one atomic flag and moves on. *)

type action =
  | Cancel  (** behave exactly like a deadline expiry at this checkpoint *)
  | Raise  (** raise {!Injected} — a synthetic solver crash *)
  | Delay of float  (** sleep this many seconds, then continue *)

(** Raised by a [Raise] injection. Deliberately not an exception any solver
    knows: it must travel through every layer untranslated, proving that an
    arbitrary crash in a hot loop leaves recorder phases balanced and pools
    alive. *)
exception Injected of string

type plan =
  | At of { ordinal : int; action : action }
      (** inject exactly once, at the [ordinal]-th checkpoint executed
          since {!arm} (0-based) — the deterministic "interrupt the solver
          at every point, one point per run" sweep *)
  | Rate of {
      seed : int;
      cancel_ppm : int;  (** per-million probability of [Cancel] *)
      raise_ppm : int;
      delay_ppm : int;
      delay_s : float;  (** latency injected by a delay hit *)
    }  (** independent seeded decision at every checkpoint *)

val arm : plan -> unit
(** Install [plan] and reset the checkpoint ordinal to 0. *)

val disarm : unit -> unit
val armed : unit -> bool

val decide : string -> [ `Nothing | `Cancel ]
(** Called by {!Deadline.check} with the site name when armed. Performs
    [Delay] injections internally, raises {!Injected} for [Raise], and
    returns [`Cancel] when the checkpoint should behave as cancelled. *)

val ordinal : unit -> int
(** Checkpoints executed since the last {!arm} — running a workload once
    with a no-op plan measures how many injection points it has. *)
