(** Monotonic clock.

    All deadline arithmetic and recorder/bench timing in the repo goes through
    this module rather than [Unix.gettimeofday]: the monotonic clock never
    jumps backwards (or forwards) under NTP adjustment, so durations and
    deadlines measured with it are always non-negative and honest.

    Readings are nanoseconds from an arbitrary fixed origin (boot,
    typically) — only differences are meaningful. *)

val now_ns : unit -> int
(** Current monotonic reading in nanoseconds. Allocation-free. *)

val now_s : unit -> float
(** Same reading in seconds (for human-facing durations). *)

val elapsed_s : since:int -> float
(** Seconds elapsed since the [now_ns] reading [since]. *)

val ns_of_ms : int -> int

val sleep_ns : int -> unit
(** Sleep this many nanoseconds (none if [<= 0]), resuming after signals.
    Other domains run, and collect, while the caller sleeps. *)
