(** Cooperative cancellation and deadline tokens.

    A token carries an optional monotonic-clock deadline; solvers call
    {!check} from their hot loops (B&B node expansion, simplex pivots,
    N-fold augmentation steps, PTAS guess probes, pool task boundaries) and
    the call raises {!Cancelled} once the ambient token is expired or hit
    by an armed fault plan ({!Faults}). Cancellation is an ordinary
    exception, so it unwinds through [Fun.protect]-style cleanup: recorder
    phases stay balanced, pools stay drainable, and warm-start bases are
    either intact or unpublished — never corrupted (DESIGN.md,
    "Cancellation contract").

    The fast path is allocation-free: one atomic counter bump and a couple
    of atomic loads. Sites registered [~hot] additionally amortize the
    clock read (one [clock_gettime] per 64 checks per domain); cold sites
    read the clock every time, so checkpoints that fire rarely still notice
    an expiry promptly. *)

type t

type reason =
  | Expired  (** the token's deadline passed *)
  | Fault  (** an armed {!Faults} plan injected a cancel *)

exception Cancelled of { site : string; reason : reason }

val never : t
(** The default ambient token: no deadline. *)

val of_budget_ms : int -> t
(** A token expiring [ms] milliseconds from now. *)

val of_limit_ns : int -> t
(** A token expiring at the given {!Ccs_util.Mono.now_ns} reading — how a
    degradation-ladder rung inherits the remaining budget exactly. *)

val limit_ns : t -> int option
(** The token's expiry instant, [None] for {!never}. *)

val expired : t -> bool

val cancelled : t -> bool
(** True once the token is expired or has already tripped a checkpoint —
    i.e. a fresh {!check} under it would raise. *)

val child : t -> t
(** A fresh token with the same deadline: a checkpoint tripped under the
    child does not mark the parent (the anytime driver gives each rung
    one). *)

(** {1 Ambient token}

    The current token is ambient, per domain: solvers never thread it
    explicitly. [Ccs_par] re-installs the submitting context's token
    around each pool task. *)

val ambient : unit -> t

val with_token : t -> (unit -> 'a) -> 'a
(** Install a token for the dynamic extent of the call (restored on any
    exit, including exceptions). *)

(** {1 Checkpoints} *)

type site

val site : ?hot:bool -> string -> site
(** Register a checkpoint site. [hot] sites amortize the clock read and
    should be used for loops that iterate faster than ~10kHz. *)

val check : site -> unit
(** The checkpoint: raises {!Cancelled} if the ambient token is expired,
    or an armed fault plan says so. *)

val checks_total : unit -> int
(** Exact number of checkpoints executed since start (or {!reset_stats}).
    Deterministic for a deterministic workload — the bench regression gate
    compares it across commits. *)

val flush_stats : unit -> unit
(** Push the exact check count into the [resil.cancel_checks] metrics
    counter (the registry is only updated here, so callers that snapshot
    metrics flush first). *)

val reset_stats : unit -> unit
