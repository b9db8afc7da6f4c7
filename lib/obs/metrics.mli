(** Process-wide metrics registry: named counters and histograms.

    Handles are obtained once (typically at module initialization) and
    updated with plain mutable-field writes, so the hot-path cost of an
    increment is a couple of nanoseconds — no hashtable lookup, no
    allocation. [dump_table] renders the whole registry;
    [reset] zeroes every value but keeps the handles valid, which is what
    the bench harness does between runs.

    {2 Naming convention (enforced at registration, documented in DESIGN.md)}

    A metric name is dot-separated segments, each matching
    [[a-z][a-z0-9_]*]. If the name measures a dimensioned quantity it must
    end in a canonical unit suffix — one of [_s], [_ms], [_words],
    [_bytes], [_ratio] — and the common aliases ([_us], [_msec], [_secs],
    [_kb], [_pct], ...) are rejected with [Invalid_argument] so there is
    exactly one spelling per unit. Dimensionless counts carry no suffix. *)

type counter
type histogram

(** Fixed-bucket histogram over log-spaced bounds (1 / 2.5 / 5 per decade,
    [1e-6 .. 5e6]): O(1) memory per metric regardless of sample count,
    unlike {!histogram} which retains raw samples for exact percentiles.
    Use for unbounded-volume observations (per-rung latencies, per-node
    times); use {!histogram} when the sample count is small and exact
    quantiles matter. *)
type log_histogram

(** Find-or-create. Raises [Invalid_argument] if [name] is already
    registered as a different kind, or (on first registration) if [name]
    violates the naming convention above. [?help] is kept for the
    OpenMetrics [# HELP] line; the first registration wins. *)
val counter : ?help:string -> string -> counter

val histogram : ?help:string -> string -> histogram
val log_histogram : ?help:string -> string -> log_histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val observe : histogram -> float -> unit
val histogram_count : histogram -> int

(** Nearest-rank percentile over the recorded samples (defers to
    {!Ccs_util.Stats.percentile}); raises [Invalid_argument] when empty. *)
val histogram_percentile : histogram -> float -> float

val histogram_mean : histogram -> float
val histogram_max : histogram -> float

val observe_log : log_histogram -> float -> unit
val log_histogram_count : log_histogram -> int
val log_histogram_sum : log_histogram -> float

(** [nan] when empty. *)
val log_histogram_max : log_histogram -> float

(** Upper estimate of the [p]-th percentile: the smallest bucket bound
    whose cumulative count reaches [p]% (clamped to the observed max).
    Exact up to bucket granularity; [nan] when empty. *)
val log_histogram_quantile : log_histogram -> float -> float

(** The shared bucket upper bounds, exposed for the exposition tests. *)
val log_bounds : float array

(** Zero all counters and clear all histogram samples.
    Registrations (and outstanding handles) survive. *)
val reset : unit -> unit

(** Plain-text table (via {!Ccs_util.Tables}) of every registered metric,
    sorted by name: columns metric / kind / value / p50 / p95 / max. *)
val dump_table : unit -> string

(** [(name, value)] pairs, one per registered metric: counters as ints,
    histograms as [{"count":..,"mean":..,"p50":..,"p95":..,"max":..}]
    (log histograms carry ["sum"] instead of ["mean"]). With [~all:false]
    (default) only metrics that saw activity — nonzero counters, non-empty
    histograms — are included. *)
val snapshot : ?all:bool -> unit -> (string * Jsonx.t) list

(** OpenMetrics text exposition of the whole registry, terminated by
    [# EOF]. Dotted names become underscore names under a [ccs_]
    namespace ([lp.pivots] → [ccs_lp_pivots]); counters expose a
    [_total] sample; both histogram kinds expose cumulative [le] buckets
    over {!log_bounds} plus [+Inf], [_count] and [_sum]. *)
val to_openmetrics : unit -> string

(** Write {!to_openmetrics} to [path] (the [--metrics-out] backend). *)
val write_openmetrics : string -> unit
