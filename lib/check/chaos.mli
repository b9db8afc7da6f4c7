(** Chaos sweep: the degradation ladder under deadlines and injected
    faults.

    Each index draws one seeded instance (the same stream the differential
    fuzzer uses) and runs the {!Ccs_anytime.Driver} ladder in all three
    regimes, optionally under a per-run deadline and a seeded
    {!Ccs_resil.Faults} rate plan. Whatever the deadline or the faults do
    to the solvers, every run must end in a [Complete] result or a clean
    [Degraded] value whose incumbent passes the regime validator and whose
    certified lower bound does not exceed the incumbent's makespan — and
    must leave the recorder's phases balanced ({!Ccs_obs.Recorder.open_depth},
    tracked while the recorder is on). Anything else is a failure, printed
    as a replayable (seed, index, regime) coordinate.

    Runs are sequential by design: fault ordinals are claimed from one
    global counter, so a fixed seed replays the same fault at the same
    checkpoint only when nothing else interleaves. *)

type config = {
  seed : int;
  count : int;  (** instances; each runs the ladder in all three regimes *)
  param : Ccs.Ptas.Common.param;
  max_n : int;
  deadline_ms : int option;  (** per-run budget; [None] = no deadline *)
  faults : bool;  (** arm a seeded [Rate] plan around every run *)
  cancel_ppm : int;
  raise_ppm : int;
  delay_ppm : int;
  node_limit : int;  (** exact-rung budget, kept small for sweep speed *)
  family : Ccs.Generator.family option;
      (** pin every instance to one workload family (e.g. [Bnb_stress] to
          hammer the conflict-driven search under faults); [None] draws it
          per index like the differential fuzzer *)
  portfolio : bool;  (** race the exact-rung portfolio instead of the lone B&B *)
}

(** seed 1, count 100, delta 1/2, max_n 20, no deadline, faults off,
    1000/500/500 ppm, 50_000 nodes, no pinned family, no portfolio. *)
val default_config : config

type failure = { index : int; regime : string; reason : string }

type report = {
  runs : int;  (** driver invocations (3 per index) *)
  complete : int;
  degraded : int;
  phases : (string * int) list;  (** degraded runs per ladder phase reached *)
  max_overshoot_ms : float;  (** worst observed deadline overshoot *)
  failures : failure list;
}

val run : config -> report
val render_failure : config -> failure -> string
