(* Shared helpers for the experiment harness. Everything is deterministic
   from fixed seeds so that bench output is reproducible run to run. *)

module Q = Rat
module T = Ccs_util.Tables

let families = Ccs.Generator.[ Uniform; Zipf; Heavy_classes; Large_jobs; Lp_stress ]

(* A schedulable random instance: C is clamped under c*m and n. *)
let instance ~seed ~family ~n ~classes ~machines ~slots ~p_hi =
  let classes = min classes (max 1 (slots * machines)) in
  let classes = min classes n in
  Ccs.Generator.generate ~seed
    { Ccs.Generator.n; classes; machines; slots; p_lo = 1; p_hi; family }

(* Every measured float written to a JSON artifact goes through this: 9
   significant digits is far below clock resolution but drops the trailing
   binary noise that made regenerated BENCH_timing.json diffs unreadable. *)
let round9 = Ccs_obs.Jsonx.round_sig 9

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let f4 x = Printf.sprintf "%.4f" x

let time f =
  let t0 = Ccs_util.Mono.now_s () in
  let r = f () in
  (r, Ccs_util.Mono.now_s () -. t0)

(* Time [f] against a freshly reset metrics registry; returns the result,
   wall-clock seconds and the solver counters [f] accumulated (active
   metrics only, as JSON values keyed by metric name). *)
let time_observed f =
  Ccs_obs.Metrics.reset ();
  let r, dt = time f in
  (r, dt, Ccs_obs.Metrics.snapshot ())

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Ccs_obs.Jsonx.to_string json);
      Out_channel.output_char oc '\n')

let header title =
  Printf.printf "\n=== %s ===\n" title

let footnote text = Printf.printf "%s\n" text

(* max and mean of a float list *)
let summarize xs =
  let arr = Array.of_list xs in
  (Ccs_util.Stats.maximum arr, Ccs_util.Stats.mean arr)
