(* E5 — running-time scaling of the Section 3 algorithms (Bechamel).

   The paper claims O(n^2 log n) for the splittable/preemptive algorithms
   and O(n^2 log^2 n) for the non-preemptive one. We time each algorithm on
   doubling n and report the estimated ns/run together with the empirical
   growth exponent log2(t(2n)/t(n)) — the shape to observe is an exponent
   comfortably below the worst-case 2+o(1) (the quadratic term comes from
   C ~ n classes; with C fixed the algorithms are near-linear). *)

module U = Bench_util
module T = Ccs_util.Tables
open Bechamel

let sizes = [ 100; 200; 400; 800 ]

let make_instance n =
  U.instance ~seed:(n * 7919) ~family:Ccs.Generator.Uniform ~n ~classes:(n / 5)
    ~machines:(max 2 (n / 10)) ~slots:3 ~p_hi:1000

(* one Bechamel Test.make per (algorithm, n) cell of the table *)
let tests =
  List.concat_map
    (fun n ->
      let inst = make_instance n in
      [ Test.make
          ~name:(Printf.sprintf "splittable/%d" n)
          (Staged.stage (fun () -> ignore (Ccs.Approx.Splittable.solve inst)));
        Test.make
          ~name:(Printf.sprintf "preemptive/%d" n)
          (Staged.stage (fun () -> ignore (Ccs.Approx.Preemptive.solve inst)));
        Test.make
          ~name:(Printf.sprintf "nonpreemptive/%d" n)
          (Staged.stage (fun () -> ignore (Ccs.Approx.Nonpreemptive.solve inst))) ])
    sizes

let rec e5 () =
  U.header "E5 — running-time scaling (Theorems 4, 5, 6)";
  let grouped = Test.make_grouped ~name:"approx" tests in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let value name =
    match Hashtbl.fold (fun k v acc -> if k = "approx/" ^ name then Some v else acc) analyzed None with
    | Some o -> (
        match Analyze.OLS.estimates o with
        | Some (t :: _) -> t
        | _ -> nan)
    | None -> nan
  in
  let table = T.create [ "algorithm"; "n"; "time/run"; "growth exp vs previous n" ] in
  List.iter
    (fun algo ->
      let prev = ref None in
      List.iter
        (fun n ->
          let t = value (Printf.sprintf "%s/%d" algo n) in
          let growth =
            match !prev with
            | Some tp when tp > 0.0 -> U.f2 (log (t /. tp) /. log 2.0)
            | _ -> "-"
          in
          prev := Some t;
          let display =
            if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
            else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else Printf.sprintf "%.0f us" (t /. 1e3)
          in
          T.add_row table [ algo; string_of_int n; display; growth ])
        sizes)
    [ "splittable"; "preemptive"; "nonpreemptive" ];
  T.print table;
  U.footnote
    "claim: growth exponent stays at or below ~2 (the n^2 in the bound comes from\n\
     C log m iterations x O(n) work; here C = n/5 grows with n).";
  write_timing_json ()

(* Single observed runs per (variant, algorithm, n): wall-clock plus the
   solver counters (simplex pivots, B&B nodes, oracle guesses, ...) from the
   metrics registry, dumped as BENCH_timing.json at the repo root. The
   approx algorithms run at the bechamel sizes; the PTASs (which go through
   the configuration ILP) at small n so the file regenerates in seconds. *)
and write_timing_json () =
  let module J = Ccs_obs.Jsonx in
  let row ~variant ~algo ~n inst f =
    let _, wall, counters = U.time_observed f in
    J.Obj
      [ ("variant", J.Str variant);
        ("algo", J.Str algo);
        ("n", J.Int n);
        ("m", J.Int (Ccs.Instance.m inst));
        ("classes", J.Int (Ccs.Instance.num_classes inst));
        ("wall_s", J.Float (U.round9 wall));
        ("counters", J.Obj counters) ]
  in
  let approx_rows =
    List.concat_map
      (fun n ->
        let inst = make_instance n in
        [ row ~variant:"splittable" ~algo:"approx" ~n inst (fun () ->
              ignore (Ccs.Approx.Splittable.solve inst));
          row ~variant:"preemptive" ~algo:"approx" ~n inst (fun () ->
              ignore (Ccs.Approx.Preemptive.solve inst));
          row ~variant:"nonpreemptive" ~algo:"approx" ~n inst (fun () ->
              ignore (Ccs.Approx.Nonpreemptive.solve inst)) ])
      sizes
  in
  let param = Ccs.Ptas.Common.param 1 in
  let ptas_rows =
    List.concat_map
      (fun n ->
        let inst = make_instance n in
        [ row ~variant:"splittable" ~algo:"ptas" ~n inst (fun () ->
              ignore (Ccs.Ptas.Splittable_ptas.solve param inst));
          row ~variant:"nonpreemptive" ~algo:"ptas" ~n inst (fun () ->
              ignore (Ccs.Ptas.Nonpreemptive_ptas.solve param inst)) ])
      [ 20; 40 ]
  in
  (* Resilience sweep: the degradation ladder on E5-style instances under a
     deadline far below the exact rung's runtime. Every run must come back
     Degraded with a validator-clean incumbent and a sound ratio bound; the
     JSON records the observed deadline overshoot (p99 and max), which the
     grace-window design keeps well under 50ms. *)
  let resil =
    let module D = Ccs_anytime.Driver in
    let module O = Ccs_resil.Outcome in
    let module Deadline = Ccs_resil.Deadline in
    let deadline_ms = 3 in
    let seeds = List.init 15 (fun i -> 1 + i) in
    let runs = ref 0 and degraded = ref 0 and invalid = ref 0 in
    let overshoots = ref [] in
    let one validate solve =
      incr runs;
      let tok = Deadline.of_budget_ms deadline_ms in
      let limit = Option.get (Deadline.limit_ns tok) in
      let outcome = solve tok in
      overshoots :=
        (float_of_int (max 0 (Ccs_util.Mono.now_ns () - limit)) /. 1e6) :: !overshoots;
      match outcome with
      | O.Complete _ -> ()
      | O.Degraded d ->
          incr degraded;
          let ok =
            match d.O.incumbent with
            | None -> false
            | Some (s : _ D.solved) -> (
                match validate s.D.schedule with
                | Ok mk ->
                    Rat.equal mk s.D.makespan
                    && Rat.(d.O.lower_bound <= mk)
                    && (match d.O.ratio_bound with
                       | Some r -> Rat.equal r Rat.(mk / d.O.lower_bound)
                       | None -> false)
                | Error _ -> false)
          in
          if not ok then incr invalid
    in
    List.iter
      (fun seed ->
        let inst =
          U.instance ~seed:(seed * 104729) ~family:Ccs.Generator.Uniform ~n:46 ~classes:9
            ~machines:7 ~slots:2 ~p_hi:1000
        in
        one (Ccs.Schedule.validate_splittable inst) (fun tok ->
            D.solve_splittable ~deadline:tok inst);
        one (Ccs.Schedule.validate_preemptive inst) (fun tok ->
            D.solve_preemptive ~deadline:tok inst);
        one
          (fun a -> Result.map Rat.of_int (Ccs.Schedule.validate_nonpreemptive inst a))
          (fun tok -> D.solve_nonpreemptive ~deadline:tok inst))
      seeds;
    let sorted = List.sort compare !overshoots |> Array.of_list in
    let pct p =
      if Array.length sorted = 0 then 0.0
      else sorted.(min (Array.length sorted - 1) (int_of_float (p *. float_of_int (Array.length sorted)))) in
    J.Obj
      [ ("deadline_ms", J.Int deadline_ms);
        ("runs", J.Int !runs);
        ("degraded", J.Int !degraded);
        ("invalid_outcomes", J.Int !invalid);
        ("overshoot_ms_p50", J.Float (U.round9 (pct 0.50)));
        ("overshoot_ms_p99", J.Float (U.round9 (pct 0.99)));
        ("overshoot_ms_max", J.Float (U.round9 (pct 1.0))) ]
  in
  let path = "BENCH_timing.json" in
  U.write_json path
    (J.Obj
       [ ("rows", J.List (approx_rows @ ptas_rows));
         ("resil_sweep", resil) ]);
  U.footnote
    (Printf.sprintf "wrote %s (%d rows)" path (List.length approx_rows + List.length ptas_rows))
