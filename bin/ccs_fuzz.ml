(* Differential fuzzing CLI: seeded random instances through the Ccs_check
   oracle. Every applicable solver runs on every instance; schedules are
   validated, certificates are cross-checked within and across regimes, and
   metamorphic variants (scaled, permuted, one extra machine) must agree.
   Violations are shrunk to a self-contained repro. Exit code 1 iff any
   violation was found.

   The instance at index i depends only on (seed, i), so a report line
   replays exactly with --seed S (and --count > i) at any --jobs count. *)

open Cmdliner

(* Chaos mode (--faults and/or --deadline-ms): instead of the differential
   oracle, run the Ccs_anytime degradation ladder on every instance under
   deadlines and seeded fault injection and demand a valid schedule or a
   clean Degraded value from every run. Sequential by design — see
   Ccs_check.Chaos. *)
let run_chaos seed count param max_n family deadline_ms faults cancel_ppm raise_ppm delay_ppm
    portfolio verbose =
  let config =
    {
      Ccs_check.Chaos.default_config with
      seed;
      count;
      param;
      max_n;
      deadline_ms;
      faults;
      cancel_ppm;
      raise_ppm;
      delay_ppm;
      family;
      portfolio;
    }
  in
  let report = Ccs_check.Chaos.run config in
  List.iter
    (fun f -> print_string (Ccs_check.Chaos.render_failure config f))
    report.Ccs_check.Chaos.failures;
  if verbose then
    List.iter
      (fun (phase, n) -> Printf.printf "%-24s %8d degraded\n" phase n)
      report.Ccs_check.Chaos.phases;
  let nfail = List.length report.Ccs_check.Chaos.failures in
  Printf.printf
    "chaos: %d runs (seed %d%s%s): %d complete, %d degraded, max overshoot %.1fms: %s\n"
    report.Ccs_check.Chaos.runs seed
    (match deadline_ms with Some ms -> Printf.sprintf ", deadline %dms" ms | None -> "")
    (if faults then ", faults armed" else "")
    report.Ccs_check.Chaos.complete report.Ccs_check.Chaos.degraded
    report.Ccs_check.Chaos.max_overshoot_ms
    (if nfail = 0 then "no failures" else Printf.sprintf "%d failures" nfail);
  if nfail = 0 then 0 else 1

(* The differential oracle over [count] seeded instances. *)
let run_oracle seed count param jobs max_n family no_metamorphic no_shrink verbose =
  (* no idle domains: each one still joins every minor GC *)
  Ccs_par.set_jobs (min jobs count);
  let config =
    {
      Ccs_check.Runner.default_config with
      seed;
      count;
      param;
      metamorphic = not no_metamorphic;
      shrink = not no_shrink;
      max_n;
      family;
    }
  in
  let report = Ccs_check.Runner.run config in
  if verbose then begin
    Printf.printf "%-24s %8s %8s\n" "solver" "solved" "skipped";
    List.iter
      (fun t ->
        Printf.printf "%-24s %8d %8d\n" t.Ccs_check.Oracle.name
          t.Ccs_check.Oracle.solved t.Ccs_check.Oracle.skipped)
      report.Ccs_check.Runner.tallies
  end;
  List.iter
    (fun case -> print_string (Ccs_check.Runner.render_case config case))
    report.Ccs_check.Runner.cases;
  let nviol = List.length report.Ccs_check.Runner.cases in
  Printf.printf "checked %d instances (seed %d, delta 1/%d): %s\n"
    report.Ccs_check.Runner.checked seed param.Ccs.Ptas.Common.d
    (if nviol = 0 then "no violations"
     else Printf.sprintf "%d violation%s" nviol (if nviol = 1 then "" else "s"));
  if nviol = 0 then 0 else 1

let run seed count epsilon jobs max_n family no_metamorphic no_shrink verbose deadline_ms faults
    cancel_ppm raise_ppm delay_ppm portfolio obs =
  Obs_cli.with_reporting obs @@ fun () ->
  if jobs < 1 then begin
    Printf.eprintf "error: --jobs must be >= 1\n";
    2
  end
  else if count < 1 then begin
    Printf.eprintf "error: --count must be >= 1\n";
    2
  end
  else
    match Ccs.Ptas.Common.param_of_epsilon epsilon with
    | None ->
        Printf.eprintf "error: --epsilon must be > 0 with ceil(1/epsilon) <= max_int\n";
        2
    | Some param when faults || deadline_ms <> None ->
        run_chaos seed count param max_n family deadline_ms faults cancel_ppm raise_ppm delay_ppm
          portfolio verbose
    | Some param ->
        run_oracle seed count param jobs max_n family no_metamorphic no_shrink verbose

let cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"PRNG seed; instance $(i,i) depends only on ($(docv), i).")
  in
  let count = Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Number of instances to check.") in
  let epsilon = Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"PTAS accuracy (delta = 1/ceil(1/epsilon)), greater than 0.") in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains. Reports are bit-identical at any $(docv).")
  in
  let max_n =
    Arg.(value & opt int Ccs_check.Runner.default_config.Ccs_check.Runner.max_n
           & info [ "max-n" ] ~doc:"Cap on generated instance size.")
  in
  let family =
    Arg.(value & opt (some (enum Ccs.Generator.families)) None
           & info [ "family" ]
               ~doc:("Pin every instance to one workload family ("
                     ^ doc_alts_enum Ccs.Generator.families
                     ^ ") instead of drawing it per index. Applies to the \
                        differential oracle and to chaos mode."))
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
           & info [ "deadline-ms" ] ~docv:"MS"
               ~doc:"Chaos mode: run the anytime degradation ladder with a $(docv) budget per \
                     run instead of the differential oracle; every run must return a valid \
                     schedule or a clean degraded value.")
  in
  let faults =
    Arg.(value & flag
           & info [ "faults" ]
               ~doc:"Chaos mode: arm a seeded fault plan (cancellations, synthetic crashes, \
                     latency) at the solvers' cancellation checkpoints.")
  in
  let cancel_ppm = Arg.(value & opt int 1000 & info [ "cancel-ppm" ] ~doc:"Per-million cancel probability per checkpoint (with --faults).") in
  let raise_ppm = Arg.(value & opt int 500 & info [ "raise-ppm" ] ~doc:"Per-million synthetic-crash probability per checkpoint (with --faults).") in
  let delay_ppm = Arg.(value & opt int 500 & info [ "delay-ppm" ] ~doc:"Per-million latency-injection probability per checkpoint (with --faults).") in
  let portfolio =
    Arg.(value & flag
           & info [ "portfolio" ]
               ~doc:"Chaos mode: the non-preemptive ladder's exact rung races the solver \
                     portfolio (B&B, config-ILP, N-fold) instead of the lone branch & bound.")
  in
  let no_metamorphic = Arg.(value & flag & info [ "no-metamorphic" ] ~doc:"Skip the metamorphic (scale/permute/add-machine) probes.") in
  let no_shrink = Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report original instances instead of shrunk repros.") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the per-solver solved/skipped tally.") in
  let info =
    Cmd.info "ccs_fuzz"
      ~doc:"Differential fuzzing oracle for the CCS solvers"
      ~man:
        [
          `S Manpage.s_description;
          `P "Generates seeded random instances, runs every applicable solver \
              (2-approx, PTAS and exact, in all three regimes), validates each \
              schedule and cross-checks the solvers' certified bounds against \
              each other and under metamorphic transforms. Violations are \
              shrunk and printed as self-contained repros.";
        ]
  in
  Cmd.v info
    Term.(const run $ seed $ count $ epsilon $ jobs $ max_n $ family $ no_metamorphic $ no_shrink
          $ verbose $ deadline_ms $ faults $ cancel_ppm $ raise_ppm $ delay_ppm $ portfolio
          $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
