(* Solver CLI: read one or more instances, run a chosen algorithm, print and
   validate the schedules. Every algorithm of the paper is reachable from
   here. With --jobs N the instances are solved as a parallel batch on a
   Ccs_par pool (each solve itself is sequential); each instance's output
   is buffered and flushed in input order, so the bytes printed are
   identical at any job count. Load, validation and emit run as
   flight-recorder phases (io, schedule, emit), so --trace-out and --record
   cover the CLI's own time. *)

open Cmdliner
module Q = Rat

type variant = Splittable | Preemptive | Nonpreemptive
type algo = Approx | Ptas | Exact | Nfold

let variant_conv =
  let parse = function
    | "splittable" | "split" -> Ok Splittable
    | "preemptive" | "pre" -> Ok Preemptive
    | "nonpreemptive" | "np" -> Ok Nonpreemptive
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
  in
  let print fmt v =
    Format.pp_print_string fmt
      (match v with Splittable -> "splittable" | Preemptive -> "preemptive" | Nonpreemptive -> "nonpreemptive")
  in
  Arg.conv (parse, print)

let algo_conv =
  let parse = function
    | "approx" -> Ok Approx
    | "ptas" -> Ok Ptas
    | "exact" -> Ok Exact
    | "nfold" -> Ok Nfold
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print fmt a =
    Format.pp_print_string fmt
      (match a with Approx -> "approx" | Ptas -> "ptas" | Exact -> "exact" | Nfold -> "nfold")
  in
  Arg.conv (parse, print)

(* The printers write straight into the output buffer: a million-job
   schedule prints without a string, a [Printf] or a [Rat] per job. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i = if i < 0 then Buffer.add_string buf (string_of_int i) else add_digits buf i

let print_nonpreemptive buf inst assignment =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  Ccs.Schedule.iter_machines assignment (fun mi jobs lo hi ->
      let load = ref 0 in
      for i = lo to hi - 1 do load := !load + Ccs.Instance.job_p inst jobs.(i) done;
      Buffer.add_string buf "machine ";
      add_int buf mi;
      Buffer.add_string buf " (load ";
      add_int buf !load;
      Buffer.add_string buf "):";
      for i = lo to hi - 1 do
        Buffer.add_string buf " j";
        add_int buf jobs.(i)
      done;
      Buffer.add_char buf '\n')

let print_splittable buf sched =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  List.iter
    (fun b ->
      Buffer.add_string buf "machines ";
      add_int buf b.Ccs.Schedule.m_start;
      Buffer.add_string buf "..";
      add_int buf (b.Ccs.Schedule.m_start + b.Ccs.Schedule.m_count - 1);
      Buffer.add_string buf ": class ";
      add_int buf b.Ccs.Schedule.cls;
      Buffer.add_string buf ", ";
      Q.add_to_buffer buf b.Ccs.Schedule.per_machine;
      Buffer.add_string buf " each\n")
    sched.Ccs.Schedule.blocks;
  List.iter
    (fun (mi, loads) ->
      Buffer.add_string buf "machine ";
      add_int buf mi;
      Buffer.add_string buf ": ";
      List.iteri
        (fun k (u, l) ->
          Buffer.add_string buf (if k > 0 then ", class " else "class ");
          add_int buf u;
          Buffer.add_string buf ": ";
          Q.add_to_buffer buf l)
        loads;
      Buffer.add_char buf '\n')
    sched.Ccs.Schedule.explicit_machines

let print_preemptive buf sched =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  Array.iteri
    (fun mi pieces ->
      if pieces <> [] then begin
        Buffer.add_string buf "machine ";
        add_int buf mi;
        Buffer.add_char buf ':';
        List.iter
          (fun pc ->
            Buffer.add_string buf " j";
            add_int buf pc.Ccs.Schedule.pjob;
            Buffer.add_string buf "@[";
            Q.add_to_buffer buf pc.Ccs.Schedule.start;
            Buffer.add_char buf ',';
            Q.add_to_buffer buf (Q.add pc.Ccs.Schedule.start pc.Ccs.Schedule.len);
            Buffer.add_char buf ')')
          pieces;
        Buffer.add_char buf '\n'
      end)
    sched

(* Run-length-compressed printers (--compress): schedules are summarized
   per machine by class totals instead of per job, and consecutive machines
   with identical summaries collapse into one "machines a..b" line — the
   same idea as the splittable printer's blocks (Theorem 11's compressed
   output), extended to the integral variants so that printing a
   million-job schedule costs O(machines) lines, not O(jobs). *)

(* Per-class (count, total) tallies over one machine at a time: [stamp.(u)]
   is the last machine that touched class [u], [classes] the classes the
   current machine touched. *)
type 'a tally = {
  stamp : int array;
  count : int array;
  total : 'a array;
  mutable classes : int list;
}

let tally inst zero =
  let nc = Ccs.Instance.num_classes inst in
  { stamp = Array.make nc (-1); count = Array.make nc 0; total = Array.make nc zero;
    classes = [] }

let tally_add t plus mi u x =
  let fresh = t.stamp.(u) <> mi in
  if fresh then begin
    t.stamp.(u) <- mi;
    t.classes <- u :: t.classes
  end;
  t.count.(u) <- (if fresh then 1 else t.count.(u) + 1);
  t.total.(u) <- (if fresh then x else plus t.total.(u) x)

(* Visits the current machine's classes in increasing order and resets. *)
let tally_iteri t f =
  let classes = List.sort Int.compare t.classes in
  t.classes <- [];
  List.iteri f classes

let print_nonpreemptive_compressed buf inst assignment =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let t = tally inst 0 and desc = Buffer.create 64 in
  (* the pending run of identical consecutive machines: first, last, load, summary *)
  let run = ref None in
  let flush () =
    match !run with
    | None -> ()
    | Some (first, last, load, d) ->
        if first = last then Printf.bprintf buf "machine %d (load %d): %s\n" first load d
        else Printf.bprintf buf "machines %d..%d (load %d each): %s\n" first last load d
  in
  Ccs.Schedule.iter_machines assignment (fun mi jobs lo hi ->
      for i = lo to hi - 1 do
        let j = jobs.(i) in
        tally_add t ( + ) mi (Ccs.Instance.job_cls inst j) (Ccs.Instance.job_p inst j)
      done;
      Buffer.clear desc;
      let load = ref 0 in
      tally_iteri t (fun k u ->
          if k > 0 then Buffer.add_string desc ", ";
          Printf.bprintf desc "class %d: %d jobs, load %d" u t.count.(u) t.total.(u);
          load := !load + t.total.(u));
      let d = Buffer.contents desc in
      match !run with
      | Some (first, last, l, d') when mi = last + 1 && l = !load && String.equal d d' ->
          run := Some (first, mi, l, d')
      | _ ->
          flush ();
          run := Some (mi, mi, !load, d));
  flush ()

let print_preemptive_compressed buf inst sched =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let t = tally inst Q.zero in
  Array.iteri
    (fun mi pieces ->
      if pieces <> [] then begin
        let finish = ref Q.zero in
        List.iter
          (fun pc ->
            let u = Ccs.Instance.job_cls inst pc.Ccs.Schedule.pjob in
            tally_add t Q.add mi u pc.Ccs.Schedule.len;
            finish := Q.max !finish (Q.add pc.Ccs.Schedule.start pc.Ccs.Schedule.len))
          pieces;
        Printf.bprintf buf "machine %d (finish %s): " mi (Q.to_string !finish);
        tally_iteri t (fun k u ->
            if k > 0 then Buffer.add_string buf ", ";
            Printf.bprintf buf "class %d: %d pieces, time %s" u t.count.(u)
              (Q.to_string t.total.(u)));
        Buffer.add_char buf '\n'
      end)
    sched

(* A schedule the validator rejects is a solver bug, not bad input: it is
   reported with the validator's reason and exit code 3. *)
exception Rejected of string * string

let validated variant validate =
  match Ccs_obs.Recorder.phase "schedule" validate with
  | Ok makespan -> makespan
  | Error msg -> raise (Rejected (variant, msg))

(* Anytime mode (--deadline-ms / --anytime): run the degradation ladder
   starting at the requested algorithm's rung. A deadline never fails the
   run — it degrades it, and the degraded incumbent is validated and
   printed with its certified lower bound and ratio. *)
let solve_anytime_one ~out inst variant algo param deadline_ms quiet ~compress ~portfolio
    ~node_limit =
  let module D = Ccs_anytime.Driver in
  let module O = Ccs_resil.Outcome in
  let start =
    match algo with
    | Exact -> D.Exact
    | Ptas | Nfold -> D.Ptas (* the ladder has one accuracy rung; nfold shares it *)
    | Approx -> D.Approx
  in
  let deadline = Option.map Ccs_resil.Deadline.of_budget_ms deadline_ms in
  let finish : 'a. string -> ('a -> (Q.t, string) result) -> ('a -> unit) -> 'a D.solved O.t -> unit =
   fun name validate print o ->
    match o with
    | O.Complete s ->
        let mk = validated name (fun () -> validate s.D.schedule) in
        Printf.bprintf out "%s anytime: makespan %s (complete, %s rung)\n" name (Q.to_string mk)
          (D.rung_name s.D.rung);
        if not quiet then print s.D.schedule
    | O.Degraded dg ->
        (* The fallback rung cannot fail, so a degraded outcome always
           carries an incumbent. *)
        let s = Option.get dg.O.incumbent in
        let mk = validated name (fun () -> validate s.D.schedule) in
        Printf.bprintf out
          "%s anytime: degraded at %s rung: incumbent makespan %s (%s rung), lower bound %s%s\n"
          name dg.O.phase_reached (Q.to_string mk) (D.rung_name s.D.rung)
          (Q.to_string dg.O.lower_bound)
          (match dg.O.ratio_bound with
          | Some r -> Printf.sprintf ", ratio <= %.4g" (Q.to_float r)
          | None -> "");
        if not quiet then print s.D.schedule
  in
  match variant with
  | Splittable ->
      finish "splittable"
        (Ccs.Schedule.validate_splittable inst)
        (print_splittable out)
        (D.solve_splittable ?deadline ~start ~param inst)
  | Preemptive ->
      finish "preemptive"
        (Ccs.Schedule.validate_preemptive inst)
        (if compress then print_preemptive_compressed out inst else print_preemptive out)
        (D.solve_preemptive ?deadline ~start ~param inst)
  | Nonpreemptive ->
      finish "non-preemptive"
        (fun a -> Result.map Q.of_int (Ccs.Schedule.validate_nonpreemptive inst a))
        ((if compress then print_nonpreemptive_compressed else print_nonpreemptive) out inst)
        (D.solve_nonpreemptive ?deadline ~start ~param ?node_limit ~portfolio inst)

(* Solve one instance, accumulating stdout/stderr text into the buffers.
   Returns the exit code. *)
let solve_one ~out ~err file variant algo epsilon quiet ~deadline_ms ~anytime ~compress
    ~portfolio ~node_limit =
  (* text or ccsb1 binary, auto-detected *)
  match Ccs_obs.Recorder.phase "io" (fun () -> Ccs.Io.load file) with
  | Error e ->
      Printf.bprintf err "error: %s\n" e;
      1
  | Ok inst -> (
      let print_np = if compress then print_nonpreemptive_compressed else print_nonpreemptive in
      let print_pre buf s =
        if compress then print_preemptive_compressed buf inst s else print_preemptive buf s
      in
      Printf.bprintf out "instance: n=%d m=%d c=%d C=%d\n" (Ccs.Instance.n inst)
        (Ccs.Instance.m inst) (Ccs.Instance.c inst) (Ccs.Instance.num_classes inst);
      let d = max 1 (int_of_float (ceil (1.0 /. epsilon))) in
      let param = Ccs.Ptas.Common.param d in
      try
        if anytime || deadline_ms <> None then begin
          solve_anytime_one ~out inst variant algo param deadline_ms quiet ~compress
            ~portfolio ~node_limit;
          0
        end
        else begin
        (match (variant, algo) with
        | Splittable, Approx ->
            let sched, stats = Ccs.Approx.Splittable.solve inst in
            let mk = validated "splittable" (fun () -> Ccs.Schedule.validate_splittable inst sched) in
            Printf.bprintf out "splittable 2-approx: makespan %s (guess T=%s, <= 2T)\n"
              (Q.to_string mk) (Q.to_string stats.Ccs.Approx.Splittable.t_guess);
            if not quiet then print_splittable out sched
        | Splittable, Ptas ->
            let sched, stats = Ccs.Ptas.Splittable_ptas.solve param inst in
            let mk = validated "splittable" (fun () -> Ccs.Schedule.validate_splittable inst sched) in
            Printf.bprintf out "splittable PTAS (delta=1/%d): makespan %s (accepted T=%s)\n" d
              (Q.to_string mk) (Q.to_string stats.Ccs.Ptas.Splittable_ptas.t_accepted);
            if not quiet then print_splittable out sched
        | Splittable, Nfold ->
            (* Dual-approximation search driven by the paper's literal
               N-fold formulation (Section 4.1): each guess is decided on
               the duplicated N-fold program, and the witness schedule for
               the accepted guess is recovered from the aggregated oracle —
               the two decide the same rounded program by construction. *)
            let delta = Ccs.Ptas.Common.delta param in
            let lb = Ccs.Bounds.lb_splittable inst in
            let ub = Q.max lb (Ccs.Bounds.ub_splittable inst) in
            let oracle t =
              if Ccs.Ptas.Nfold_form.feasible_splittable param inst t then
                match Ccs.Ptas.Splittable_ptas.oracle param inst t with
                | Some sched -> Some sched
                | None ->
                    failwith
                      "nfold backend accepted a guess the aggregated oracle rejects"
              else None
            in
            let sched, t_acc =
              Ccs.Ptas.Common.geometric_search ~lb ~ub ~delta ~oracle ()
            in
            let mk = validated "splittable" (fun () -> Ccs.Schedule.validate_splittable inst sched) in
            Printf.bprintf out
              "splittable N-fold (delta=1/%d): makespan %s (accepted T=%s)\n" d
              (Q.to_string mk) (Q.to_string t_acc);
            if not quiet then print_splittable out sched
        | (Preemptive | Nonpreemptive), Nfold ->
            Printf.bprintf out
              "no N-fold backend for this variant (splittable only; see DESIGN.md)\n"
        | Splittable, Exact -> (
            match Ccs_exact.Splittable_opt.solve_schedule inst with
            | Some (opt, sched) ->
                Printf.bprintf out "splittable exact optimum: %s\n" (Q.to_string opt);
                if not quiet then print_splittable out sched
            | None -> Printf.bprintf out "exact solver out of budget or instance too large\n")
        | Preemptive, Approx ->
            let sched, stats = Ccs.Approx.Preemptive.solve inst in
            let mk = validated "preemptive" (fun () -> Ccs.Schedule.validate_preemptive inst sched) in
            Printf.bprintf out "preemptive 2-approx: makespan %s (guess T=%s, <= 2T)\n"
              (Q.to_string mk) (Q.to_string stats.Ccs.Approx.Preemptive.t_guess);
            if not quiet then print_pre out sched
        | Preemptive, Ptas ->
            let sched, stats = Ccs.Ptas.Preemptive_ptas.solve param inst in
            let mk = validated "preemptive" (fun () -> Ccs.Schedule.validate_preemptive inst sched) in
            Printf.bprintf out "preemptive PTAS (delta=1/%d): makespan %s (accepted T=%s)\n" d
              (Q.to_string mk) (Q.to_string stats.Ccs.Ptas.Preemptive_ptas.t_accepted);
            if not quiet then print_pre out sched
        | Preemptive, Exact ->
            Printf.bprintf out "no exact preemptive solver (see DESIGN.md); lower bound: %s\n"
              (Q.to_string (Ccs.Bounds.lb_preemptive inst))
        | Nonpreemptive, Approx ->
            let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
            let mk = validated "non-preemptive" (fun () -> Ccs.Schedule.validate_nonpreemptive inst sched) in
            Printf.bprintf out "non-preemptive 7/3-approx: makespan %d (guess T=%d, <= 7/3 T)\n" mk
              stats.Ccs.Approx.Nonpreemptive.t_guess;
            if not quiet then print_np out inst sched
        | Nonpreemptive, Ptas ->
            let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve param inst in
            let mk = validated "non-preemptive" (fun () -> Ccs.Schedule.validate_nonpreemptive inst sched) in
            Printf.bprintf out "non-preemptive PTAS (delta=1/%d): makespan %d (accepted T=%s)\n" d mk
              (Q.to_string stats.Ccs.Ptas.Nonpreemptive_ptas.t_accepted);
            if not quiet then print_np out inst sched
        | Nonpreemptive, Exact when portfolio -> (
            match Ccs_exact.Portfolio.solve ?node_limit inst with
            | Some o when o.Ccs_exact.Portfolio.proved ->
                Printf.bprintf out "non-preemptive exact optimum: %d (portfolio winner: %s)\n"
                  o.Ccs_exact.Portfolio.makespan o.Ccs_exact.Portfolio.winner;
                if not quiet then print_np out inst o.Ccs_exact.Portfolio.assignment
            | Some o ->
                (* Every member abstained: mirror the anytime Degraded
                   contract — surface the incumbent plus the proven bound
                   instead of dropping them. *)
                Printf.bprintf out
                  "exact search out of budget: incumbent %d, proven lower bound %d\n"
                  o.Ccs_exact.Portfolio.makespan o.Ccs_exact.Portfolio.lower_bound;
                if not quiet then print_np out inst o.Ccs_exact.Portfolio.assignment
            | None -> Printf.bprintf out "instance is not schedulable\n")
        | Nonpreemptive, Exact -> (
            match Ccs_exact.Bnb.solve_result ?node_limit inst with
            | Some { Ccs_exact.Bnb.status = Complete; makespan; assignment; _ } ->
                Printf.bprintf out "non-preemptive exact optimum: %d\n" makespan;
                if not quiet then print_np out inst assignment
            | Some r ->
                Printf.bprintf out
                  "exact search out of budget: incumbent %d, proven lower bound %d\n"
                  r.Ccs_exact.Bnb.makespan r.Ccs_exact.Bnb.lower_bound;
                if not quiet then print_np out inst r.Ccs_exact.Bnb.assignment
            | None -> Printf.bprintf out "instance is not schedulable\n"));
        0
        end
      with
      | Rejected (variant, msg) ->
          Printf.bprintf err "error: %s schedule failed validation: %s\n" variant msg;
          3
      | Invalid_argument msg ->
          Printf.bprintf err "error: %s\n" msg;
          1
      (* a valid instance on which the algorithm gave up: exit 4 *)
      | Ccs.Ptas.Common.Too_many ->
          Printf.bprintf err "error: configuration space too large for this epsilon\n";
          4
      | Ccs.Ptas.Common.Budget_exceeded ->
          Printf.bprintf err "error: ILP node budget exhausted\n";
          4)

let run files variant algo epsilon quiet jobs deadline_ms anytime (_ : [ `Text | `Flat ])
    compress portfolio node_limit obs =
  Obs_cli.with_reporting obs @@ fun () ->
  if jobs < 1 then begin
    Printf.eprintf "error: --jobs must be >= 1\n";
    2
  end
  else begin
    (* An idle worker domain still joins every stop-the-world minor GC, so
       the pool never outnumbers the files it can work on. *)
    Ccs_par.set_jobs (min jobs (List.length files));
    let many = List.length files > 1 in
    let results =
      Ccs_par.parallel_map
        (fun file ->
          let out = Buffer.create 256 and err = Buffer.create 64 in
          if many then Printf.bprintf out "=== %s ===\n" file;
          let code =
            solve_one ~out ~err file variant algo epsilon quiet ~deadline_ms ~anytime
              ~compress ~portfolio ~node_limit
          in
          (out, err, code))
        (Array.of_list files)
    in
    Ccs_obs.Recorder.phase "emit" @@ fun () ->
    (* a batch exits with its highest code, except that a failed
       validation (3, a solver bug) is never hidden behind a 4 *)
    Array.fold_left
      (fun acc (out, err, code) ->
        Buffer.output_buffer stdout out;
        Buffer.output_buffer stderr err;
        if acc = 3 || code = 3 then 3 else max acc code)
      0 results
  end

let cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"INSTANCE"
           ~doc:"Instance file(s) (ccs_gen format); several files form a batch.")
  in
  let variant = Arg.(value & opt variant_conv Nonpreemptive & info [ "variant" ] ~doc:"splittable, preemptive or nonpreemptive.") in
  let algo =
    Arg.(value & opt algo_conv Approx
           & info [ "algo" ]
               ~doc:"approx, ptas, exact, or nfold (the paper's literal N-fold \
                     formulation; splittable variant only).")
  in
  let epsilon = Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"PTAS accuracy (delta = 1/ceil(1/epsilon)).") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Do not print the schedule.") in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for a batch of several instances (each solve runs \
                 on one domain). Output is deterministic: seeded runs are \
                 bit-identical at any $(docv).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
           & info [ "deadline-ms" ] ~docv:"MS"
               ~doc:"Solve anytime under a $(docv) budget: walk the degradation ladder \
                     (exact, PTAS, 2-approx, greedy) and report the best incumbent with a \
                     certified ratio if the deadline lands mid-solve.")
  in
  let anytime =
    Arg.(value & flag
           & info [ "anytime" ]
               ~doc:"Use the degradation ladder even without a deadline ($(b,--algo) picks \
                     the starting rung).")
  in
  (* Parsed and ignored: bench/e2e still passes it. It goes when that
     harness next changes. *)
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("flat", `Flat) ]) `Text
           & info [ "format" ] ~docv:"FMT"
               ~doc:"Accepted for compatibility and ignored: $(b,text) and \
                     $(b,flat) run the same pipeline. Input files are \
                     auto-detected (text or ccsb1 binary).")
  in
  let compress =
    Arg.(value & flag
           & info [ "compress" ]
               ~doc:"Run-length-compressed schedule output: per-machine class \
                     totals with identical consecutive machines collapsed, so \
                     printing costs O(machines) lines instead of O(jobs).")
  in
  let portfolio =
    Arg.(value & flag
           & info [ "portfolio" ]
               ~doc:"With $(b,--algo exact) (non-preemptive, plain or anytime): try \
                     the conflict-driven branch & bound, then an exact \
                     configuration-ILP, then an exact N-fold program, each under its \
                     own budget. The first proof wins.")
  in
  let node_limit =
    Arg.(value & opt (some int) None
           & info [ "node-limit" ] ~docv:"N"
               ~doc:"Node budget for the exact search (and the anytime exact rung). \
                     When the budget runs out the incumbent and its proven lower \
                     bound are reported instead of being discarded.")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"on an unreadable instance or one the chosen algorithm cannot solve."
    :: Cmd.Exit.info 2
         ~doc:"on a bad option value: $(b,--jobs) below 1, an unknown $(b,--log-level), or \
               a $(b,--trace-out), $(b,--record) or $(b,--metrics-out) file that cannot be \
               written."
    :: Cmd.Exit.info 3
         ~doc:"when a computed schedule fails validation (a solver bug; the validator's \
               reason is printed)."
    :: Cmd.Exit.info 4
         ~doc:"when the algorithm gives up on a valid instance: the PTAS configuration \
               space is too large for the chosen $(b,--epsilon), or an ILP exhausts its \
               node budget. A batch exits with the highest code of its instances, \
               except that 3 outranks 4."
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "ccs_solve" ~exits ~doc:"Solve Class Constrained Scheduling instances"
  in
  Cmd.v info
    Term.(const run $ files $ variant $ algo $ epsilon $ quiet $ jobs $ deadline_ms $ anytime
          $ format $ compress $ portfolio $ node_limit $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
