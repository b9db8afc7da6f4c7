(* Solver CLI: read one or more instances, run a chosen algorithm, print and
   validate the schedules. Every algorithm of the paper is reachable from
   here. With --jobs N the instances are solved as a parallel batch on a
   Ccs_par pool (each solve itself is sequential). Each instance prints
   into its own buffer, which is written out in input order as soon as the
   instance and every earlier one are done; the instance next in that order
   writes its buffer to stdout in chunks while it is still printing. The
   bytes printed are therefore identical at any job count, and a batch
   holds the whole text only of instances that wait for an earlier one.
   Load, validation and emit run as flight-recorder phases (io, schedule,
   emit), so --trace-out and --record cover the CLI's own time. *)

open Cmdliner
module Q = Rat

type variant = Splittable | Preemptive | Nonpreemptive
type algo = Approx | Ptas | Exact

let variants =
  [ ("splittable", Splittable); ("split", Splittable); ("preemptive", Preemptive);
    ("pre", Preemptive); ("nonpreemptive", Nonpreemptive); ("np", Nonpreemptive) ]

let algos = [ ("approx", Approx); ("ptas", Ptas); ("exact", Exact) ]

(* One instance's stdout: the text printed so far and not yet written, the
   instance's place in the batch, and the batch's next place to write. *)
type out = { buf : Buffer.t; index : int; turn : int Atomic.t }

(* The stdout channel's buffer size. *)
let chunk = 65_536

(* Called after each printed line: once the instance is next to write (every
   earlier one is written whole), a chunk's worth of text goes to stdout
   instead of waiting for the instance to finish. *)
let spill out =
  if Buffer.length out.buf >= chunk && Atomic.get out.turn = out.index then begin
    Buffer.output_buffer stdout out.buf;
    Buffer.clear out.buf
  end

(* The printers write straight into the output buffer: a million-job
   schedule prints without a string, a [Printf] or a [Rat] per job. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i = if i < 0 then Buffer.add_string buf (string_of_int i) else add_digits buf i

let print_nonpreemptive out inst assignment =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let buf = out.buf in
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
      Buffer.add_char buf '\n';
      spill out)

let print_splittable out sched =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let buf = out.buf in
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
      Buffer.add_string buf " each\n";
      spill out)
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
      Buffer.add_char buf '\n';
      spill out)
    sched.Ccs.Schedule.explicit_machines

let print_preemptive out sched =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let buf = out.buf in
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
        Buffer.add_char buf '\n';
        spill out
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

let print_nonpreemptive_compressed out inst assignment =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let buf = out.buf in
  let t = tally inst 0 and desc = Buffer.create 64 in
  (* the pending run of identical consecutive machines: first, last, load, summary *)
  let run = ref None in
  let flush () =
    match !run with
    | None -> ()
    | Some (first, last, load, d) ->
        if first = last then Printf.bprintf buf "machine %d (load %d): %s\n" first load d
        else Printf.bprintf buf "machines %d..%d (load %d each): %s\n" first last load d;
        spill out
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

let print_preemptive_compressed out inst sched =
  Ccs_obs.Recorder.phase "emit" @@ fun () ->
  let buf = out.buf in
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
        Buffer.add_char buf '\n';
        spill out
      end)
    sched

(* A schedule the validator rejects is a solver bug, not bad input: it is
   reported with the validator's reason and exit code 3. *)
exception Rejected of string * string

(* One variant's output: its name in messages, its validator and its
   printer. Both paths print through [emit], so no schedule is printed
   before its validator has accepted it. *)
type 'a emitter = { name : string; validate : 'a -> (Q.t, string) result; print : 'a -> unit }

let splittable out inst =
  { name = "splittable"; validate = Ccs.Schedule.validate_splittable inst;
    print = print_splittable out }

let preemptive out inst ~compress =
  { name = "preemptive"; validate = Ccs.Schedule.validate_preemptive inst;
    print = (if compress then print_preemptive_compressed out inst else print_preemptive out) }

let nonpreemptive out inst ~compress =
  { name = "non-preemptive";
    validate = (fun a -> Result.map Q.of_int (Ccs.Schedule.validate_nonpreemptive inst a));
    print = (if compress then print_nonpreemptive_compressed else print_nonpreemptive) out inst }

(* Validate [sched] in the "schedule" phase, then write the summary line
   that [summary] makes of its makespan and, unless [quiet], the schedule. *)
let emit e ~quiet sched summary =
  match Ccs_obs.Recorder.phase "schedule" (fun () -> e.validate sched) with
  | Error msg -> raise (Rejected (e.name, msg))
  | Ok makespan ->
      summary makespan;
      if not quiet then e.print sched

(* Anytime mode (--deadline-ms / --anytime): run the degradation ladder
   starting at the requested algorithm's rung. A deadline never fails the
   run — it degrades it, and the degraded incumbent is validated and
   printed with its certified lower bound and ratio. *)
let solve_anytime_one ~out inst variant algo param deadline_ms quiet ~compress ~portfolio
    ~node_limit =
  let module D = Ccs_anytime.Driver in
  let module O = Ccs_resil.Outcome in
  let start = match algo with Exact -> D.Exact | Ptas -> D.Ptas | Approx -> D.Approx in
  let deadline = Option.map Ccs_resil.Deadline.of_budget_ms deadline_ms in
  let finish : 'a. 'a emitter -> 'a D.solved O.t -> unit =
   fun e o ->
    match o with
    | O.Complete s ->
        emit e ~quiet s.D.schedule (fun mk ->
            Printf.bprintf out.buf "%s anytime: makespan %s (complete, %s rung)\n" e.name
              (Q.to_string mk) (D.rung_name s.D.rung))
    | O.Degraded dg ->
        (* The fallback rung cannot fail, so a degraded outcome always
           carries an incumbent. *)
        let s = Option.get dg.O.incumbent in
        emit e ~quiet s.D.schedule (fun mk ->
            Printf.bprintf out.buf
              "%s anytime: degraded at %s rung: incumbent makespan %s (%s rung), lower bound %s%s\n"
              e.name dg.O.phase_reached (Q.to_string mk) (D.rung_name s.D.rung)
              (Q.to_string dg.O.lower_bound)
              (match dg.O.ratio_bound with
              | Some r -> Printf.sprintf ", ratio <= %.4g" (Q.to_float r)
              | None -> ""))
  in
  match variant with
  | Splittable -> finish (splittable out inst) (D.solve_splittable ?deadline ~start ~param inst)
  | Preemptive ->
      finish (preemptive out inst ~compress) (D.solve_preemptive ?deadline ~start ~param inst)
  | Nonpreemptive ->
      finish (nonpreemptive out inst ~compress)
        (D.solve_nonpreemptive ?deadline ~start ~param ?node_limit ~portfolio inst)

(* Solve one instance, printing its stdout text into [out] and its stderr
   text into [err]. Returns the exit code. *)
let solve_one ~out ~err file variant algo param quiet ~deadline_ms ~anytime ~compress
    ~portfolio ~node_limit =
  (* text or ccsb1 binary, auto-detected *)
  match Ccs_obs.Recorder.phase "io" (fun () -> Ccs.Io.load file) with
  | Error e ->
      Printf.bprintf err "error: %s\n" e;
      1
  | Ok inst -> (
      Printf.bprintf out.buf "instance: n=%d m=%d c=%d C=%d\n" (Ccs.Instance.n inst)
        (Ccs.Instance.m inst) (Ccs.Instance.c inst) (Ccs.Instance.num_classes inst);
      (* the summary lines shared by the variants *)
      let approx e t_guess mk =
        Printf.bprintf out.buf "%s 2-approx: makespan %s (guess T=%s, <= 2T)\n" e.name
          (Q.to_string mk) (Q.to_string t_guess)
      in
      let ptas e t_accepted mk =
        Printf.bprintf out.buf "%s PTAS (delta=1/%d): makespan %s (accepted T=%s)\n" e.name
          param.Ccs.Ptas.Common.d (Q.to_string mk) (Q.to_string t_accepted)
      in
      let optimum e opt _ = Printf.bprintf out.buf "%s exact optimum: %s\n" e.name opt in
      let no_optimum () =
        Printf.bprintf out.buf "exact solver out of budget or instance too large\n"
      in
      try
        if anytime || deadline_ms <> None then
          solve_anytime_one ~out inst variant algo param deadline_ms quiet ~compress
            ~portfolio ~node_limit
        else begin
          match variant with
          | Splittable -> (
              let e = splittable out inst in
              match algo with
              | Approx ->
                  let sched, stats = Ccs.Approx.Splittable.solve inst in
                  emit e ~quiet sched (approx e stats.Ccs.Approx.Splittable.t_guess)
              | Ptas ->
                  let sched, stats = Ccs.Ptas.Splittable_ptas.solve param inst in
                  emit e ~quiet sched (ptas e stats.Ccs.Ptas.Splittable_ptas.t_accepted)
              | Exact -> (
                  match Ccs_exact.Splittable_opt.solve_schedule inst with
                  | Some (opt, sched) -> emit e ~quiet sched (optimum e (Q.to_string opt))
                  | None -> no_optimum ()))
          | Preemptive -> (
              let e = preemptive out inst ~compress in
              match algo with
              | Approx ->
                  let sched, stats = Ccs.Approx.Preemptive.solve inst in
                  emit e ~quiet sched (approx e stats.Ccs.Approx.Preemptive.t_guess)
              | Ptas ->
                  let sched, stats = Ccs.Ptas.Preemptive_ptas.solve param inst in
                  emit e ~quiet sched (ptas e stats.Ccs.Ptas.Preemptive_ptas.t_accepted)
              | Exact -> (
                  match Ccs_exact.Preemptive_opt.solve inst with
                  | Some (opt, sched) -> emit e ~quiet sched (optimum e (Q.to_string opt))
                  | None -> no_optimum ()))
          | Nonpreemptive -> (
              let e = nonpreemptive out inst ~compress in
              match algo with
              | Approx ->
                  let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
                  emit e ~quiet sched (fun mk ->
                      Printf.bprintf out.buf "%s 7/3-approx: makespan %s (guess T=%d, <= 7/3 T)\n"
                        e.name (Q.to_string mk) stats.Ccs.Approx.Nonpreemptive.t_guess)
              | Ptas ->
                  let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve param inst in
                  emit e ~quiet sched (ptas e stats.Ccs.Ptas.Nonpreemptive_ptas.t_accepted)
              | Exact ->
                  (* Out of budget, the search still surfaces its incumbent
                     and the proven bound, as the anytime Degraded outcome
                     does, instead of dropping them. *)
                  let out_of_budget incumbent lb _ =
                    Printf.bprintf out.buf
                      "exact search out of budget: incumbent %d, proven lower bound %d\n"
                      incumbent lb
                  in
                  let module P = Ccs_exact.Portfolio in
                  let module B = Ccs_exact.Bnb in
                  if portfolio then
                    match P.solve ?node_limit inst with
                    | Some o when o.P.proved ->
                        emit e ~quiet o.P.assignment
                          (optimum e
                             (Printf.sprintf "%d (portfolio winner: %s)" o.P.makespan o.P.winner))
                    | Some o ->
                        emit e ~quiet o.P.assignment (out_of_budget o.P.makespan o.P.lower_bound)
                    | None -> Printf.bprintf out.buf "instance is not schedulable\n"
                  else
                    match B.solve_result ?node_limit inst with
                    | Some { B.status = Complete; makespan; assignment; _ } ->
                        emit e ~quiet assignment (optimum e (string_of_int makespan))
                    | Some r ->
                        emit e ~quiet r.B.assignment (out_of_budget r.B.makespan r.B.lower_bound)
                    | None -> Printf.bprintf out.buf "instance is not schedulable\n")
        end;
        0
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
  else
    match Ccs.Ptas.Common.param_of_epsilon epsilon with
    | None ->
        Printf.eprintf "error: --epsilon must be > 0 with ceil(1/epsilon) <= max_int\n";
        2
    | Some param ->
        (* An idle worker domain still joins every stop-the-world minor GC, so
           the pool never outnumbers the files it can work on. *)
        Ccs_par.set_jobs (min jobs (List.length files));
        let many = List.length files > 1 in
        let turn = Atomic.make 0 and code = ref 0 in
        Ccs_par.parallel_emit
          (fun index file ->
            let out = { buf = Buffer.create 256; index; turn } and err = Buffer.create 64 in
            if many then Printf.bprintf out.buf "=== %s ===\n" file;
            let code =
              solve_one ~out ~err file variant algo param quiet ~deadline_ms ~anytime
                ~compress ~portfolio ~node_limit
            in
            (out.buf, err, code))
          ~emit:(fun index (out, err, c) ->
            Ccs_obs.Recorder.phase "emit" @@ fun () ->
            Buffer.output_buffer stdout out;
            Buffer.output_buffer stderr err;
            (* a batch exits with its highest code, except that a failed
               validation (3, a solver bug) is never hidden behind a 4 *)
            code := if !code = 3 || c = 3 then 3 else max !code c;
            Atomic.set turn (index + 1))
          (Array.of_list files);
        !code

let cmd =
  let files =
    (* plain strings: an unreadable file is the loader's error (exit 1),
       reported in its place in a batch *)
    Arg.(non_empty & pos_all string [] & info [] ~docv:"INSTANCE"
           ~doc:"Instance file(s) (ccs_gen format); several files form a batch.")
  in
  let variant =
    Arg.(value & opt (enum variants) Nonpreemptive
           & info [ "variant" ] ~doc:"splittable, preemptive or nonpreemptive (split, pre or np).")
  in
  let algo = Arg.(value & opt (enum algos) Approx & info [ "algo" ] ~doc:"approx, ptas or exact.") in
  let epsilon = Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"PTAS accuracy (delta = 1/ceil(1/epsilon)), greater than 0.") in
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
         ~doc:"on a bad option value: $(b,--jobs) below 1, an $(b,--epsilon) that \
               maps to no accuracy (NaN, 0 or less, or ceil(1/epsilon) above \
               max_int), or a $(b,--trace-out), $(b,--record) or $(b,--metrics-out) \
               file that cannot be written."
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
