(* XL — million-job throughput tier (n = 10^6, m = 10^5).

   The paper's 2-approximations are near-linear; this experiment checks the
   implementation actually is, end to end: generate a 10^6-job instance,
   parse it back through both the streaming text tokenizer and the ccsb1
   binary reader, run the splittable / preemptive / non-preemptive
   2-approximations, and record instances/sec (jobs/sec) plus peak heap
   words in the "xl_sweep" section of BENCH_timing.json — the same numbers
   the bench-xl CI job gates via the shared Gate workloads. Schedules are
   validated (untimed). *)

module U = Bench_util
module J = Ccs_obs.Jsonx
module T = Ccs_util.Tables

let n_jobs = Gate.xl_spec.Ccs.Generator.n

let jobs_per_s wall = if wall > 0.0 then float_of_int n_jobs /. wall else 0.0

let xl () =
  U.header "XL — million-job streaming + 2-approx throughput";
  let inst, gen_s = U.time (fun () -> Ccs.Generator.generate ~seed:(9 * 7919) Gate.xl_spec) in
  let text = Ccs.Io.to_string inst in
  let parsed_text, parse_text_s =
    U.time (fun () ->
        match Ccs.Io.of_string text with
        | Ok f -> f
        | Error e -> failwith ("xl: text parse failed: " ^ e))
  in
  let bin_path = Filename.temp_file "ccs_xl" ".ccsb" in
  Ccs.Io.save_flat bin_path inst;
  let parsed_bin, parse_bin_s =
    U.time (fun () ->
        match Ccs.Io.load bin_path with
        | Ok f -> f
        | Error e -> failwith ("xl: binary parse failed: " ^ e))
  in
  Sys.remove bin_path;
  (* both parses must reproduce the generated instance exactly *)
  let same g =
    Ccs.Instance.n g = Ccs.Instance.n inst
    && Ccs.Instance.m g = Ccs.Instance.m inst
    && Ccs.Instance.c g = Ccs.Instance.c inst
    &&
    let ok = ref true in
    for i = 0 to Ccs.Instance.n inst - 1 do
      if
        Ccs.Instance.job_p g i <> Ccs.Instance.job_p inst i
        || Ccs.Instance.job_cls g i <> Ccs.Instance.job_cls inst i
      then ok := false
    done;
    !ok
  in
  if not (same parsed_text && same parsed_bin) then failwith "xl: parse mismatch";
  let solve_row name solve validate =
    let (sched, _), wall, counters = U.time_observed (fun () -> solve inst) in
    let valid = Result.is_ok (validate inst sched) in
    if not valid then failwith ("xl: invalid " ^ name ^ " schedule");
    ( (name, wall),
      J.Obj
        [ ("variant", J.Str name);
          ("wall_s", J.Float (U.round9 wall));
          ("jobs_per_s", J.Float (U.round9 (jobs_per_s wall)));
          ("valid", J.Bool valid);
          ("counters", J.Obj counters) ] )
  in
  let rows =
    [ solve_row "splittable" Ccs.Approx.Splittable.solve
        Ccs.Schedule.validate_splittable;
      solve_row "preemptive" Ccs.Approx.Preemptive.solve
        Ccs.Schedule.validate_preemptive;
      solve_row "nonpreemptive" Ccs.Approx.Nonpreemptive.solve
        (fun i a -> Result.map ignore (Ccs.Schedule.validate_nonpreemptive i a)) ]
  in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let sweep =
    J.Obj
      [ ("n", J.Int n_jobs);
        ("machines", J.Int (Ccs.Instance.m inst));
        ("classes", J.Int (Ccs.Instance.num_classes inst));
        ("slots", J.Int (Ccs.Instance.c inst));
        ("flat_mem_bytes", J.Int (Ccs.Instance.mem_bytes inst));
        ("gen_s", J.Float (U.round9 gen_s));
        ("gen_jobs_per_s", J.Float (U.round9 (jobs_per_s gen_s)));
        ("parse_text_s", J.Float (U.round9 parse_text_s));
        ("parse_text_jobs_per_s", J.Float (U.round9 (jobs_per_s parse_text_s)));
        ("parse_bin_s", J.Float (U.round9 parse_bin_s));
        ("parse_bin_jobs_per_s", J.Float (U.round9 (jobs_per_s parse_bin_s)));
        ("peak_heap_words", J.Int peak_words);
        ("solves", J.List (List.map snd rows)) ]
  in
  (* merge into BENCH_timing.json without clobbering the E5 sections *)
  let path = "BENCH_timing.json" in
  let existing =
    if Sys.file_exists path then
      match J.of_string (In_channel.with_open_text path In_channel.input_all) with
      | Ok (J.Obj kvs) -> List.filter (fun (k, _) -> k <> "xl_sweep") kvs
      | _ -> []
    else []
  in
  U.write_json path (J.Obj (existing @ [ ("xl_sweep", sweep) ]));
  let table = T.create [ "phase"; "wall"; "jobs/s" ] in
  let add name wall =
    T.add_row table
      [ name; Printf.sprintf "%.3f s" wall;
        Printf.sprintf "%.2e" (jobs_per_s wall) ]
  in
  add "generate" gen_s;
  add "parse text (stream)" parse_text_s;
  add "parse binary (ccsb1)" parse_bin_s;
  List.iter (fun ((name, wall), _) -> add ("solve " ^ name) wall) rows;
  T.print table;
  U.footnote
    (Printf.sprintf
       "wrote %s xl_sweep (n=%d, m=%d, C=%d; instance %d MB off-heap, peak heap %d Mwords)"
       path n_jobs (Ccs.Instance.m inst)
       (Ccs.Instance.num_classes inst)
       (Ccs.Instance.mem_bytes inst / 1_000_000)
       (peak_words / 1_000_000))
