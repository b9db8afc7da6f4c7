(* ccsbench: end-to-end benchmark of ccs_solve.

     ccsbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

   Builds each workload's input files from the seed, runs
   _build/default/bin/ccs_solve.exe on them and prints one line per metric,
   "workload metric value unit (n=samples)", then the result as one JSON
   object on the last line. --trace 0 runs the untraced loop (end-to-end
   metrics), --trace 1 the traced one (per-layer metrics); without --trace
   both run. Without --workload all four workloads run. Work files,
   metrics.json and the Chrome trace go to --out (default .ccsbench).

     ccsbench --compare A B

   compares two files of result lines against the bounds in
   BENCHMARK.json (see repeat.sh). *)

open E2e

let solver = "_build/default/bin/ccs_solve.exe"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write path json =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Ccs_obs.Jsonx.to_string json))

let bench ~workloads ~seed ~seconds ~trace ~out =
  Proc.start_launcher Sys.executable_name "--launcher";
  let modes = match trace with 0 -> [ false ] | 1 -> [ true ] | _ -> [ false; true ] in
  let reports =
    List.concat_map
      (fun traced ->
        List.map
          (fun (w : Workloads.t) ->
            let dir = Filename.concat out w.name in
            mkdir_p dir;
            let env = { Bench.solver; self = Sys.executable_name; dir; seconds } in
            let r = Bench.run env ~seed ~traced w in
            List.iter (fun m -> print_endline (Bench.line r m)) r.metrics;
            Printf.printf "%s failed %d of %d\n%!" w.name r.failed r.attempted;
            List.iteri (fun i e -> if i < 5 then prerr_endline ("ccsbench: " ^ e)) r.errors;
            r)
          workloads)
      modes
  in
  write (Filename.concat out "metrics.json") (Bench.metrics_json reports);
  if List.exists (fun r -> r.Bench.events <> []) reports then
    write (Filename.concat out "trace.json")
      (Ccs_obs.Jsonx.List (List.concat_map (fun r -> r.Bench.events) reports));
  let key r m =
    if List.length workloads = 1 then m.Bench.name else r.Bench.workload ^ "/" ^ m.Bench.name
  in
  print_endline (Ccs_obs.Jsonx.to_string (Bench.result_json ~key reports))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref (-1) in
  let out = ref ".ccsbench" and child = ref "" and trace_out = ref "" and files = ref [] in
  let compare = ref false and reference = ref false and launcher = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads (default: all)");
      ("--seed", Arg.Set_int seed, "N seed of the inputs (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring budget per workload and run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run (default: both)");
      ("--out", Arg.Set_string out, "DIR work directory (default .ccsbench)");
      ("--compare", Arg.Set compare, " compare the two files of result lines given");
      ("--traced-child", Arg.Set_string child, "CONFIG internal: one traced child");
      ("--trace-out", Arg.Set_string trace_out, "FILE internal: the traced child's output");
      ("--reference", Arg.Set reference, " internal: run the reference program");
      ("--launcher", Arg.Set launcher, " internal: spawn children on request") ]
    (fun f -> files := !files @ [ f ])
    "ccsbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";
  if !launcher then Proc.serve ()
  else if !reference then Bench.reference_work ()
  else if !child <> "" then Bench.traced_child (Solve.of_string !child) !files ~out:!trace_out
  else if !compare then begin
    match !files with
    | [ a; b ] -> Bench.compare ~bounds:"BENCHMARK.json" a b
    | _ ->
        prerr_endline "ccsbench: --compare takes two files";
        exit 2
  end
  else begin
    let workloads =
      if !workload = "" then Workloads.all
      else
        match Workloads.find !workload with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "ccsbench: unknown workload %S\n" !workload;
            exit 2
    in
    if not (Sys.file_exists solver) then begin
      Printf.eprintf "ccsbench: %s not found; build it with dune build bin/ccs_solve.exe\n" solver;
      exit 2
    end;
    bench ~workloads ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
  end
