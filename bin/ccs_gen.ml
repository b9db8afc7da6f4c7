(* Workload generator CLI: emits instances in the Ccs.Io text format. *)

open Cmdliner

let run n classes machines slots p_lo p_hi family seed output format obs =
  Obs_cli.with_reporting obs @@ fun () ->
  let spec = { Ccs.Generator.n; classes; machines; slots; p_lo; p_hi; family } in
  (* Both formats draw the same PRNG stream: a flat file holds exactly the
     instance the text file would, byte-exactly after renumbering. *)
  let inst =
    Ccs_obs.Recorder.phase "gen.generate"
      ~fields:Ccs_obs.Jsonx.[ ("n", Int n); ("seed", Int seed) ]
      (fun () -> Ccs.Generator.generate ~seed spec)
  in
  match format with
  | `Flat -> (
      match output with
      | None ->
          Printf.eprintf "error: --format flat is binary; -o FILE is required\n";
          2
      | Some path ->
          Ccs.Io.save_flat path inst;
          Printf.eprintf "wrote %s (n=%d, C=%d, flat binary)\n" path
            (Ccs.Instance.n inst)
            (Ccs.Instance.num_classes inst);
          0)
  | `Text ->
      let text = Ccs.Io.to_string inst in
      (match output with
      | None -> print_string text
      | Some path ->
          Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
          Printf.eprintf "wrote %s (n=%d, C=%d)\n" path (Ccs.Instance.n inst)
            (Ccs.Instance.num_classes inst));
      0

let cmd =
  let n = Arg.(value & opt int 40 & info [ "n"; "jobs" ] ~doc:"Number of jobs.") in
  let classes = Arg.(value & opt int 8 & info [ "C"; "classes" ] ~doc:"Number of classes.") in
  let machines = Arg.(value & opt int 5 & info [ "m"; "machines" ] ~doc:"Number of machines.") in
  let slots = Arg.(value & opt int 3 & info [ "c"; "slots" ] ~doc:"Class slots per machine.") in
  let p_lo = Arg.(value & opt int 1 & info [ "p-lo" ] ~doc:"Minimum processing time.") in
  let p_hi = Arg.(value & opt int 100 & info [ "p-hi" ] ~doc:"Maximum processing time.") in
  let family =
    Arg.(value & opt (enum Ccs.Generator.families) Ccs.Generator.Uniform
           & info [ "family" ]
               ~doc:("Workload family: " ^ doc_alts_enum Ccs.Generator.families ^ "."))
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file (stdout if absent).") in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("flat", `Flat) ]) `Text
           & info [ "format" ] ~docv:"FMT"
               ~doc:"Output format: $(b,text) (the ccs 1 line format) or $(b,flat) \
                     (binary ccsb1: int64 arrays, loads a million jobs in two bulk \
                     reads; requires $(b,-o)). Same seed, same instance, either way.")
  in
  let info = Cmd.info "ccs_gen" ~doc:"Generate Class Constrained Scheduling instances" in
  Cmd.v info Term.(const run $ n $ classes $ machines $ slots $ p_lo $ p_hi $ family $ seed $ output $ format $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
