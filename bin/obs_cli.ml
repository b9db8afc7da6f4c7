(* Shared observability flags for the CLIs: --trace-out, --metrics,
   --metrics-out, --record and --progress, plus the end-of-run reporting
   they imply. *)

open Cmdliner

type t = {
  trace_out : string option;
  metrics : bool;
  metrics_out : string option;
  record_out : string option;
  progress : bool;
}

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Start the flight recorder and write its phases as a Chrome \
           trace-event JSON file.")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the metrics registry as a table after the run.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry in OpenMetrics (Prometheus) text format \
           after the run.")

let record_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Enable the solver flight recorder and write its event stream \
           (convergence updates, solver decisions, phase GC/work \
           attribution, checkpoint samples) to FILE as JSONL.")

let progress =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a progress ticker to stderr during long solves: current \
           phase, relative gap, and elapsed time against the deadline.")

let setup trace metrics metrics_out record progress =
  (* --trace-out renders the recorder's phases and the ticker rides on its
     event stream, so each of the three starts it (--progress alone never
     gets written out) *)
  if trace <> None || record <> None || progress then Ccs_obs.Recorder.start ();
  if progress then Ccs_obs.Recorder.set_progress true;
  { trace_out = trace; metrics; metrics_out; record_out = record; progress }

let term =
  Term.(
    const setup $ trace_out $ metrics $ metrics_out $ record_out $ progress)

(* Runs even when the solver raised: partial metrics, traces and recordings
   are exactly what one wants when diagnosing a failure. An output file that
   cannot be written is a bad option value: it is reported by name and the
   result is exit code 2, after every other output has been written. *)
let report t =
  let code = ref 0 in
  let write out save on_success =
    Option.iter
      (fun path ->
        match save path with
        | () -> on_success path
        | exception Sys_error e ->
            let prefix = path ^ ": " in
            let reason =
              if String.starts_with ~prefix e then
                String.sub e (String.length prefix) (String.length e - String.length prefix)
              else e
            in
            Printf.eprintf "error: cannot write %s: %s\n" path reason;
            code := 2)
      out
  in
  write t.trace_out Ccs_obs.Recorder.write_chrome_trace (Printf.eprintf "wrote trace to %s\n");
  write t.record_out Ccs_obs.Recorder.write_jsonl (fun path ->
      Printf.eprintf "wrote recording (%d events, %d dropped) to %s\n"
        (List.length (Ccs_obs.Recorder.events ()))
        (Ccs_obs.Recorder.dropped ())
        path);
  if t.metrics || t.metrics_out <> None then
    (* the cancellation layer batches its check count locally; fold the
       tail into the registry so no report under-reports it *)
    Ccs_resil.Deadline.flush_stats ();
  write t.metrics_out Ccs_obs.Metrics.write_openmetrics ignore;
  if t.metrics then print_endline (Ccs_obs.Metrics.dump_table ());
  !code

let with_reporting t f =
  match f () with
  | code -> max code (report t)
  | exception e ->
      ignore (report t);
      raise e
