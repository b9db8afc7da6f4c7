(* Trend-report renderer: turns the bench artifacts (BENCH_timing.json,
   BENCH_baseline.json) and flight-recorder JSONL files into one markdown
   report — per-algo walls and counters, gap-convergence summaries per
   recording, per-phase GC/work attribution, and (with --check) the bench
   regression gate re-run against the baseline with its calibrated
   thresholds (shared with bench/check_regression via the Gate module).
   Exit code 1 when --check finds a regression, so CI can gate on it. *)

open Cmdliner
module J = Ccs_obs.Jsonx

let buf = Buffer.create 4096
let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt

let pct = function
  | Some d when Float.is_finite d -> Printf.sprintf "%+.1f%%" (100.0 *. d)
  | Some _ -> "+inf"
  | None -> "-"

let ms w = Printf.sprintf "%.3f ms" (1e3 *. w)

(* ---------------- BENCH_timing.json ---------------- *)

let render_timing path =
  match J.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e ->
      out "## Bench timing";
      out "";
      out "could not parse `%s`: %s" path e
  | Ok json ->
      out "## Bench timing (`%s`)" path;
      out "";
      (match J.member "rows" json with
      | Some (J.List rows) ->
          out "| variant | algo | n | wall | lp pivots | ilp nodes | ptas guesses |";
          out "|---|---|---:|---:|---:|---:|---:|";
          List.iter
            (fun row ->
              let str k = match J.member k row with Some (J.Str s) -> s | _ -> "?" in
              let int k = match J.member k row with Some (J.Int i) -> string_of_int i | _ -> "-" in
              let counter k =
                match Option.bind (J.member "counters" row) (J.member k) with
                | Some (J.Int i) -> string_of_int i
                | _ -> "-"
              in
              let wall =
                match J.member "wall_s" row with
                | Some (J.Float w) -> ms w
                | Some (J.Int w) -> ms (float_of_int w)
                | _ -> "-"
              in
              out "| %s | %s | %s | %s | %s | %s | %s |" (str "variant") (str "algo")
                (int "n") wall (counter "lp.pivots") (counter "ilp.nodes")
                (counter "ptas.guesses"))
            rows
      | _ -> out "no `rows` array found.");
      (match J.member "resil_sweep" json with
      | Some r ->
          let f k = match J.member k r with Some (J.Float x) -> x | Some (J.Int i) -> float_of_int i | _ -> nan in
          out "";
          out
            "Resilience sweep: %.0f runs at a %.0f ms deadline, %.0f degraded, %.0f \
             invalid outcomes; overshoot p50/p99/max = %.2f/%.2f/%.2f ms."
            (f "runs") (f "deadline_ms") (f "degraded") (f "invalid_outcomes")
            (f "overshoot_ms_p50") (f "overshoot_ms_p99") (f "overshoot_ms_max")
      | None -> ());
      (match J.member "xl_sweep" json with
      | Some xl ->
          let f j k =
            match J.member k j with
            | Some (J.Float x) -> x
            | Some (J.Int i) -> float_of_int i
            | _ -> nan
          in
          out "";
          out
            "### XL tier (n=%.0f, m=%.0f, C=%.0f)" (f xl "n") (f xl "machines")
            (f xl "classes");
          out "";
          out
            "Instance: %.0f MB off-heap; peak heap %.0f Mwords. Generate %.2fM \
             jobs/s; parse %.2fM jobs/s (streaming text), %.2fM jobs/s (ccsb1 \
             binary)."
            (f xl "flat_mem_bytes" /. 1e6)
            (f xl "peak_heap_words" /. 1e6)
            (f xl "gen_jobs_per_s" /. 1e6)
            (f xl "parse_text_jobs_per_s" /. 1e6)
            (f xl "parse_bin_jobs_per_s" /. 1e6);
          (match J.member "solves" xl with
          | Some (J.List solves) ->
              out "";
              out "| variant (2-approx) | wall | jobs/s | valid |";
              out "|---|---:|---:|---|";
              List.iter
                (fun s ->
                  let name =
                    match J.member "variant" s with Some (J.Str v) -> v | _ -> "?"
                  in
                  let valid =
                    match J.member "valid" s with
                    | Some (J.Bool true) -> "yes"
                    | Some (J.Bool false) -> "**NO**"
                    | _ -> "-"
                  in
                  out "| %s | %s | %.2fM | %s |" name (ms (f s "wall_s"))
                    (f s "jobs_per_s" /. 1e6) valid)
                solves
          | _ -> ())
      | None -> ());
      out ""

(* ---------------- recorder JSONL ---------------- *)

type phase_acc = {
  mutable n : int;
  mutable dur : float;
  mutable minor_w : float;
  mutable promoted_w : float;
  mutable major_w : float;
  mutable minor_c : int;
  mutable major_c : int;
  counters : (string, int) Hashtbl.t;
}

let gc_keys =
  [ "gc_minor_words"; "gc_promoted_words"; "gc_major_words";
    "gc_minor_collections"; "gc_major_collections" ]

let meta_keys = [ "t_s"; "ev"; "phase"; "id"; "dom"; "dur_s"; "raised" ] @ gc_keys

let render_recording path =
  let lines =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  out "## Recording (`%s`)" path;
  out "";
  let parsed = List.filter_map (fun l -> Result.to_option (J.of_string l)) lines in
  if List.length parsed <> List.length lines then
    out "warning: %d of %d lines failed to parse."
      (List.length lines - List.length parsed)
      (List.length lines);
  (match parsed with
  | meta :: _ when J.member "format" meta = Some (J.Str "ccs-recorder") ->
      let i k = match J.member k meta with Some (J.Int n) -> n | _ -> 0 in
      out "%d events buffered, %d dropped by the ring." (i "events") (i "dropped")
  | _ -> out "warning: missing `ccs-recorder` meta header.");
  let events = List.filter (fun j -> J.member "format" j = None) parsed in
  let fnum j = match j with J.Float f -> Some f | J.Int n -> Some (float_of_int n) | _ -> None in
  (* gap convergence, grouped by event source *)
  let srcs = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      match (J.member "ev" ev, J.member "src" ev) with
      | Some (J.Str kind), Some (J.Str src)
        when kind = "incumbent" || kind = "lower_bound" -> (
          let v = Option.bind (J.member "value" ev) fnum in
          match v with
          | None -> ()
          | Some v ->
              let ub0, ub1, lb1, cnt =
                Option.value ~default:(None, None, None, 0) (Hashtbl.find_opt srcs src)
              in
              let upd =
                if kind = "incumbent" then
                  ((if ub0 = None then Some v else ub0), Some v, lb1, cnt + 1)
                else (ub0, ub1, Some v, cnt + 1)
              in
              Hashtbl.replace srcs src upd)
      | _ -> ())
    events;
  if Hashtbl.length srcs > 0 then begin
    out "";
    out "### Gap convergence";
    out "";
    out "| src | events | first incumbent | final incumbent | final lower bound | final gap |";
    out "|---|---:|---:|---:|---:|---:|";
    Hashtbl.fold (fun src acc l -> (src, acc) :: l) srcs []
    |> List.sort compare
    |> List.iter (fun (src, (ub0, ub1, lb1, cnt)) ->
           let f = function Some v -> Printf.sprintf "%g" v | None -> "-" in
           let gap =
             match (ub1, lb1) with
             | Some u, Some l when l > 0.0 -> Printf.sprintf "%.4f" ((u -. l) /. l)
             | _ -> "-"
           in
           out "| %s | %d | %s | %s | %s | %s |" src cnt (f ub0) (f ub1) (f lb1) gap)
  end;
  (* per-phase attribution from phase_end events *)
  let phases = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match (J.member "ev" ev, J.member "phase" ev) with
      | Some (J.Str "phase_end"), Some (J.Str name) ->
          let acc =
            match Hashtbl.find_opt phases name with
            | Some a -> a
            | None ->
                let a =
                  { n = 0; dur = 0.0; minor_w = 0.0; promoted_w = 0.0;
                    major_w = 0.0; minor_c = 0; major_c = 0;
                    counters = Hashtbl.create 8 }
                in
                Hashtbl.replace phases name a;
                a
          in
          acc.n <- acc.n + 1;
          (match Option.bind (J.member "dur_s" ev) fnum with
          | Some d -> acc.dur <- acc.dur +. d
          | None -> ());
          let gf k = Option.value ~default:0.0 (Option.bind (J.member k ev) fnum) in
          let gi k = match J.member k ev with Some (J.Int n) -> n | _ -> 0 in
          acc.minor_w <- acc.minor_w +. gf "gc_minor_words";
          acc.promoted_w <- acc.promoted_w +. gf "gc_promoted_words";
          acc.major_w <- acc.major_w +. gf "gc_major_words";
          acc.minor_c <- acc.minor_c + gi "gc_minor_collections";
          acc.major_c <- acc.major_c + gi "gc_major_collections";
          (match ev with
          | J.Obj kvs ->
              List.iter
                (fun (k, v) ->
                  match v with
                  | J.Int n when not (List.mem k meta_keys) ->
                      Hashtbl.replace acc.counters k
                        (n + Option.value ~default:0 (Hashtbl.find_opt acc.counters k))
                  | _ -> ())
                kvs
          | _ -> ())
      | _ -> ())
    events;
  if Hashtbl.length phases > 0 then begin
    out "";
    out "### Phase attribution (inclusive of nested phases)";
    out "";
    out "| phase | spans | total wall | GC minor words | promoted | major words | minor/major GCs | work counters |";
    out "|---|---:|---:|---:|---:|---:|---:|---|";
    Hashtbl.fold (fun name acc l -> (name, acc) :: l) phases []
    |> List.sort compare
    |> List.iter (fun (name, a) ->
           let work =
             Hashtbl.fold (fun k v l -> (k, v) :: l) a.counters []
             |> List.sort compare
             |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             |> String.concat ", "
           in
           out "| %s | %d | %s | %.0f | %.0f | %.0f | %d/%d | %s |" name a.n
             (ms a.dur) a.minor_w a.promoted_w a.major_w a.minor_c a.major_c
             (if work = "" then "-" else work))
  end;
  out ""

(* ---------------- regression gate (--check) ---------------- *)

let render_check baseline =
  out "## Regression gate vs `%s`" baseline;
  out "";
  match Gate.compare_to_baseline ~path:baseline () with
  | Error e ->
      out "gate skipped: %s" e;
      out "";
      0
  | Ok cmp ->
      out "Machine speed vs baseline: %.2fx (calibration %.4fs vs %.4fs); tolerance %.0f%%."
        cmp.Gate.scale cmp.Gate.calibration_s cmp.Gate.base_calibration_s
        (100.0 *. cmp.Gate.tol);
      out "";
      out "| phase | expected | current | delta | |";
      out "|---|---:|---:|---:|---|";
      List.iter
        (fun (r : Gate.wall_row) ->
          out "| %s | %s | %s | %s | %s |" r.name
            (match r.expected_s with Some e -> ms e | None -> "(new)")
            (ms r.current_s) (pct r.delta)
            (if r.regressed then "**REGRESSED**" else ""))
        cmp.Gate.wall_rows;
      List.iter
        (fun (r : Gate.counter_row) ->
          out "| %s | %s | %d | %s | %s |" r.cname
            (match r.expected with Some e -> string_of_int e | None -> "(new)")
            r.current (pct r.cdelta)
            (if r.cregressed then "**REGRESSED**" else ""))
        cmp.Gate.counter_rows;
      List.iter (fun n -> out "| %s | | | | (no longer measured) |" n) cmp.Gate.dropped_phases;
      out "";
      let regressed = Gate.regressions cmp in
      if regressed = [] then begin
        out "No phase regressed beyond tolerance.";
        out "";
        0
      end
      else begin
        out "**FAIL**: regressed: %s." (String.concat ", " regressed);
        out "";
        1
      end

(* ---------------- driver ---------------- *)

let run timing baseline records output check =
  out "# ccs trend report";
  out "";
  (match timing with
  | Some path when Sys.file_exists path -> render_timing path
  | Some path -> out "`%s` not found; timing section skipped.\n" path
  | None -> ());
  List.iter
    (fun path ->
      if Sys.file_exists path then render_recording path
      else out "`%s` not found; recording section skipped.\n" path)
    records;
  let code = if check then render_check baseline else 0 in
  (match output with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
      Printf.printf "wrote %s\n" path
  | None -> print_string (Buffer.contents buf));
  code

let cmd =
  let timing =
    Arg.(value & opt (some string) (Some "BENCH_timing.json")
           & info [ "timing" ] ~docv:"FILE" ~doc:"Bench timing JSON to summarize.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_baseline.json"
           & info [ "baseline" ] ~docv:"FILE"
               ~doc:"Regression-gate baseline (used by $(b,--check)).")
  in
  let records =
    Arg.(value & opt_all string []
           & info [ "record" ] ~docv:"FILE"
               ~doc:"Flight-recorder JSONL file(s) to summarize; repeatable.")
  in
  let output =
    Arg.(value & opt (some string) None
           & info [ "o"; "output" ] ~docv:"FILE"
               ~doc:"Write the markdown report to $(docv) instead of stdout.")
  in
  let check =
    Arg.(value & flag
           & info [ "check" ]
               ~doc:"Re-run the bench regression gate against $(b,--baseline) (same \
                     calibrated thresholds as bench/check_regression) and exit 1 on \
                     regression.")
  in
  let info =
    Cmd.info "ccs_report" ~doc:"Render markdown trend reports from bench and recorder artifacts"
  in
  Cmd.v info Term.(const run $ timing $ baseline $ records $ output $ check)

let () = exit (Cmd.eval' cmd)
