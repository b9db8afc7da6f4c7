(* Tests of the ccsbench harness against the real ccs_solve.
   Usage: test_ccsbench.exe CCS_SOLVE CCSBENCH *)

open E2e
open Solve

let absolute f = if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f else f
let solver = absolute Sys.argv.(1)
let self = absolute Sys.argv.(2)

let dir =
  let d = "test_work" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let instance ?(family = Ccs.Generator.Uniform) ~seed n classes machines slots =
  Ccs.Generator.generate ~seed
    { Ccs.Generator.n; classes; machines; slots; p_lo = 1; p_hi = 100; family }

let save name inst =
  let file = Filename.concat dir name in
  Ccs.Io.save file inst;
  file

(* ccs_solve's stdout for [cfg] on [file] *)
let solve_output cfg file =
  let out = Filename.concat dir "solve.out" in
  let r = Proc.run ~timeout_s:30.0 ~stdout:out solver (cli_args cfg @ [ file ]) in
  Alcotest.(check bool) "ccs_solve exits 0" true (Proc.ok r);
  In_channel.with_open_bin out In_channel.input_all

let answer cfg text =
  match Check.blocks text with
  | [ lines ] -> (
      match Check.parse cfg.variant lines with
      | Ok a -> a
      | Error e -> Alcotest.failf "parse: %s" e)
  | _ -> Alcotest.fail "expected one answer"

let roundtrip () =
  let inst = instance ~seed:3 14 4 3 2 in
  let file = save "rt.ccs" inst in
  List.iter
    (fun cfg ->
      let a = answer cfg (solve_output cfg file) in
      match Check.check cfg inst a with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (to_string cfg) e)
    ([ Split; Pre; Np ]
     |> List.concat_map (fun variant ->
            [ { variant; algo = Approx; format = Text };
              { variant; algo = Approx; format = Flat };
              { variant; algo = Ptas 1.0; format = Text } ]))

let out_of_budget () =
  let inst = instance ~family:Bnb_stress ~seed:5 20 4 4 2 in
  let cfg = { variant = Np; algo = Exact 50; format = Text } in
  let a = answer cfg (solve_output cfg (save "budget.ccs" inst)) in
  Alcotest.(check bool) "search ran out of nodes" false (Check.complete a);
  Alcotest.(check (result unit string)) "certificate holds" (Ok ()) (Check.check cfg inst a)

(* Move every job onto machine 0: more classes than slots there. *)
let tampered () =
  let inst = instance ~seed:7 12 3 3 1 in
  let file = save "tamper.ccs" inst in
  let cfg = { variant = Np; algo = Approx; format = Text } in
  let text = solve_output cfg file in
  let lines = String.split_on_char '\n' text in
  let header, summary = (List.nth lines 0, List.nth lines 1) in
  let jobs = String.concat " " (List.init (Ccs.Instance.n inst) (Printf.sprintf "j%d")) in
  let first = Filename.concat dir "tampered.out" in
  Out_channel.with_open_bin first (fun oc ->
      Printf.fprintf oc "%s\n%s\nmachine 0 (load 0): %s\n" header summary jobs);
  let cell =
    { Bench.bi = 0; ci = 0; cfg; batch = [ { Workloads.file; inst; bytes = 0 } ]; first;
      digest = None;
      walls = [ 0.0 ]; rss_kb = 0; cpu_s = 0.0; bad_runs = 0; errors = [] }
  in
  match Bench.check_cell cell with
  | [ Error _ ] -> ()
  | _ -> Alcotest.fail "a schedule over the class-slot limit must fail"

let percentile () =
  let check n expected =
    Alcotest.(check (option int)) (string_of_int n) expected (Bench.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 500);
  check 99 (Some 500);
  check 100 (Some 900);
  check 999 (Some 900);
  check 1000 (Some 990);
  check 10_000 (Some 999)

(* Two small instances, one split and one np configuration, one pass. *)
let workload =
  { Workloads.name = "test";
    configs =
      [ { variant = Split; algo = Approx; format = Flat };
        { variant = Np; algo = Exact 1000; format = Text } ];
    build =
      (fun ~seed ~dir ->
        List.init 2 (fun i -> [ Workloads.save dir i (instance ~seed:(seed + i) 10 3 3 2) ])) }

let runner traced () =
  let env = { Bench.solver; self; dir; seconds = 0.0 } in
  let r = Bench.run env ~seed:1 ~traced workload in
  List.iter prerr_endline r.errors;
  Alcotest.(check int) "failed" 0 r.failed;
  let value name =
    match List.find_opt (fun m -> m.Bench.name = name) r.metrics with
    | Some { value = Some v; _ } -> v
    | _ -> Alcotest.failf "no metric %s" name
  in
  if not traced then begin
    (* 2 instances x 2 configurations, plus 30 start-up runs *)
    Alcotest.(check int) "attempted" 34 r.attempted;
    List.iter
      (fun name -> Alcotest.(check bool) name true (value name > 0.0))
      [ "setup_s"; "jobs_per_s"; "wall_p50_s"; "peak_rss_mb"; "quality_ratio"; "solved_ratio" ]
  end
  else begin
    Alcotest.(check (float 0.0)) "spans" 20.0 (value "trace.spans");
    let requests =
      List.filter
        (fun e -> Ccs_obs.Jsonx.member "name" e = Some (Ccs_obs.Jsonx.Str "request"))
        r.events
    in
    Alcotest.(check int) "one request span per instance and variant" 4 (List.length requests);
    Alcotest.(check bool) "solver busy" true (value "solve.busy_s" > 0.0)
  end

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "ccsbench"
    [ ( "check",
        [ Alcotest.test_case "parsers round-trip ccs_solve output" `Quick roundtrip;
          Alcotest.test_case "out-of-budget exact search" `Quick out_of_budget;
          Alcotest.test_case "tampered schedule fails" `Quick tampered ] );
      ("stats", [ Alcotest.test_case "tail percentile" `Quick percentile ]);
      ( "runner",
        [ Alcotest.test_case "untraced" `Quick (runner false);
          Alcotest.test_case "traced" `Quick (runner true) ] ) ]
