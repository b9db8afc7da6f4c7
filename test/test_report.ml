(* End-to-end flight-recorder tests: record real solver runs — the exact
   ladder (branch & bound incumbents), a PTAS-start ladder (ilp + lp phases
   under the rung), and an N-fold feasibility probe — then assert the JSONL
   stream a run of [ccs_solve --record] would write is well formed:

   - every line parses, the first is the meta header, timestamps are
     monotone non-decreasing;
   - phase_start/phase_end pairs balance by id and nest LIFO per domain;
   - the lp, ilp and nfold phases carry GC-delta attribution;
   - gap traces are non-increasing in the upper bound and non-decreasing
     in the lower bound within each (src, solve ordinal) group;
   - the Chrome rendering (--trace-out) of the same recording has one X
     event per phase_end, the PTAS layers included. *)

module Q = Rat
module Jsonx = Ccs_obs.Jsonx
module Recorder = Ccs_obs.Recorder
module Driver = Ccs_anytime.Driver

let param = Ccs.Ptas.Common.param 2

let inst =
  Ccs.Instance.make ~machines:3 ~slots:2
    [ (7, 0); (5, 1); (6, 2); (4, 3); (9, 0); (3, 1); (8, 2); (2, 3) ]

(* One recorded run, and its Chrome rendering, shared by every test below. *)
let recording =
  lazy
    (Recorder.start ();
     Fun.protect ~finally:Recorder.stop (fun () ->
         ignore (Driver.solve_nonpreemptive ~param inst);
         ignore (Driver.solve_nonpreemptive ~param ~start:Driver.Ptas inst);
         ignore
           (Ccs.Ptas.Nfold_form.feasible_splittable param inst
              (Ccs.Bounds.ub_splittable inst));
         (Recorder.to_jsonl (), Recorder.to_chrome_json ())))

let lines () =
  match List.rev (String.split_on_char '\n' (fst (Lazy.force recording))) with
  | "" :: rest -> List.rev rest
  | _ -> Alcotest.fail "recording does not end in a newline"

let parse line =
  match Jsonx.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.fail (Printf.sprintf "unparseable line %S: %s" line e)

(* Parsed event objects, meta header excluded. *)
let events () = List.tl (lines ()) |> List.map parse

let str k j =
  match Jsonx.member k j with Some (Jsonx.Str s) -> Some s | _ -> None

let num k j =
  match Jsonx.member k j with
  | Some (Jsonx.Float f) -> Some f
  | Some (Jsonx.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field k j =
  match Jsonx.member k j with Some (Jsonx.Int i) -> Some i | _ -> None

let kind j = Option.value ~default:"?" (str "ev" j)

let test_meta_and_parse () =
  let lines = lines () in
  Alcotest.(check bool) "no blank lines" true (List.for_all (( <> ) "") lines);
  let parsed = List.map parse lines in
  let meta = List.hd parsed in
  Alcotest.(check string) "meta first" "meta" (kind meta);
  (match str "format" meta with
  | Some "ccs-recorder" -> ()
  | _ -> Alcotest.fail "meta lacks format=ccs-recorder");
  Alcotest.(check (option int)) "meta event count matches body"
    (Some (List.length parsed - 1))
    (int_field "events" meta);
  Alcotest.(check (option int)) "nothing dropped on this small run" (Some 0)
    (int_field "dropped" meta);
  List.iteri
    (fun i j ->
      if i > 0 && str "ev" j = None then
        Alcotest.fail (Printf.sprintf "event %d lacks an ev kind" i))
    parsed

let test_timestamps_monotone () =
  let ts =
    List.map
      (fun j ->
        match num "t_s" j with
        | Some t -> t
        | None -> Alcotest.fail "event without t_s")
      (events ())
  in
  Alcotest.(check bool) "timestamps non-negative" true
    (List.for_all (fun t -> t >= 0.0) ts);
  let rec mono = function
    | a :: (b :: _ as t) -> a <= b && mono t
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone non-decreasing" true (mono ts)

let test_phase_balance () =
  let evs = events () in
  let starts = List.filter (fun j -> kind j = "phase_start") evs in
  let ends = List.filter (fun j -> kind j = "phase_end") evs in
  let id j =
    match int_field "id" j with
    | Some i -> i
    | None -> Alcotest.fail "phase event without id"
  in
  Alcotest.(check bool) "at least one phase recorded" true (starts <> []);
  Alcotest.(check (list int)) "ends pair starts by id"
    (List.sort compare (List.map id starts))
    (List.sort compare (List.map id ends));
  (* LIFO nesting per domain: an end must close the innermost open start *)
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun j ->
      match kind j with
      | "phase_start" | "phase_end" -> (
          let dom =
            match int_field "dom" j with
            | Some d -> d
            | None -> Alcotest.fail "phase event without dom"
          in
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks dom) in
          match kind j with
          | "phase_start" -> Hashtbl.replace stacks dom (id j :: stack)
          | _ -> (
              match stack with
              | top :: rest when top = id j -> Hashtbl.replace stacks dom rest
              | _ ->
                  Alcotest.fail
                    (Printf.sprintf "phase_end id=%d does not close dom %d's innermost span"
                       (id j) dom)))
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun dom stack ->
      if stack <> [] then
        Alcotest.fail (Printf.sprintf "dom %d left %d spans open" dom (List.length stack)))
    stacks;
  List.iter
    (fun j ->
      match num "dur_s" j with
      | Some d -> Alcotest.(check bool) "dur_s non-negative" true (d >= 0.0)
      | None -> Alcotest.fail "phase_end without dur_s")
    ends

(* The acceptance-critical attribution: lp, ilp and nfold phase_end events
   must be present and carry a GC allocation delta. *)
let test_gc_attribution () =
  let ends = List.filter (fun j -> kind j = "phase_end") (events ()) in
  let named n = List.filter (fun j -> str "phase" j = Some n) ends in
  List.iter
    (fun want ->
      match named want with
      | [] -> Alcotest.fail (Printf.sprintf "no %S phase recorded" want)
      | js ->
          Alcotest.(check bool)
            (Printf.sprintf "%s phase carries gc_minor_words" want)
            true
            (List.exists
               (fun j ->
                 match num "gc_minor_words" j with
                 | Some w -> w > 0.0
                 | None -> false)
               js))
    [ "lp"; "ilp"; "nfold" ];
  (* a solve in a --jobs batch allocates on a worker domain, whose
     allocations only reach [Gc.quick_stat] after its next minor GC — so
     for exact/ptas/rung phases we require presence, not a GC delta *)
  List.iter
    (fun want ->
      if named want = [] then
        Alcotest.fail (Printf.sprintf "no %S phase recorded" want))
    [ "exact"; "ptas"; "rung.exact"; "rung.ptas" ]

let test_gap_traces () =
  let conv =
    List.filter (fun j -> kind j = "incumbent" || kind j = "lower_bound") (events ())
  in
  Alcotest.(check bool) "at least two convergence events" true
    (List.length conv >= 2);
  let groups : (string * int, Jsonx.t list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match (str "src" j, int_field "solve" j, num "value" j) with
      | Some src, Some solve, Some _ ->
          let key = (src, solve) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (j :: prev)
      | _ -> Alcotest.fail "convergence event lacks src/solve/value")
    conv;
  let srcs = Hashtbl.fold (fun (src, _) _ acc -> src :: acc) groups [] in
  Alcotest.(check bool) "driver trace present" true (List.mem "driver" srcs);
  Alcotest.(check bool) "branch & bound trace present" true (List.mem "bnb" srcs);
  Hashtbl.iter
    (fun (src, solve) rev_events ->
      let evs = List.rev rev_events in
      let values k =
        List.filter_map
          (fun j -> if kind j = k then num "value" j else None)
          evs
      in
      let ubs = values "incumbent" and lbs = values "lower_bound" in
      let rec noninc = function
        | a :: (b :: _ as t) -> a >= b && noninc t
        | _ -> true
      in
      let rec nondec = function
        | a :: (b :: _ as t) -> a <= b && nondec t
        | _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d incumbents non-increasing" src solve)
        true (noninc ubs);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%d lower bounds non-decreasing" src solve)
        true (nondec lbs);
      match (List.rev ubs, List.rev lbs) with
      | final_ub :: _, final_lb :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d final gap non-negative" src solve)
            true
            (final_ub >= final_lb -. 1e-9)
      | _ -> ())
    groups

let test_chrome_rendering () =
  let trace =
    match snd (Lazy.force recording) with
    | Jsonx.List evs -> evs
    | _ -> Alcotest.fail "chrome trace must be a flat list"
  in
  let names = List.filter_map (str "name") trace in
  List.iter
    (fun want ->
      Alcotest.(check bool) (Printf.sprintf "%s event present" want) true (List.mem want names))
    [ "ptas"; "ptas.ilp"; "ilp"; "lp" ];
  Alcotest.(check int) "one X event per phase_end"
    (List.length (List.filter (fun j -> kind j = "phase_end") (events ())))
    (List.length trace)

let () =
  Alcotest.run "report"
    [ ( "recording",
        [ Alcotest.test_case "meta + every line parses" `Quick test_meta_and_parse;
          Alcotest.test_case "timestamps monotone" `Quick test_timestamps_monotone;
          Alcotest.test_case "phase pairs balance" `Quick test_phase_balance;
          Alcotest.test_case "gc attribution on lp/ilp/nfold" `Quick test_gc_attribution;
          Alcotest.test_case "gap traces monotone" `Quick test_gap_traces;
          Alcotest.test_case "chrome rendering" `Quick test_chrome_rendering ] ) ]
