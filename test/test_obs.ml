(* Ccs_obs tests: recorder phases and their Chrome rendering, metrics
   registry semantics, and the Jsonx printer/parser pair. *)

module Metrics = Ccs_obs.Metrics
module Jsonx = Ccs_obs.Jsonx
module Recorder = Ccs_obs.Recorder

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------- metrics ---------- *)

let test_counters_and_reset () =
  let c = Metrics.counter "test.counter" in
  Metrics.reset ();
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "count" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "same handle on re-lookup" true
    (Metrics.counter "test.counter" == c);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes, handle survives" 0 (Metrics.counter_value c)

let test_kind_mismatch () =
  ignore (Metrics.counter "test.kind");
  Alcotest.check_raises "re-registering as histogram fails"
    (Invalid_argument "Metrics: \"test.kind\" is already a counter") (fun () ->
      ignore (Metrics.histogram "test.kind"))

let test_histogram_vs_stats () =
  let h = Metrics.histogram "test.histo" in
  Metrics.reset ();
  let samples = Array.init 101 (fun i -> float_of_int ((i * 37) mod 101)) in
  Array.iter (Metrics.observe h) samples;
  Alcotest.(check int) "count" 101 (Metrics.histogram_count h);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g matches Util.Stats" p)
        (Ccs_util.Stats.percentile samples p)
        (Metrics.histogram_percentile h p))
    [ 0.0; 50.0; 95.0; 100.0 ];
  Alcotest.(check (float 1e-9)) "mean" (Ccs_util.Stats.mean samples)
    (Metrics.histogram_mean h);
  Alcotest.(check (float 1e-9)) "max" (Ccs_util.Stats.maximum samples)
    (Metrics.histogram_max h)

let test_snapshot_active_only () =
  let c = Metrics.counter "test.active" in
  ignore (Metrics.counter "test.inactive");
  Metrics.reset ();
  Metrics.incr c;
  let names = List.map fst (Metrics.snapshot ()) in
  Alcotest.(check bool) "active included" true (List.mem "test.active" names);
  Alcotest.(check bool) "inactive excluded" false (List.mem "test.inactive" names);
  let all_names = List.map fst (Metrics.snapshot ~all:true ()) in
  Alcotest.(check bool) "all includes inactive" true (List.mem "test.inactive" all_names)

let test_name_convention () =
  let rejects name =
    match Metrics.counter name with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" name)
  in
  (* non-canonical unit aliases and malformed segments *)
  List.iter rejects
    [ "test.bad_us"; "test.bad_msec"; "test.bad_kb"; "test.bad_percent";
      "Test.upper"; "test..empty"; "9leading.digit"; "test.hy-phen"; "" ];
  (* canonical suffixes and dimensionless names register fine *)
  ignore (Metrics.counter "test.nameok.plain");
  ignore (Metrics.histogram "test.nameok.lat_ms");
  ignore (Metrics.counter "test.nameok.mem_words");
  ignore (Metrics.log_histogram "test.nameok.rung_s");
  (* find-or-create: a second lookup of an accepted name is not re-checked *)
  ignore (Metrics.counter "test.nameok.plain")

let test_log_histogram () =
  let h = Metrics.log_histogram "test.loghist_s" in
  Metrics.reset ();
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.log_histogram_quantile h 50.0));
  Alcotest.(check bool) "empty max is nan" true
    (Float.is_nan (Metrics.log_histogram_max h));
  List.iter (Metrics.observe_log h) [ 0.003; 0.004; 2.0; 100.0 ];
  Alcotest.(check int) "count" 4 (Metrics.log_histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 102.007 (Metrics.log_histogram_sum h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.log_histogram_max h);
  (* 0.003 and 0.004 both land in the (0.0025, 0.005] bucket, so the p50
     upper estimate is that bucket's bound *)
  Alcotest.(check (float 1e-9)) "p50 is a bucket bound" 0.005
    (Metrics.log_histogram_quantile h 50.0);
  Alcotest.(check (float 1e-9)) "p100 clamps to observed max" 100.0
    (Metrics.log_histogram_quantile h 100.0);
  let b = Metrics.log_bounds in
  Alcotest.(check int) "3 bounds per decade over 13 decades" 39 (Array.length b);
  Alcotest.(check bool) "bounds positive and strictly increasing" true
    (Array.for_all (fun x -> x > 0.0) b
    && Array.for_all Fun.id
         (Array.init (Array.length b - 1) (fun i -> b.(i) < b.(i + 1))))

(* Line-level OpenMetrics validator: every line of the exposition must be a
   well-formed comment ([# TYPE|UNIT|HELP name ...]), a sample whose family
   was declared above it, or the final [# EOF]. *)
let test_openmetrics_lines () =
  let c = Metrics.counter ~help:"Validator fodder" "test.om.reqs" in
  let r = Metrics.histogram "test.om.load_ratio" in
  let h = Metrics.histogram "test.om.lat_s" in
  let lh = Metrics.log_histogram "test.om.rung_s" in
  Metrics.reset ();
  Metrics.add c 3;
  Metrics.observe r 0.5;
  List.iter (Metrics.observe h) [ 0.001; 0.02; 3.0 ];
  List.iter (Metrics.observe_log lh) [ 0.004; 7.0 ];
  let text = Metrics.to_openmetrics () in
  Alcotest.(check bool) "terminated by # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> List.rev rest
    | _ -> Alcotest.fail "missing trailing newline"
  in
  let n_lines = List.length lines in
  let name_ok n =
    String.length n > 4
    && String.sub n 0 4 = "ccs_"
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         n
  in
  let families = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      let fail reason =
        Alcotest.fail (Printf.sprintf "line %d %S: %s" (i + 1) line reason)
      in
      if line = "" then fail "blank line"
      else if line = "# EOF" then begin
        if i <> n_lines - 1 then fail "EOF before last line"
      end
      else if line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: kw :: n :: rest -> (
            if not (name_ok n) then fail "bad family name";
            match kw with
            | "TYPE" ->
                if not (rest = [ "counter" ] || rest = [ "histogram" ])
                then fail "bad TYPE";
                Hashtbl.replace families n ()
            | "UNIT" ->
                if
                  not
                    (match rest with
                    | [ u ] -> List.mem u [ "s"; "ms"; "words"; "bytes"; "ratio" ]
                    | _ -> false)
                then fail "non-canonical UNIT"
            | "HELP" -> if rest = [] then fail "empty HELP"
            | _ -> fail "unknown comment keyword")
        | _ -> fail "malformed comment"
      end
      else begin
        match String.index_opt line ' ' with
        | None -> fail "sample without value"
        | Some sp -> (
            let lhs = String.sub line 0 sp
            and value = String.sub line (sp + 1) (String.length line - sp - 1) in
            (match float_of_string_opt value with
            | Some v when Float.is_finite v && v >= 0.0 -> ()
            | _ -> fail "value is not a non-negative finite number");
            let base =
              match String.index_opt lhs '{' with
              | None -> lhs
              | Some b ->
                  if lhs.[String.length lhs - 1] <> '}' then fail "unclosed label set";
                  let labels = String.sub lhs (b + 1) (String.length lhs - b - 2) in
                  if
                    not
                      (String.length labels > 5
                      && String.sub labels 0 4 = "le=\""
                      && labels.[String.length labels - 1] = '"')
                  then fail "only a le=\"...\" label is expected";
                  String.sub lhs 0 b
            in
            if not (name_ok base) then fail "bad sample name";
            let candidates =
              base
              :: List.filter_map
                   (fun suf ->
                     let ls = String.length suf and lb = String.length base in
                     if lb > ls && String.sub base (lb - ls) ls = suf then
                       Some (String.sub base 0 (lb - ls))
                     else None)
                   [ "_total"; "_bucket"; "_count"; "_sum" ]
            in
            if not (List.exists (Hashtbl.mem families) candidates) then
              fail "sample before (or without) its # TYPE line")
      end)
    lines;
  (* spot checks on the families we populated above *)
  let has needle = contains ~needle text in
  Alcotest.(check bool) "counter sampled as _total" true
    (has "ccs_test_om_reqs_total 3\n");
  Alcotest.(check bool) "help line" true
    (has "# HELP ccs_test_om_reqs Validator fodder\n");
  Alcotest.(check bool) "unit line from _s suffix" true
    (has "# UNIT ccs_test_om_lat_s s\n");
  Alcotest.(check bool) "ratio unit line" true
    (has "# UNIT ccs_test_om_load_ratio ratio\n");
  let bucket_counts =
    List.filter_map
      (fun line ->
        let pre = "ccs_test_om_lat_s_bucket{le=\"" in
        if
          String.length line > String.length pre
          && String.sub line 0 (String.length pre) = pre
        then
          match String.index_opt line ' ' with
          | Some sp ->
              int_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check int) "one bucket per bound plus +Inf"
    (Array.length Metrics.log_bounds + 1)
    (List.length bucket_counts);
  let rec nondec = function
    | a :: (b :: _ as t) -> a <= b && nondec t
    | _ -> true
  in
  Alcotest.(check bool) "buckets are cumulative" true (nondec bucket_counts);
  Alcotest.(check int) "+Inf bucket equals count" 3
    (List.nth bucket_counts (List.length bucket_counts - 1));
  Alcotest.(check bool) "_count sample" true (has "ccs_test_om_lat_s_count 3\n");
  Alcotest.(check bool) "_sum sample" true (has "ccs_test_om_lat_s_sum 3.021\n")

(* ---------- recorder ---------- *)

let test_recorder_off () =
  Alcotest.(check bool) "inactive by default" false (Recorder.active ());
  Recorder.emit "noise" [];
  Alcotest.(check int) "phase is passthrough" 9
    (Recorder.phase ~fields:[ ("n", Jsonx.Int 3) ] "x" (fun () -> 9));
  Alcotest.(check int) "no depth tracked when off" 0 (Recorder.phase "x" Recorder.open_depth);
  Alcotest.(check int) "nothing buffered when off" 0
    (List.length (Recorder.events ()));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Recorder.start: capacity must be positive") (fun () ->
      Recorder.start ~capacity:0 ())

let phase_name e =
  match List.assoc_opt "phase" e.Recorder.fields with Some (Jsonx.Str s) -> s | _ -> "?"

let test_recorder_phase_pairing () =
  Recorder.start ();
  Fun.protect ~finally:Recorder.stop (fun () ->
      let r =
        Recorder.phase ~fields:[ ("n", Jsonx.Int 3) ] "outer" (fun () ->
            Recorder.phase "inner" (fun () -> 3 + Recorder.open_depth ()))
      in
      Alcotest.(check int) "value, with depth 2 while nested" 5 r;
      (try Recorder.phase "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "depth back to 0 after a raise" 0 (Recorder.open_depth ());
      let evs = Recorder.events () in
      Alcotest.(check (list (pair string string))) "nesting is LIFO"
        [ ("phase_start", "outer"); ("phase_start", "inner"); ("phase_end", "inner");
          ("phase_end", "outer"); ("phase_start", "boom"); ("phase_end", "boom") ]
        (List.map (fun e -> (e.Recorder.kind, phase_name e)) evs);
      let by_kind k = List.filter (fun e -> e.Recorder.kind = k) evs in
      let starts = by_kind "phase_start" and ends = by_kind "phase_end" in
      let outer k = List.find (fun e -> phase_name e = "outer") (by_kind k) in
      Alcotest.(check bool) "fields on phase_start" true
        (List.assoc_opt "n" (outer "phase_start").Recorder.fields = Some (Jsonx.Int 3));
      Alcotest.(check bool) "no fields on phase_end" true
        (List.assoc_opt "n" (outer "phase_end").Recorder.fields = None);
      let id e =
        match List.assoc_opt "id" e.Recorder.fields with
        | Some (Jsonx.Int i) -> i
        | _ -> Alcotest.fail "phase event without id"
      in
      Alcotest.(check (list int)) "ends pair starts by id"
        (List.sort compare (List.map id starts))
        (List.sort compare (List.map id ends));
      List.iter
        (fun e ->
          match List.assoc_opt "dur_s" e.Recorder.fields with
          | Some (Jsonx.Float d) ->
              Alcotest.(check bool) "duration non-negative" true (d >= 0.0)
          | _ -> Alcotest.fail "phase_end without dur_s")
        ends;
      let boom = List.find (fun e -> phase_name e = "boom") ends in
      Alcotest.(check bool) "raise is flagged" true
        (List.assoc_opt "raised" boom.Recorder.fields = Some (Jsonx.Bool true));
      let rec mono = function
        | a :: (b :: _ as t) -> a.Recorder.t_s <= b.Recorder.t_s && mono t
        | _ -> true
      in
      Alcotest.(check bool) "timestamps monotone" true (mono evs))

let test_recorder_ring_drop () =
  Recorder.start ~capacity:4 ();
  Fun.protect ~finally:Recorder.stop (fun () ->
      for i = 0 to 9 do
        Recorder.emit "tick" [ ("i", Jsonx.Int i) ]
      done;
      Alcotest.(check int) "dropped count" 6 (Recorder.dropped ());
      let evs = Recorder.events () in
      let idx e =
        match List.assoc_opt "i" e.Recorder.fields with
        | Some (Jsonx.Int i) -> i
        | _ -> -1
      in
      Alcotest.(check (list int)) "newest retained, oldest first" [ 6; 7; 8; 9 ]
        (List.map idx evs);
      let first_line = List.hd (String.split_on_char '\n' (Recorder.to_jsonl ())) in
      match Jsonx.of_string first_line with
      | Error e -> Alcotest.fail ("meta line does not parse: " ^ e)
      | Ok j ->
          Alcotest.(check bool) "meta header" true
            (Jsonx.member "ev" j = Some (Jsonx.Str "meta")
            && Jsonx.member "format" j = Some (Jsonx.Str "ccs-recorder"));
          Alcotest.(check bool) "meta reports events and drops" true
            (Jsonx.member "events" j = Some (Jsonx.Int 4)
            && Jsonx.member "dropped" j = Some (Jsonx.Int 6)))

let test_recorder_chrome_trace () =
  Recorder.start ~capacity:4 ();
  Fun.protect ~finally:Recorder.stop (fun () ->
      let trace () =
        match Recorder.to_chrome_json () with
        | Jsonx.List evs -> evs
        | _ -> Alcotest.fail "chrome trace must be a flat list"
      in
      let names evs = List.map (Jsonx.member "name") evs in
      Recorder.phase ~fields:[ ("k", Jsonx.Int 1) ] "a" (fun () -> Recorder.phase "b" ignore);
      let evs = trace () in
      Alcotest.(check bool) "one X event per pair, in start order" true
        (names evs = [ Some (Jsonx.Str "a"); Some (Jsonx.Str "b") ]);
      List.iter
        (fun e ->
          Alcotest.(check bool) "complete event on this domain" true
            (Jsonx.member "ph" e = Some (Jsonx.Str "X")
            && Jsonx.member "tid" e = Some (Jsonx.Int (Domain.self () :> int)));
          match (Jsonx.member "ts" e, Jsonx.member "dur" e) with
          | Some (Jsonx.Int ts), Some (Jsonx.Int dur) ->
              Alcotest.(check bool) "ts/dur non-negative" true (ts >= 0 && dur >= 0)
          | _ -> Alcotest.fail "ts/dur must be integral microseconds")
        evs;
      Alcotest.(check bool) "start fields under args" true
        (List.map (Jsonx.member "args") evs = [ Some (Jsonx.Obj [ ("k", Jsonx.Int 1) ]); None ]);
      (* one more pair evicts the starts of a and b from the 4-event ring *)
      Recorder.phase "c" ignore;
      Alcotest.(check bool) "a pair whose start was dropped is skipped" true
        (names (trace ()) = [ Some (Jsonx.Str "c") ]))

(* ---------- spans: Recorder.phase as the region primitive ---------- *)

let test_span_disabled_passthrough () =
  Alcotest.(check bool) "recorder off" false (Recorder.active ());
  let r = Recorder.phase "x" (fun () -> 7) in
  Alcotest.(check int) "value passes through" 7 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Recorder.events ()))

(* (start, duration) of each closed phase, keyed by name, from the event stream *)
let phase_spans evs =
  let dur_s name =
    let is_end e = e.Recorder.kind = "phase_end" && phase_name e = name in
    List.assoc_opt "dur_s" (List.find is_end evs).Recorder.fields
  in
  List.filter_map
    (fun e ->
      if e.Recorder.kind <> "phase_start" then None
      else
        let name = phase_name e in
        match dur_s name with
        | Some (Jsonx.Float d) -> Some (name, (e.Recorder.t_s, d))
        | _ -> Alcotest.fail ("phase_end without dur_s for " ^ name))
    evs

let test_span_nesting_and_timing () =
  Recorder.start ();
  Fun.protect ~finally:Recorder.stop (fun () ->
      let r =
        Recorder.phase "outer" ~fields:[ ("n", Jsonx.Int 3) ] (fun () ->
            ignore (Recorder.phase "inner1" (fun () -> Unix.sleepf 0.002; 1));
            ignore (Recorder.phase "inner2" (fun () -> 2));
            42)
      in
      Alcotest.(check int) "result" 42 r;
      let spans = phase_spans (Recorder.events ()) in
      Alcotest.(check (list string)) "three spans, parent first, children in order"
        [ "outer"; "inner1"; "inner2" ] (List.map fst spans);
      let start n = fst (List.assoc n spans) and dur n = snd (List.assoc n spans) in
      Alcotest.(check bool) "durations non-negative" true
        (List.for_all (fun (_, (_, d)) -> d >= 0.0) spans);
      Alcotest.(check bool) "inner1 took measurable time" true (dur "inner1" > 0.0);
      Alcotest.(check bool) "children start after parent" true
        (start "inner1" >= start "outer" && start "inner2" >= start "inner1");
      (* a phase's clock starts just before its phase_start is stamped; the
         slack absorbs that bookkeeping skew *)
      Alcotest.(check bool) "parent spans its children" true
        (dur "outer" >= start "inner2" +. dur "inner2" -. start "outer" -. 1e-6))

let test_span_records_on_raise () =
  Recorder.start ();
  Fun.protect ~finally:Recorder.stop (fun () ->
      Alcotest.check_raises "exception re-raised" (Failure "x") (fun () ->
          Recorder.phase "boom" (fun () -> failwith "x"));
      Alcotest.(check (list (pair string string))) "span recorded despite raise"
        [ ("phase_start", "boom"); ("phase_end", "boom") ]
        (List.map (fun e -> (e.Recorder.kind, phase_name e)) (Recorder.events ())))

(* ---------- jsonx ---------- *)

let test_jsonx_roundtrip () =
  let j =
    Jsonx.Obj
      [ ("s", Jsonx.Str "a\"b\\c\nd\t\xe2\x82\xac");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 1.25);
        ("b", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]) ]
  in
  match Jsonx.of_string (Jsonx.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)

let test_jsonx_unicode_escape () =
  match Jsonx.of_string {|{"s":"é😀"}|} with
  | Ok j -> (
      match Jsonx.member "s" j with
      | Some (Jsonx.Str s) ->
          Alcotest.(check string) "utf8 decoding" "\xc3\xa9\xf0\x9f\x98\x80" s
      | _ -> Alcotest.fail "missing s")
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_jsonx_rejects_garbage () =
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\":1}x" ]

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counters + reset" `Quick test_counters_and_reset;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram vs Util.Stats" `Quick test_histogram_vs_stats;
          Alcotest.test_case "snapshot active-only" `Quick test_snapshot_active_only;
          Alcotest.test_case "name convention" `Quick test_name_convention;
          Alcotest.test_case "log histogram" `Quick test_log_histogram;
          Alcotest.test_case "openmetrics line validator" `Quick test_openmetrics_lines ] );
      ( "recorder",
        [ Alcotest.test_case "off by default" `Quick test_recorder_off;
          Alcotest.test_case "phase pairing" `Quick test_recorder_phase_pairing;
          Alcotest.test_case "ring drop accounting" `Quick test_recorder_ring_drop;
          Alcotest.test_case "chrome trace shape" `Quick test_recorder_chrome_trace ] );
      ( "span",
        [ Alcotest.test_case "disabled passthrough" `Quick test_span_disabled_passthrough;
          Alcotest.test_case "nesting + timing" `Quick test_span_nesting_and_timing;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise ] );
      ( "jsonx",
        [ Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_jsonx_unicode_escape;
          Alcotest.test_case "rejects garbage" `Quick test_jsonx_rejects_garbage ] ) ]
