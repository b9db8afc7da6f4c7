type counter = { mutable count : int }

type histogram = {
  mutable samples : float array;  (* filled prefix of length [len] *)
  mutable len : int;
}

(* Fixed log-spaced buckets (1 / 2.5 / 5 per decade, 1e-6 .. 5e6) shared by
   every log histogram and by the OpenMetrics exposition of raw-sample
   histograms: one bucket layout means panels over different metrics line
   up, and a bounded bucket array means a long-running service (ROADMAP
   item 3) never grows a latency histogram without bound. *)
let log_bounds =
  let bounds = ref [] in
  for e = -6 to 6 do
    List.iter
      (fun m -> bounds := float_of_string (Printf.sprintf "%se%d" m e) :: !bounds)
      [ "1"; "2.5"; "5" ]
  done;
  Array.of_list (List.sort compare !bounds)

type log_histogram = {
  lbuckets : int array;  (* per log_bounds entry, plus a final +Inf bucket *)
  mutable lsum : float;
  mutable lcount : int;
  mutable lmax : float;
}

type entry =
  | Counter of counter
  | Histogram of histogram
  | Log_histogram of log_histogram

type reg = { entry : entry; help : string option }

let registry : (string, reg) Hashtbl.t = Hashtbl.create 64

(* One registry-wide lock. Solver phases run concurrently on domains
   (Ccs_par), and every mutation — bumping a counter, growing a histogram,
   registering a metric — is tiny next to the work being measured, so a
   single mutex is both safe and cheap. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let kind_name = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"
  | Log_histogram _ -> "log_histogram"

(* ---------------- naming convention (DESIGN.md, "Metric naming") -------- *)

let canonical_units = [ "s"; "ms"; "words"; "bytes"; "ratio" ]

(* Common unit spellings we deliberately refuse, so there is exactly one
   way to name a latency or a byte count across the codebase. *)
let rejected_units =
  [ "ns"; "us"; "usec"; "usecs"; "micros"; "msec"; "msecs"; "millis";
    "sec"; "secs"; "seconds"; "mins"; "minutes"; "b"; "kb"; "mb"; "gb";
    "kib"; "mib"; "pct"; "percent" ]

let unit_of name =
  match String.rindex_opt name '_' with
  | None -> None
  | Some i ->
      let u = String.sub name (i + 1) (String.length name - i - 1) in
      if List.mem u canonical_units then Some u else None

let check_name name =
  let bad reason =
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S: %s" name reason)
  in
  let seg_ok seg =
    String.length seg > 0
    && (match seg.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         seg
  in
  let segs = String.split_on_char '.' name in
  if not (List.for_all seg_ok segs) then
    bad "segments must match [a-z][a-z0-9_]* joined by '.'";
  let tokens = String.split_on_char '_' name in
  let last_token = List.nth tokens (List.length tokens - 1) in
  if List.length tokens > 1 && List.mem last_token rejected_units then
    bad
      (Printf.sprintf
         "unit suffix _%s is not canonical; use %s (or no suffix for a \
          dimensionless count) — see DESIGN.md"
         last_token
         (String.concat "/" (List.map (fun u -> "_" ^ u) canonical_units)))

(* ---------------- registration ---------------- *)

let register name help make check =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some r -> (
      match check r.entry with
      | Some h -> h
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already a %s" name (kind_name r.entry)))
  | None ->
      check_name name;
      let h, e = make () in
      Hashtbl.replace registry name { entry = e; help };
      h

let counter ?help name =
  register name help
    (fun () ->
      let c = { count = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let histogram ?help name =
  register name help
    (fun () ->
      let h = { samples = Array.make 16 0.0; len = 0 } in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let log_histogram ?help name =
  register name help
    (fun () ->
      let h =
        { lbuckets = Array.make (Array.length log_bounds + 1) 0;
          lsum = 0.0; lcount = 0; lmax = neg_infinity }
      in
      (h, Log_histogram h))
    (function Log_histogram h -> Some h | _ -> None)

let incr c = locked (fun () -> c.count <- c.count + 1)
let add c n = locked (fun () -> c.count <- c.count + n)
let counter_value c = locked (fun () -> c.count)

let observe h x =
  locked @@ fun () ->
  if h.len = Array.length h.samples then begin
    let bigger = Array.make (2 * h.len) 0.0 in
    Array.blit h.samples 0 bigger 0 h.len;
    h.samples <- bigger
  end;
  h.samples.(h.len) <- x;
  h.len <- h.len + 1

let histogram_count h = locked (fun () -> h.len)

(* must be called with [mu] held *)
let filled h = Array.sub h.samples 0 h.len

let histogram_percentile h p = locked (fun () -> Ccs_util.Stats.percentile (filled h) p)
let histogram_mean h = locked (fun () -> Ccs_util.Stats.mean (filled h))
let histogram_max h = locked (fun () -> Ccs_util.Stats.maximum (filled h))

let observe_log h x =
  locked @@ fun () ->
  let n = Array.length log_bounds in
  let i = ref 0 in
  while !i < n && x > log_bounds.(!i) do
    Stdlib.incr i
  done;
  h.lbuckets.(!i) <- h.lbuckets.(!i) + 1;
  h.lsum <- h.lsum +. x;
  h.lcount <- h.lcount + 1;
  if x > h.lmax then h.lmax <- x

let log_histogram_count h = locked (fun () -> h.lcount)
let log_histogram_sum h = locked (fun () -> h.lsum)
let log_histogram_max h = locked (fun () -> if h.lcount = 0 then nan else h.lmax)

(* Smallest bucket bound whose cumulative count reaches p% — an upper
   estimate of the percentile, exact up to bucket granularity. [+Inf]
   resolves to the recorded max. Must be called with [mu] held. *)
let log_quantile_locked h p =
  if h.lcount = 0 then nan
  else begin
    let need =
      int_of_float (ceil (p /. 100.0 *. float_of_int h.lcount)) |> max 1
    in
    let cum = ref 0 and ans = ref h.lmax in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= need then begin
             if i < Array.length log_bounds then ans := log_bounds.(i);
             raise Exit
           end)
         h.lbuckets
     with Exit -> ());
    min !ans h.lmax
  end

let log_histogram_quantile h p = locked (fun () -> log_quantile_locked h p)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ r ->
      match r.entry with
      | Counter c -> c.count <- 0
      | Histogram h -> h.len <- 0
      | Log_histogram h ->
          Array.fill h.lbuckets 0 (Array.length h.lbuckets) 0;
          h.lsum <- 0.0;
          h.lcount <- 0;
          h.lmax <- neg_infinity)
    registry

let sorted_entries () =
  locked @@ fun () ->
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fnum f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let dump_table () =
  let t = Ccs_util.Tables.create [ "metric"; "kind"; "value"; "p50"; "p95"; "max" ] in
  List.iter
    (fun (name, r) ->
      match r.entry with
      | Counter c ->
          Ccs_util.Tables.add_row t [ name; "counter"; string_of_int c.count; "-"; "-"; "-" ]
      | Histogram h ->
          if h.len = 0 then
            Ccs_util.Tables.add_row t [ name; "histogram"; "n=0"; "-"; "-"; "-" ]
          else
            Ccs_util.Tables.add_row t
              [ name; "histogram";
                Printf.sprintf "n=%d" h.len;
                fnum (histogram_percentile h 50.0);
                fnum (histogram_percentile h 95.0);
                fnum (histogram_max h) ]
      | Log_histogram h ->
          if log_histogram_count h = 0 then
            Ccs_util.Tables.add_row t [ name; "log_histogram"; "n=0"; "-"; "-"; "-" ]
          else
            Ccs_util.Tables.add_row t
              [ name; "log_histogram";
                Printf.sprintf "n=%d" (log_histogram_count h);
                fnum (log_histogram_quantile h 50.0);
                fnum (log_histogram_quantile h 95.0);
                fnum (log_histogram_max h) ])
    (sorted_entries ());
  Ccs_util.Tables.render t

let entry_json = function
  | Counter c -> Jsonx.Int c.count
  | Histogram h ->
      if h.len = 0 then Jsonx.Obj [ ("count", Jsonx.Int 0) ]
      else
        Jsonx.Obj
          [ ("count", Jsonx.Int h.len);
            ("mean", Jsonx.Float (histogram_mean h));
            ("p50", Jsonx.Float (histogram_percentile h 50.0));
            ("p95", Jsonx.Float (histogram_percentile h 95.0));
            ("max", Jsonx.Float (histogram_max h)) ]
  | Log_histogram h ->
      if log_histogram_count h = 0 then Jsonx.Obj [ ("count", Jsonx.Int 0) ]
      else
        Jsonx.Obj
          [ ("count", Jsonx.Int (log_histogram_count h));
            ("sum", Jsonx.Float (log_histogram_sum h));
            ("p50", Jsonx.Float (log_histogram_quantile h 50.0));
            ("p95", Jsonx.Float (log_histogram_quantile h 95.0));
            ("max", Jsonx.Float (log_histogram_max h)) ]

let active = function
  | Counter c -> c.count <> 0
  | Histogram h -> h.len > 0
  | Log_histogram h -> h.lcount > 0

let snapshot ?(all = false) () =
  sorted_entries ()
  |> List.filter_map (fun (name, r) ->
         if all || active r.entry then Some (name, entry_json r.entry) else None)

(* ---------------- OpenMetrics text exposition ---------------- *)

(* One family per registered metric: the dotted registry name becomes an
   underscore name with a "ccs_" namespace prefix; counters expose a
   [_total] sample, histograms (both kinds) expose cumulative log buckets
   plus [_sum]/[_count]. Terminated by "# EOF" as the OpenMetrics spec
   requires, so a scraper (or the test-suite's validator) can detect a
   truncated write. *)

let om_name name = "ccs_" ^ String.map (fun c -> if c = '.' then '_' else c) name

let om_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let om_meta buf n kind help unit =
  Printf.bprintf buf "# TYPE %s %s\n" n kind;
  (match unit with Some u -> Printf.bprintf buf "# UNIT %s %s\n" n u | None -> ());
  match help with
  | Some h ->
      let clean = String.map (function '\n' -> ' ' | c -> c) h in
      Printf.bprintf buf "# HELP %s %s\n" n clean
  | None -> ()

let om_buckets buf n ~cumulative ~total ~sum =
  Array.iteri
    (fun i bound ->
      Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" n (om_float bound) cumulative.(i))
    log_bounds;
  Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" n total;
  Printf.bprintf buf "%s_count %d\n" n total;
  Printf.bprintf buf "%s_sum %s\n" n (om_float sum)

let to_openmetrics () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, r) ->
      let n = om_name name in
      let unit = unit_of name in
      match r.entry with
      | Counter c ->
          om_meta buf n "counter" r.help unit;
          Printf.bprintf buf "%s_total %d\n" n (locked (fun () -> c.count))
      | Histogram h ->
          let samples = locked (fun () -> filled h) in
          let nb = Array.length log_bounds in
          let cumulative = Array.make nb 0 in
          let sum = ref 0.0 in
          Array.iter
            (fun x ->
              sum := !sum +. x;
              let i = ref 0 in
              while !i < nb && x > log_bounds.(!i) do
                Stdlib.incr i
              done;
              if !i < nb then cumulative.(!i) <- cumulative.(!i) + 1)
            samples;
          for i = 1 to nb - 1 do
            cumulative.(i) <- cumulative.(i) + cumulative.(i - 1)
          done;
          om_meta buf n "histogram" r.help unit;
          om_buckets buf n ~cumulative ~total:(Array.length samples) ~sum:!sum
      | Log_histogram h ->
          let cumulative, total, sum =
            locked (fun () ->
                let nb = Array.length log_bounds in
                let cum = Array.make nb 0 in
                let run = ref 0 in
                for i = 0 to nb - 1 do
                  run := !run + h.lbuckets.(i);
                  cum.(i) <- !run
                done;
                (cum, h.lcount, h.lsum))
          in
          om_meta buf n "histogram" r.help unit;
          om_buckets buf n ~cumulative ~total ~sum)
    (sorted_entries ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let write_openmetrics path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_openmetrics ()))
