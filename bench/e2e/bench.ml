(* Runs one workload against ccs_solve and reduces what it measured to
   metrics.

   Untraced run: a closed loop with one client. Each ccs_solve invocation
   runs alone and is timed from spawn to exit, and wait4 gives its peak
   RSS. The order is pass -> instance -> variant, so that a drift in host
   speed spreads over all variants alike. Only complete passes are run, so
   every instance weighs the same in the percentiles.

   Traced run: the same loop, and after each pass the harness re-executes
   itself once per variant in a fresh process (cold, like the CLI). That
   child makes the library calls ccs_solve makes, in the same order, and
   records a span around each: Io.load_flat, Instance.of_flat, the solver,
   then the Schedule validator. The CLI's own remainder (emitting the
   schedule, exec and exit) is the untraced wall minus the traced request
   wall. *)

module J = Ccs_obs.Jsonx
module Mono = Ccs_util.Mono
open Solve

type env = {
  solver : string;  (** the ccs_solve executable *)
  self : string;  (** this harness, re-executed for the traced children *)
  dir : string;  (** work directory for inputs and outputs *)
  seconds : float;  (** measuring budget of one run *)
}

(* Per child process; a run must end within 180 s. *)
let timeout_s = 60.0

type metric = {
  name : string;
  value : float option;  (** [None]: a counter the program no longer registers *)
  unit_ : string;
  n : int;  (** samples behind the value *)
  detail : bool;  (** a per-variant breakdown, printed but not in BENCHMARK.json *)
}

type report = {
  workload : string;
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;
  events : J.t list;  (** Chrome trace events of the traced run *)
}

let metric ?(detail = false) name unit_ n value = { name; value = Some value; unit_; n; detail }

(* ---------- statistics ---------- *)

let sum = List.fold_left ( +. ) 0.0

(* The mean of the samples ranked from [lo] to [hi] per mille, by nearest
   rank. A band wider than one rank smooths a quantile over its neighbours,
   so that two instances of similar wall trading places do not move it from
   one to the other. *)
let band xs lo hi =
  let a = Array.of_list xs in
  Array.sort compare a;
  let rank pm = max 0 ((((pm * Array.length a) + 999) / 1000) - 1) in
  let part = Array.sub a (rank lo) (rank hi - rank lo + 1) in
  Array.fold_left ( +. ) 0.0 part /. float_of_int (Array.length part)

let percentile xs pm = band xs pm pm
let median xs = percentile xs 500
let geomean xs = exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* The highest of p50, p90, p99 and p99.9 (in per mille) that has at least
   ten of [n] samples beyond it; [None] below 20 samples. *)
let tail_percentile n = List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) [ 999; 990; 900; 500 ]

(* ---------- untraced invocations ---------- *)

(* The invocations of one configuration on one batch, over all passes. *)
type cell = {
  bi : int;  (** batch index *)
  ci : int;  (** configuration index *)
  cfg : config;
  batch : Workloads.input list;
  first : string;  (** output of the first run, kept for checking *)
  mutable digest : Digest.t option;  (** of the first run's output *)
  mutable walls : float list;
  mutable rss_kb : int;
  mutable cpu_s : float;  (** summed over runs *)
  mutable bad_runs : int;  (** non-zero exit, timeout, or output unlike the first *)
  mutable errors : string list;
}

let jobs cell = List.fold_left (fun a i -> a + Ccs.Instance.n i.Workloads.inst) 0 cell.batch
let files batch = List.map (fun i -> i.Workloads.file) batch

let invoke env cell =
  let out = if cell.digest = None then cell.first else Filename.concat env.dir "run.out" in
  let r =
    Proc.run ~timeout_s ~stdout:out env.solver (cli_args cell.cfg @ files cell.batch)
  in
  cell.walls <- r.wall_s :: cell.walls;
  cell.rss_kb <- max cell.rss_kb r.maxrss_kb;
  cell.cpu_s <- cell.cpu_s +. r.cpu_s;
  let d = Digest.file out in
  let error =
    if not (Proc.ok r) then
      Some (Printf.sprintf "%s: %s" (Proc.describe r.status) (Proc.stderr_line out))
    else
      match cell.digest with
      | Some d0 when d <> d0 -> Some "output differs from the first run"
      | _ -> None
  in
  if cell.digest = None then cell.digest <- Some d;
  Option.iter
    (fun e ->
      cell.bad_runs <- cell.bad_runs + 1;
      cell.errors <- Printf.sprintf "%s %s" (to_string cell.cfg) e :: cell.errors)
    error

(* Run [pass k] for k = 0, 1, ... while the budget still holds at least
   half a pass of average length; at least once. Returns the number of
   passes. *)
let passes env pass =
  let t0 = Mono.now_ns () in
  let rec go k =
    pass k;
    let el = Mono.elapsed_s ~since:t0 in
    if el +. (el /. float_of_int (2 * (k + 1))) <= env.seconds then go (k + 1) else k + 1
  in
  go 0

(* Answers of a cell's first run, each parsed back and checked. *)
let check_cell cell =
  let blocks = Check.blocks (In_channel.with_open_bin cell.first In_channel.input_all) in
  if List.length blocks <> List.length cell.batch then
    List.map (fun _ -> Error "wrong number of answers") cell.batch
  else
    List.map2
      (fun input lines ->
        let inst = input.Workloads.inst in
        Result.bind (Check.parse cell.cfg.variant lines) (fun a ->
            Result.map (fun () -> (inst, a)) (Check.check cell.cfg inst a)))
      cell.batch blocks

(* ---------- host speed ---------- *)

(* The host is shared, and its speed drifts by up to 2x within minutes on
   identical work. So each run also times a reference program: this harness
   re-executed with --reference, doing fixed stdlib-only work (sorting,
   hashing, allocation, formatting) that no change to the solver touches.
   Reference runs follow every invocation, one more per 0.25 s of its wall,
   so that they sample the host as often as the measurements do. End-to-end
   timings are scaled by [reference_s] over the median reference wall of
   their phase (start-up or passes): they read as seconds on a host where
   the reference takes [reference_s], which is about this 2-vCPU VM when
   quiet. *)
let reference_s = 0.025

let reference_work () =
  let a = Array.init 25_000 (fun i -> (i * 7919) mod 1_000_003) in
  Array.sort compare a;
  let h = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace h x i) a;
  let b = Buffer.create 16 in
  Array.iter (fun x -> Printf.bprintf b "j%d %d\n" x (Hashtbl.find h x)) a;
  print_int (Buffer.length b)

let reference env =
  let r =
    Proc.run ~timeout_s ~stdout:(Filename.concat env.dir "reference.out") env.self
      [ "--reference" ]
  in
  if Proc.ok r then r.wall_s else failwith "the reference program failed"

(* Process start-up: 30 invocations on a one-job instance with the
   workload's flags, each after a reference run. Returns the start-up runs,
   (wall, exited 0) each, and the reference walls. *)
let setup_runs env configs =
  let file = Filename.concat env.dir "setup.ccs" in
  Ccs.Io.save file (Ccs.Instance.make ~machines:1 ~slots:1 [ (1, 0) ]);
  let configs = Array.of_list configs in
  let runs = ref [] and refs = ref [] in
  for k = 0 to 29 do
    refs := reference env :: !refs;
    let r =
      Proc.run ~timeout_s ~stdout:(Filename.concat env.dir "setup.out") env.solver
        (cli_args configs.(k mod Array.length configs) @ [ file ])
    in
    runs := (r.wall_s, Proc.ok r) :: !runs
  done;
  (!runs, !refs)

(* ---------- the traced child ---------- *)

type span = {
  id : int;  (** spans are numbered in the order they start *)
  sname : string;
  req : int;
  parent : int;  (** index of the parent span, -1 for a request *)
  t0 : int;  (** monotonic ns, the same clock in every process *)
  mutable t1 : int;
  mutable alloc_words : float;
}

type recorder = { mutable spans : span list; mutable next : int }

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [record r ~req ~parent name f] runs [f id] inside span number [id]. *)
let record r ~req ~parent sname f =
  let id = r.next in
  r.next <- id + 1;
  let a0 = allocated () in
  let sp = { id; sname; req; parent; t0 = Mono.now_ns (); t1 = 0; alloc_words = 0.0 } in
  let x = f id in
  sp.t1 <- Mono.now_ns ();
  sp.alloc_words <- allocated () -. a0;
  r.spans <- sp :: r.spans;
  x

(* Integer counters are summed over requests; histograms keep their
   maximum. *)
let add_counters tbl snapshot =
  List.iter
    (fun (name, v) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
      match (v, J.member "max" v) with
      | J.Int i, _ -> Hashtbl.replace tbl name (prev +. float_of_int i)
      | J.Obj _, Some (J.Float f) when Float.is_finite f ->
          Hashtbl.replace tbl name (Float.max prev f)
      | J.Obj _, Some (J.Int i) ->
          Hashtbl.replace tbl name (Float.max prev (float_of_int i))
      | J.Obj _, _ -> Hashtbl.replace tbl name prev
      | _ -> ())
    snapshot

let traced_child cfg files ~out =
  let r = { spans = []; next = 0 } in
  let counters = Hashtbl.create 64 in
  List.iteri
    (fun req file ->
      record r ~req ~parent:(-1) "request" (fun id ->
          let layer name f = record r ~req ~parent:id name (fun _ -> f ()) in
          let fl =
            layer "io" (fun () ->
                match Ccs.Io.load_flat file with Ok fl -> fl | Error e -> failwith e)
          in
          let inst = layer "instance" (fun () -> Ccs.Instance.of_flat fl) in
          Ccs_obs.Metrics.reset ();
          let sched = layer "solve" (fun () -> solve cfg fl inst) in
          add_counters counters (Ccs_obs.Metrics.snapshot ~all:true ());
          match layer "schedule" (fun () -> validate inst sched) with
          | Ok _ -> ()
          | Error e -> failwith ("invalid schedule: " ^ e)))
    files;
  (* the cost of one span, from a micro-loop of empty spans *)
  let probe = { spans = []; next = 0 } in
  let t0 = Mono.now_ns () in
  for _ = 1 to 1000 do
    record probe ~req:0 ~parent:(-1) "probe" ignore
  done;
  let span_cost_s = Mono.elapsed_s ~since:t0 /. 1000.0 in
  let gc = Gc.quick_stat () in
  let span sp =
    J.Obj
      [ ("id", J.Int sp.id); ("name", J.Str sp.sname); ("req", J.Int sp.req);
        ("parent", J.Int sp.parent); ("t0", J.Int sp.t0); ("t1", J.Int sp.t1);
        ("alloc_words", J.Float sp.alloc_words) ]
  in
  J.Obj
    [ ("spans", J.List (List.rev_map span r.spans));
      ("counters", J.Obj (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) counters []));
      ("major_collections", J.Int gc.Gc.major_collections);
      ("top_heap_words", J.Int gc.Gc.top_heap_words);
      ("span_cost_s", J.Float span_cost_s) ]
  |> J.to_string
  |> fun s -> Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc s)

(* ---------- the traced children, seen from the parent ---------- *)

type child = {
  spans : span array;  (** indexed by span id *)
  counters : (string * float) list;
  major_collections : float;
  top_heap_words : float;
  span_cost_s : float;
}

let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> nan

let read_child file =
  let j =
    match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("traced child output: " ^ e)
  in
  let field k j =
    match J.member k j with Some v -> v | None -> failwith ("traced child: no " ^ k)
  in
  let int k sp = int_of_float (num (field k sp)) in
  let span sp =
    { id = int "id" sp; sname = (match field "name" sp with J.Str s -> s | _ -> "");
      req = int "req" sp; parent = int "parent" sp; t0 = int "t0" sp; t1 = int "t1" sp;
      alloc_words = num (field "alloc_words" sp) }
  in
  let spans = match field "spans" j with J.List l -> List.map span l | _ -> [] in
  { spans = Array.of_list (List.sort (fun a b -> compare a.id b.id) spans);
    counters =
      (match field "counters" j with
      | J.Obj kv -> List.map (fun (k, v) -> (k, num v)) kv
      | _ -> []);
    major_collections = num (field "major_collections" j);
    top_heap_words = num (field "top_heap_words" j);
    span_cost_s = num (field "span_cost_s" j) }

let run_child env cfg files =
  let out = Filename.concat env.dir "child.json" and log = Filename.concat env.dir "child.out" in
  let r =
    Proc.run ~timeout_s ~stdout:log env.self
      ([ "--traced-child"; to_string cfg; "--trace-out"; out ] @ files)
  in
  if Proc.ok r then Ok (read_child out)
  else
    Error
      (Printf.sprintf "traced %s: %s: %s" (to_string cfg) (Proc.describe r.status)
         (Proc.stderr_line log))

let dur sp = float_of_int (sp.t1 - sp.t0) *. 1e-9

(* Sum of [f span] over the spans named [name] of requests [lo, hi). *)
let span_sum ?(lo = 0) ?(hi = max_int) ch name f =
  Array.fold_left
    (fun a sp -> if sp.sname = name && sp.req >= lo && sp.req < hi then a +. f sp else a)
    0.0 ch.spans

let chrome_events ~epoch ~pid ~workload cfg ch =
  let us ns = J.Float (Float.round (float_of_int ns /. 1000.0)) in
  Array.to_list ch.spans
  |> List.map (fun sp ->
         J.Obj
           [ ("name", J.Str sp.sname); ("ph", J.Str "X"); ("ts", us (sp.t0 - epoch));
             ("dur", us (sp.t1 - sp.t0)); ("pid", J.Int pid); ("tid", J.Int 0);
             ( "args",
               J.Obj
                 [ ("request", J.Int sp.req);
                   ("parent", if sp.parent < 0 then J.Null else J.Str ch.spans.(sp.parent).sname);
                   ("workload", J.Str workload); ("variant", J.Str (variant_name cfg.variant));
                   ("alloc_words", J.Float sp.alloc_words) ] ) ])

(* Per-layer metrics over the solver's own counters: a sum, a histogram
   maximum, or a ratio of sums. *)
type source = Sum of string | Max of string | Ratio of string * string list

let counter_metrics =
  [ ("approx.border_probes", "count", Sum "border_search.probes");
    ("ptas.guesses", "count", Sum "ptas.guesses");
    ("ptas.ilp_calls", "count", Sum "ptas.ilp_calls");
    ("ptas.configs_max", "count", Max "ptas.configs");
    ("ilp.nodes", "count", Sum "ilp.nodes");
    ("ilp.prune_ratio", "ratio", Ratio ("ilp.prunes_bound", [ "ilp.nodes" ]));
    ("lp.solves", "count", Sum "lp.solves");
    ("lp.pivots", "count", Sum "lp.pivots");
    ("lp.warm_start_ratio", "ratio", Ratio ("lp.warm_starts", [ "lp.solves" ]));
    ("lp.refactorizations", "count", Sum "lp.basis_refactorizations");
    ( "rat.promotion_ratio",
      "ratio",
      Ratio ("rat.promotions", [ "rat.promotions"; "rat.small_hits" ]) );
    ("bnb.nodes", "count", Sum "bnb.nodes");
    ("bnb.nogood_hit_ratio", "ratio", Ratio ("bnb.nogood_hits", [ "bnb.nodes" ]));
    ("bnb.restarts", "count", Sum "bnb.restarts");
    ("bnb.node_limit_hits", "count", Sum "bnb.node_limit_hits") ]

(* [None] when some child lacks a counter the source needs. *)
let counter_value children source =
  let ( let* ) = Option.bind in
  let get combine name =
    List.fold_left
      (fun acc ch ->
        let* a = acc in
        let* v = List.assoc_opt name ch.counters in
        Some (combine a v))
      (Some 0.0) children
  in
  match source with
  | Sum name -> get ( +. ) name
  | Max name -> get Float.max name
  | Ratio (num, dens) ->
      let* x = get ( +. ) num in
      let* d =
        List.fold_left
          (fun acc name -> let* a = acc in let* v = get ( +. ) name in Some (a +. v))
          (Some 0.0) dens
      in
      Some (if d > 0.0 then x /. d else 0.0)

(* ---------- reducing a run to metrics ---------- *)

(* Attempted and failed answers. A run that fails fails every answer of its
   batch; an answer of the first run that fails its check fails in every
   run, since the later runs printed the same bytes. Start-up runs and
   traced children count one each. *)
let tally ~setup ~checked ~children ~child_errors =
  let attempted, failed, errors =
    List.fold_left
      (fun (att, fl, errs) (cell, answers) ->
        let runs = List.length cell.walls and size = List.length cell.batch in
        let bad =
          List.filter_map
            (function Error e -> Some (to_string cell.cfg ^ " " ^ e) | Ok _ -> None)
            answers
        in
        ( att + (runs * size),
          fl + (cell.bad_runs * size) + ((runs - cell.bad_runs) * List.length bad),
          errs @ List.rev cell.errors @ bad ))
      (0, 0, child_errors) checked
  in
  let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) setup) in
  ( attempted + List.length setup + children + List.length child_errors,
    failed + setup_failed + List.length child_errors,
    errors )

(* Walls are multiplied by [scale] (see {!reference_s}). Central values
   are smoothed over neighbouring ranks: the interquartile mean for the
   rates, p40 to p60 for the walls. *)
let e2e_metrics (w : Workloads.t) ~scale ~checked ~attempted ~failed =
  let cells = List.map fst checked in
  (* per variant: the scaled walls and the jobs per second of each run *)
  let per_config =
    List.mapi
      (fun ci cfg ->
        let cs = List.filter (fun c -> c.ci = ci) cells in
        let runs =
          List.concat_map (fun c -> List.map (fun wall -> (jobs c, wall *. scale)) c.walls) cs
        in
        ( variant_name cfg.variant,
          List.map snd runs,
          List.map (fun (jobs, wall) -> float_of_int jobs /. wall) runs ))
      w.configs
  in
  let n = List.fold_left (fun a (_, walls, _) -> a + List.length walls) 0 per_config in
  let over f = geomean (List.map f per_config) in
  let answers =
    List.concat_map
      (fun (cell, rs) ->
        List.filter_map
          (function Ok (inst, a) -> Some (cell.cfg.variant, inst, a) | Error _ -> None)
          rs)
      checked
  in
  let expected = List.fold_left (fun a c -> a + List.length c.batch) 0 cells in
  [ metric "jobs_per_s" "jobs/s" n (over (fun (_, _, rates) -> band rates 250 750));
    metric "wall_p50_s" "s" n (over (fun (_, walls, _) -> band walls 400 600));
    metric "peak_rss_mb" "MB" n
      (float_of_int (List.fold_left (fun a c -> max a c.rss_kb) 0 cells) *. 1024.0 /. 1e6);
    metric "quality_ratio" "ratio" (List.length answers)
      (geomean (List.map (fun (v, inst, a) -> Check.quality v inst a) answers));
    metric "solved_ratio" "ratio" expected
      (float_of_int (List.length (List.filter (fun (_, _, a) -> Check.complete a) answers))
       /. float_of_int expected);
    metric ~detail:true "fail_ratio" "ratio" attempted
      (float_of_int failed /. float_of_int attempted);
    (* CPU time over wall: below 1 where invocations wait (on I/O, page faults) *)
    metric ~detail:true "cpu_ratio" "ratio" n
      (sum (List.map (fun c -> c.cpu_s) cells) /. sum (List.concat_map (fun c -> c.walls) cells)) ]
  @ List.concat_map
      (fun (v, walls, rates) ->
        let n = List.length walls in
        [ metric ~detail:true ("jobs_per_s." ^ v) "jobs/s" n (band rates 250 750);
          metric ~detail:true ("wall_p50_s." ^ v) "s" n (band walls 400 600) ]
        @
        match tail_percentile n with
        | Some pm when pm > 500 ->
            let name = Printf.sprintf "wall_p%g_s.%s" (float_of_int pm /. 10.0) v in
            [ metric ~detail:true name "s" n (percentile walls pm) ]
        | _ -> [])
      per_config

let layers = [ "io"; "instance"; "solve"; "schedule" ]

(* [children] holds (pass, configuration index, child). *)
let layer_metrics (w : Workloads.t) ~batches ~cells ~children ~npasses =
  let configs = List.mapi (fun ci cfg -> (ci, variant_name cfg.variant)) w.configs in
  let all = List.map (fun (_, _, ch) -> ch) children in
  let last =
    List.filter_map (fun (k, _, ch) -> if k = npasses - 1 then Some ch else None) children
  in
  (* median over passes of [f child] for configuration [ci] *)
  let med ci f =
    match List.filter_map (fun (_, c, ch) -> if c = ci then Some (f ch) else None) children with
    | [] -> nan
    | xs -> median xs
  in
  let total f = sum (List.map (fun (ci, _) -> f ci) configs) in
  let with_variants name unit_ f =
    metric name unit_ npasses (total f)
    :: List.map (fun (ci, v) -> metric ~detail:true (name ^ "." ^ v) unit_ npasses (f ci)) configs
  in
  let busy l ci = med ci (fun ch -> span_sum ch l dur) in
  let alloc l ci = med ci (fun ch -> span_sum ch l (fun sp -> sp.alloc_words)) /. 1e6 in
  (* untraced median wall minus traced request wall, per batch; the child
     solves the batches' files in order, so batch [bi] is a request range *)
  let unattributed ci =
    let starts = List.fold_left (fun acc b -> (List.hd acc + List.length b) :: acc) [ 0 ] batches in
    let starts = Array.of_list (List.rev starts) in
    sum
      (List.filter_map
         (fun c ->
           if c.ci <> ci then None
           else
             let lo = starts.(c.bi) and hi = starts.(c.bi + 1) in
             Some (median c.walls -. med ci (fun ch -> span_sum ~lo ~hi ch "request" dur)))
         cells)
  in
  let bytes = List.fold_left (fun a i -> a + i.Workloads.bytes) 0 (List.concat batches) in
  let spans = List.fold_left (fun a ch -> a + Array.length ch.spans) 0 all in
  List.concat_map (fun l -> with_variants (l ^ ".busy_s") "s" (busy l)) layers
  @ with_variants "cli.unattributed_s" "s" unattributed
  @ [ metric "io.mb_per_s" "MB/s" npasses
        (float_of_int (bytes * List.length configs) /. 1e6 /. total (busy "io")) ]
  @ List.map (fun l -> metric (l ^ ".alloc_mwords") "Mwords" npasses (total (alloc l))) layers
  @ List.map
      (fun (name, unit_, source) ->
        { name; unit_; n = 1; detail = false; value = counter_value last source })
      counter_metrics
  @ [ metric "gc.major_collections" "count" npasses
        (total (fun ci -> med ci (fun ch -> ch.major_collections)));
      metric "gc.top_heap_mb" "MB" npasses
        (List.fold_left (fun a ch -> Float.max a (ch.top_heap_words *. 8.0 /. 1e6)) 0.0 all);
      metric "trace.spans" "count" npasses (float_of_int spans /. float_of_int npasses);
      metric "trace.overhead_ratio" "ratio" spans
        (sum (List.map (fun ch -> ch.span_cost_s *. float_of_int (Array.length ch.spans)) all)
         /. sum (List.map (fun ch -> span_sum ch "request" dur) all)) ]

(* ---------- one run ---------- *)

let run env ~seed ~traced (w : Workloads.t) =
  let epoch = Mono.now_ns () in
  let batches = w.build ~seed ~dir:env.dir in
  let setup, setup_refs = setup_runs env w.configs in
  let refs = ref [] in
  let cells =
    List.concat
      (List.mapi
         (fun bi batch ->
           List.mapi
             (fun ci cfg ->
               { bi; ci; cfg; batch;
                 first = Filename.concat env.dir (Printf.sprintf "out-%03d-%d.txt" bi ci);
                 digest = None; walls = []; rss_kb = 0; cpu_s = 0.0; bad_runs = 0; errors = [] })
             w.configs)
         batches)
  in
  let children = ref [] and child_errors = ref [] in
  let npasses =
    passes env (fun k ->
        List.iter
          (fun cell ->
            invoke env cell;
            for _ = 1 to max 1 (int_of_float (List.hd cell.walls /. 0.25)) do
              refs := reference env :: !refs
            done)
          cells;
        if traced then
          List.iteri
            (fun ci cfg ->
              match run_child env cfg (files (List.concat batches)) with
              | Ok ch -> children := (k, ci, ch) :: !children
              | Error e -> child_errors := e :: !child_errors)
            w.configs)
  in
  let children = List.rev !children in
  let checked = List.map (fun cell -> (cell, check_cell cell)) cells in
  let attempted, failed, errors =
    tally ~setup ~checked ~children:(List.length children) ~child_errors:(List.rev !child_errors)
  in
  let host = metric ~detail:true "host.reference_s" "s" (List.length !refs) (median !refs) in
  let metrics =
    if traced then layer_metrics w ~batches ~cells ~children ~npasses
    else
      metric "setup_s" "s" (List.length setup)
        (median (List.map fst setup) *. reference_s /. median setup_refs)
      :: e2e_metrics w ~scale:(reference_s /. median !refs) ~checked ~attempted ~failed
  in
  let events =
    List.concat_map
      (fun (k, ci, ch) ->
        chrome_events ~epoch ~pid:((k * List.length w.configs) + ci) ~workload:w.name
          (List.nth w.configs ci) ch)
      children
  in
  { workload = w.name; metrics = metrics @ [ host ]; attempted; failed; errors; events }

(* ---------- output ---------- *)

let line r m =
  Printf.sprintf "%s %s %s %s (n=%d)" r.workload m.name
    (match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "missing")
    m.unit_ m.n

(* The result object: the metrics of BENCHMARK.json, keyed by [key]. *)
let result_json ~key reports =
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 reports in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reports in
  let metrics r =
    List.filter_map
      (fun m ->
        match m.value with
        | Some v when (not m.detail) && Float.is_finite v ->
            Some (key r m, J.Obj [ ("value", J.Float v); ("unit", J.Str m.unit_) ])
        | _ -> None)
      r.metrics
  in
  J.Obj
    [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int attempted); ("failed", J.Int failed);
      ("metrics", J.Obj (List.concat_map metrics reports)) ]

let metrics_json reports =
  J.List
    (List.concat_map
       (fun r ->
         List.map
           (fun m ->
             J.Obj
               [ ("workload", J.Str r.workload); ("metric", J.Str m.name);
                 ("value", match m.value with Some v -> J.Float v | None -> J.Null);
                 ("unit", J.Str m.unit_); ("n", J.Int m.n) ])
           r.metrics)
       reports)

(* ---------- two sets of runs (repeat.sh) ---------- *)

(* [compare ~bounds a b]: files [a] and [b] hold one result line per run.
   Prints, per metric that BENCHMARK.json bounds, the two set medians,
   their relative difference and PASS when it stays within the bound. *)
let compare ~bounds a b =
  let read file =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l -> Result.to_option (J.of_string l))
    |> List.concat_map (fun j -> match J.member "metrics" j with Some (J.Obj kv) -> kv | _ -> [])
    |> List.filter_map (fun (k, v) -> Option.map (fun x -> (k, num x)) (J.member "value" v))
  in
  let bound_of =
    match J.of_string (In_channel.with_open_text bounds In_channel.input_all) with
    | Ok j -> (
        match J.member "end_to_end" j with
        | Some (J.List ms) ->
            List.filter_map
              (fun m ->
                match (J.member "name" m, J.member "bound" m) with
                | Some (J.Str n), Some b -> Some (n, num b)
                | _ -> None)
              ms
        | _ -> [])
    | Error e -> failwith (bounds ^ ": " ^ e)
  in
  let va = read a and vb = read b in
  let values l key = List.filter_map (fun (k, v) -> if k = key then Some v else None) l in
  Printf.printf "%-32s %12s %12s %9s %7s  %s\n" "workload/metric" "median A" "median B" "diff"
    "bound" "verdict";
  List.iter
    (fun key ->
      let metric =
        match String.rindex_opt key '/' with
        | Some i -> String.sub key (i + 1) (String.length key - i - 1)
        | None -> key
      in
      match (List.assoc_opt metric bound_of, values va key, values vb key) with
      | Some bound, (_ :: _ as xa), (_ :: _ as xb) ->
          let ma = median xa and mb = median xb in
          let diff = (mb -. ma) /. ma in
          Printf.printf "%-32s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n" key ma mb (100.0 *. diff)
            (100.0 *. bound)
            (if Float.abs diff <= bound then "PASS" else "UNRESOLVED")
      | _ -> ())
    (List.sort_uniq String.compare (List.map fst va))
