(* Measurement and threshold logic for the bench regression gate, shared
   by its two front-ends: bench/check_regression.exe (the CI gate, plain
   text, exit code) and bin/ccs_report --check (markdown trend reports).
   Keeping it in one module means the calibrated workloads, the counter
   list and the tolerance rule exist in exactly one place.

   Each phase is timed as the minimum wall clock over a few repetitions
   (minimum, not mean: noise only adds time). Raw walls are not comparable
   across machines, so the baseline also records a fixed pure-OCaml
   calibration workload; at comparison time every baseline wall is scaled
   by calibration_now / calibration_baseline, which cancels machine speed
   to first order. A phase regresses when its scaled wall exceeds
   baseline * (1 + tolerance); the tolerance defaults to 0.25 and can be
   widened for noisy runners via CCS_BENCH_TOLERANCE (e.g.
   CCS_BENCH_TOLERANCE=1.5 on shared CI machines). *)

module J = Ccs_obs.Jsonx

let default_baseline_path = "BENCH_baseline.json"
let reps = 5

let tolerance =
  match Sys.getenv_opt "CCS_BENCH_TOLERANCE" with
  | None -> 0.25
  | Some s -> (
      match float_of_string_opt s with
      | Some t when t > 0.0 -> t
      | _ ->
          Printf.eprintf "bad CCS_BENCH_TOLERANCE %S (want a positive float)\n" s;
          exit 2)

let instance ~seed ~n ~classes ~machines ~slots =
  Ccs.Generator.generate ~seed
    { Ccs.Generator.n; classes; machines; slots; p_lo = 1; p_hi = 1000;
      family = Ccs.Generator.Uniform }

(* ---------------- XL tier (opt-in) ----------------

   Million-job workloads: streaming parse and the three 2-approximations (the preemptive one, the slowest, cuts and sorts
   in ints but builds a [Rat] start and length for each of its ~10^6
   output pieces). Gated behind CCS_BENCH_XL because materializing
   the instance costs ~16 MB off-heap and the phases take seconds, which
   would slow every ordinary gate run; the bench-xl CI job sets the
   variable, everyone else sees the baseline's xl_* entries as benign
   dropped phases. The Uniform family is mandatory here — Zipf's
   weighted draw is O(classes) per job, which at C = 150k would time the
   generator, not the solver. *)

let xl_enabled = Sys.getenv_opt "CCS_BENCH_XL" <> None

let xl_spec =
  { Ccs.Generator.n = 1_000_000; classes = 150_000; machines = 100_000;
    slots = 3; p_lo = 1; p_hi = 1000; family = Ccs.Generator.Uniform }

let xl_instance = lazy (Ccs.Generator.generate ~seed:(9 * 7919) xl_spec)

let xl_text = lazy (Ccs.Io.to_string (Lazy.force xl_instance))

let xl_phases () =
  if not xl_enabled then []
  else
    [ ("xl_parse_stream",
       fun () ->
         match Ccs.Io.of_string (Lazy.force xl_text) with
         | Ok f -> ignore (Ccs.Instance.n f)
         | Error e -> failwith e);
      ("xl_solve_splittable",
       fun () -> ignore (Ccs.Approx.Splittable.solve (Lazy.force xl_instance)));
      ("xl_solve_preemptive",
       fun () -> ignore (Ccs.Approx.Preemptive.solve (Lazy.force xl_instance)));
      ("xl_solve_nonpreemptive",
       fun () -> ignore (Ccs.Approx.Nonpreemptive.solve (Lazy.force xl_instance)))
    ]

(* The conflict-driven B&B's gate workload: a bnb-stress instance sized so
   the search visits 92,467 nodes (~0.03 s on a 2-core x86-64 host),
   enough to exercise no-good learning, probing and a few Luby restarts.
   The node count is exact and machine-independent, so the counter side of
   the gate catches a weakened search (lost no-goods, broken symmetry
   breaking) even where the wall would hide in noise. *)
let exact_instance =
  Ccs.Generator.generate ~seed:1234
    { Ccs.Generator.n = 18; classes = 4; machines = 4; slots = 2; p_lo = 1;
      p_hi = 100; family = Ccs.Generator.Bnb_stress }

(* The instance of test/cli/ptas.t (ccs_gen -n 20 -C 4 -m 3 -c 3 --seed 3).
   Its preemptive PTAS at delta = 1/2 stands for ptas-small's costliest
   variant: LP-bound, a search whose size the prune before each node's LP
   decides, and long enough (60-90 ms on a 2-core x86-64 host) to time in
   one solve. *)
let ptas_instance =
  Ccs.Generator.generate ~seed:3
    { Ccs.Generator.n = 20; classes = 4; machines = 3; slots = 3; p_lo = 1;
      p_hi = 100; family = Ccs.Generator.Uniform }

let ptas_preemptive () =
  ignore (Ccs.Ptas.Preemptive_ptas.solve (Ccs.Ptas.Common.param 2) ptas_instance)

(* The E5 shape, sized so every phase takes a few milliseconds at least —
   sub-millisecond phases would drown a 25% gate in scheduler noise — while
   the whole gate still runs in seconds. The approximation algorithms repeat
   their solve inside the phase for the same reason. *)
let phases =
  let approx = instance ~seed:(400 * 7919) ~n:4000 ~classes:800 ~machines:400 ~slots:3 in
  let small = instance ~seed:(30 * 7919) ~n:30 ~classes:6 ~machines:3 ~slots:3 in
  let param = Ccs.Ptas.Common.param 1 in
  let times k f () = for _ = 1 to k do f () done in
  [ ("approx_splittable", times 10 (fun () -> ignore (Ccs.Approx.Splittable.solve approx)));
    ("approx_preemptive", times 10 (fun () -> ignore (Ccs.Approx.Preemptive.solve approx)));
    ("approx_nonpreemptive",
     times 10 (fun () -> ignore (Ccs.Approx.Nonpreemptive.solve approx)));
    (* the warm-started simplex left a single PTAS solve sub-millisecond,
       so these repeat enough to stay a few ms above scheduler noise *)
    ("ptas_splittable",
     times 20 (fun () -> ignore (Ccs.Ptas.Splittable_ptas.solve param small)));
    ("ptas_preemptive", ptas_preemptive);
    ("ptas_nonpreemptive",
     times 50 (fun () -> ignore (Ccs.Ptas.Nonpreemptive_ptas.solve param small)));
    ("exact_bnb",
     fun () -> ignore (Ccs_exact.Bnb.solve_result exact_instance))
  ]
  @ xl_phases ()

let time_phase f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Ccs_util.Mono.now_s () in
    f ();
    best := min !best (Ccs_util.Mono.now_s () -. t0)
  done;
  !best

(* A private int-pair rational for [calibrate]: the same kind of work as
   the solvers' exact arithmetic (gcds, divisions, one small allocation per
   result) but none of the code under test. Calibrating on [Rat] itself
   would let a slower [Rat] raise every scaled baseline with it and so
   partly hide its own regression. *)
module Cal_q = struct
  type t = { n : int; d : int }

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  (* the loop's operands are positive and far below any overflow *)
  let make n d =
    let g = gcd n d in
    { n = n / g; d = d / g }

  let add a b = make ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
  let mul a b = make (a.n * b.n) (a.d * b.d)
  let div a b = make (a.n * b.d) (a.d * b.n)
end

(* A fixed pure-OCaml workload, used to cancel out raw machine speed. *)
let calibrate () =
  time_phase (fun () ->
      (* overwritten every iteration so numerators stay small — a running
         sum would grow its denominator without bound *)
      let acc = ref (Cal_q.make 0 1) in
      for i = 1 to 200_000 do
        let x = Cal_q.make (1 + (i mod 97)) (1 + (i mod 89)) in
        let y = Cal_q.make (1 + (i mod 83)) (1 + (i mod 79)) in
        acc := Cal_q.add (Cal_q.mul x y) (Cal_q.div x y)
      done;
      ignore (Sys.opaque_identity !acc))

let measure () = List.map (fun (name, f) -> (name, time_phase f)) phases

(* Deterministic solver-effort counters over a fixed PTAS workload. Unlike
   walls these are exact and machine-independent, so they are compared
   unscaled: lp.phase1_iterations guards the simplex crash-basis/warm-start
   machinery (a cold-start regression shows up here long before it moves a
   noisy wall), and rat.promotions guards the small-int fast path (a single
   careless magnitude blow-up sends the hot numbers to the Bigint arm). *)
let counter_names =
  [ "lp.phase1_iterations"; "rat.promotions"; "resil.cancel_checks";
    (* the size of the PTAS searches: a pivot-rule or branching change that
       grows the LP path or the B&B tree shows here before it moves a wall *)
    "lp.pivots"; "ilp.nodes";
    (* exact-search effort on the fixed bnb-stress instance: nodes is the
       headline capability number, the others break a node regression down
       (store too small, probing disabled, restarts misfiring) *)
    "bnb.nodes"; "bnb.nogoods"; "bnb.nogood_hits"; "bnb.probe_failed";
    "bnb.restarts" ]
  @
  (* XL counters are exact and machine-independent too: the token count
     pins the streaming lexer's behavior on a fixed 10^6-job file, the
     probe count pins the border / binary searches, the solve count every
     2-approximation run of this block (the XL solves and the PTAS and B&B
     warm starts), and the byte gauge pins the instance at exactly 16
     bytes per job. *)
  if xl_enabled then
    [ "io.stream_tokens"; "border_search.probes"; "approx.solves"; "xl.flat_bytes" ]
  else []

let m_xl_flat_bytes =
  Ccs_obs.Metrics.counter "xl.flat_bytes"
    ~help:"Off-heap bytes of the XL tier's instance (16 per job)"

let measure_counters () =
  let small = instance ~seed:(30 * 7919) ~n:30 ~classes:6 ~machines:3 ~slots:3 in
  let param = Ccs.Ptas.Common.param 1 in
  Ccs_obs.Metrics.reset ();
  Ccs_resil.Deadline.reset_stats ();
  ignore (Ccs.Ptas.Splittable_ptas.solve param small);
  ptas_preemptive ();
  ignore (Ccs.Ptas.Nonpreemptive_ptas.solve param small);
  ignore (Ccs_exact.Bnb.solve_result exact_instance);
  if xl_enabled then begin
    let inst = Lazy.force xl_instance in
    (match Ccs.Io.of_string (Lazy.force xl_text) with
    | Ok f -> ignore (Ccs.Instance.n f)
    | Error e -> failwith e);
    ignore (Ccs.Approx.Splittable.solve inst);
    ignore (Ccs.Approx.Preemptive.solve inst);
    ignore (Ccs.Approx.Nonpreemptive.solve inst);
    Ccs_obs.Metrics.add m_xl_flat_bytes (Ccs.Instance.mem_bytes inst)
  end;
  (* the exact checkpoint count guards the cancellation layer's overhead:
     a new checkpoint in a hot loop moves this long before it moves a wall *)
  Ccs_resil.Deadline.flush_stats ();
  let snap = Ccs_obs.Metrics.snapshot ~all:true () in
  List.map
    (fun name ->
      match Option.bind (List.assoc_opt name snap) (function
        | J.Int i -> Some i
        | _ -> None) with
      | Some v -> (name, v)
      | None ->
          Printf.eprintf "counter %S missing from the metrics registry\n" name;
          exit 2)
    counter_names

(* ---------------- baseline file ---------------- *)

type baseline = {
  calibration_s : float;
  walls : (string * float) list;
  counters : (string * int) list;
}

let number = function
  | J.Float w -> Some w
  | J.Int w -> Some (float_of_int w)
  | _ -> None

let read_baseline path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no %s — run check_regression --update to create it" path)
  else
    let text = In_channel.with_open_text path In_channel.input_all in
    match J.of_string text with
    | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
    | Ok json -> (
        match Option.bind (J.member "calibration_s" json) number with
        | Some calibration_s when calibration_s > 0.0 -> (
            let counters =
              (* absent in baselines written before the counter gate existed *)
              match J.member "counters" json with
              | Some (J.Obj kvs) ->
                  List.filter_map
                    (fun (k, v) -> match v with J.Int i -> Some (k, i) | _ -> None)
                    kvs
              | _ -> []
            in
            match J.member "phases" json with
            | Some (J.Obj kvs) ->
                Ok
                  { calibration_s;
                    walls =
                      List.filter_map
                        (fun (k, v) -> Option.map (fun w -> (k, w)) (number v))
                        kvs;
                    counters }
            | _ -> Error (Printf.sprintf "%s: missing \"phases\" object" path))
        | _ -> Error (Printf.sprintf "%s: missing \"calibration_s\"" path))

let write_baseline path =
  let cal = calibrate () in
  let walls = measure () in
  let counters = measure_counters () in
  let round = J.round_sig 9 in
  let json =
    J.Obj
      [ ("calibration_s", J.Float (round cal));
        ("phases", J.Obj (List.map (fun (n, w) -> (n, J.Float (round w))) walls));
        ("counters", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) counters)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string json);
      Out_channel.output_char oc '\n');
  (cal, List.length walls)

(* ---------------- comparison ---------------- *)

type wall_row = {
  name : string;
  expected_s : float option;  (* baseline wall, machine-speed scaled *)
  current_s : float;
  delta : float option;       (* (current - expected) / expected *)
  regressed : bool;
}

type counter_row = {
  cname : string;
  expected : int option;
  current : int;
  cdelta : float option;
  cregressed : bool;
}

type comparison = {
  scale : float;  (* calibration_now / calibration_baseline *)
  calibration_s : float;
  base_calibration_s : float;
  wall_rows : wall_row list;
  dropped_phases : string list;  (* in baseline, no longer measured *)
  counter_rows : counter_row list;
  tol : float;
}

let regressions cmp =
  List.filter_map (fun r -> if r.regressed then Some r.name else None) cmp.wall_rows
  @ List.filter_map
      (fun r -> if r.cregressed then Some r.cname else None)
      cmp.counter_rows

(* Re-measures the gate workloads and compares against [path]. *)
let compare_to_baseline ?(path = default_baseline_path) () =
  match read_baseline path with
  | Error _ as e -> e
  | Ok base ->
      let cal = calibrate () in
      let scale = cal /. base.calibration_s in
      let current = measure () in
      let current_counters = measure_counters () in
      let wall_rows =
        List.map
          (fun (name, wall) ->
            match List.assoc_opt name base.walls with
            | None ->
                { name; expected_s = None; current_s = wall; delta = None;
                  regressed = false }
            | Some b ->
                let expected = b *. scale in
                let delta = (wall -. expected) /. expected in
                { name; expected_s = Some expected; current_s = wall;
                  delta = Some delta; regressed = delta > tolerance })
          current
      in
      let dropped_phases =
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name current then None else Some name)
          base.walls
      in
      (* counters are exact: no machine-speed scaling, same relative tolerance *)
      let counter_rows =
        List.map
          (fun (cname, v) ->
            match List.assoc_opt cname base.counters with
            | None ->
                { cname; expected = None; current = v; cdelta = None;
                  cregressed = false }
            | Some b ->
                let delta =
                  if b = 0 then if v = 0 then 0.0 else infinity
                  else float_of_int (v - b) /. float_of_int b
                in
                { cname; expected = Some b; current = v; cdelta = Some delta;
                  cregressed = delta > tolerance })
          current_counters
      in
      Ok
        { scale; calibration_s = cal; base_calibration_s = base.calibration_s;
          wall_rows; dropped_phases; counter_rows; tol = tolerance }
