(* Section 3 algorithms: every schedule validated by the independent
   validators, every guarantee of Theorems 4, 5, 6 and Lemma 2 checked
   empirically, with exact optima as ground truth on small instances. *)

module I = Ccs.Instance
module S = Ccs.Schedule
module Q = Rat

let random_instance ?(max_n = 40) ?(max_m = 8) seed =
  let rng = Ccs_util.Prng.create seed in
  let family =
    match Ccs_util.Prng.int rng 4 with
    | 0 -> Ccs.Generator.Uniform
    | 1 -> Zipf
    | 2 -> Heavy_classes
    | _ -> Large_jobs
  in
  let machines = Ccs_util.Prng.int_in rng 1 max_m in
  let slots = Ccs_util.Prng.int_in rng 1 4 in
  let classes = Ccs_util.Prng.int_in rng 1 10 in
  (* keep C <= c*m so the instance is schedulable, and C <= n *)
  let classes = min (min classes (max 1 (slots * machines))) max_n in
  let spec =
    {
      Ccs.Generator.n = Ccs_util.Prng.int_in rng (max 1 classes) max_n;
      classes;
      machines;
      slots;
      p_lo = 1;
      p_hi = 100;
      family;
    }
  in
  Ccs.Generator.generate ~seed:(seed * 7 + 1) spec

(* ---------- splittable (Theorem 4) ---------- *)

let prop_splittable_valid_and_2approx =
  QCheck.Test.make ~name:"Thm 4: splittable schedule valid, makespan <= 2T" ~count:400
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      let sched, stats = Ccs.Approx.Splittable.solve inst in
      match S.validate_splittable inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid schedule: %s" e
      | Ok makespan ->
          let t_guess = stats.Ccs.Approx.Splittable.t_guess in
          Q.(makespan <= Q.mul (Q.of_int 2) t_guess))

let prop_splittable_vs_exact =
  QCheck.Test.make ~name:"Thm 4: T <= opt and makespan <= 2*opt (exact)" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:9 ~max_m:3 seed in
      (* Node_limit -> None: pathological MILPs are skipped, keeping the
         suite's worst-case time bounded. *)
      match Ccs_exact.Splittable_opt.solve ~max_nodes:400 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
          let sched, stats = Ccs.Approx.Splittable.solve inst in
          let makespan =
            match S.validate_splittable inst sched with
            | Ok mk -> mk
            | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
          in
          let t_guess = stats.Ccs.Approx.Splittable.t_guess in
          Q.(t_guess <= opt)
          && Q.(makespan <= Q.mul (Q.of_int 2) opt))

let test_splittable_huge_m () =
  (* Astronomical machine count: algorithm must stay polynomial and emit a
     compressed schedule. 3 classes, heavy loads. *)
  let inst =
    I.make ~machines:1_000_000_000_000 ~slots:1 [ (1000, 0); (999, 1); (998, 2); (7, 0) ]
  in
  let sched, stats = Ccs.Approx.Splittable.solve inst in
  match S.validate_splittable inst sched with
  | Error e -> Alcotest.fail e
  | Ok makespan ->
      (* With that many machines, LB is tiny; T is the smallest feasible
         border; makespan <= 2T. *)
      let t_guess = stats.Ccs.Approx.Splittable.t_guess in
      Alcotest.(check bool) "2-approx" true Q.(makespan <= Q.mul (Q.of_int 2) t_guess);
      Alcotest.(check bool) "used blocks" true (List.length sched.S.blocks > 0)

let test_splittable_single_machine () =
  let inst = I.make ~machines:1 ~slots:2 [ (5, 0); (3, 1) ] in
  let sched, _ = Ccs.Approx.Splittable.solve inst in
  match S.validate_splittable inst sched with
  | Ok makespan -> Alcotest.(check bool) "all on one machine" true (Q.equal makespan (Q.of_int 8))
  | Error e -> Alcotest.fail e

let test_splittable_unschedulable () =
  let inst = I.make ~machines:1 ~slots:1 [ (1, 0); (1, 1) ] in
  match Ccs.Approx.Splittable.solve inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---------- border search (Lemma 2) ---------- *)

let prop_border_search_matches_naive =
  QCheck.Test.make ~name:"Lemma 2: advanced search = naive border scan" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let nclasses = Ccs_util.Prng.int_in rng 1 8 in
      let loads = Array.init nclasses (fun _ -> Ccs_util.Prng.int_in rng 1 60) in
      let machines = Ccs_util.Prng.int_in rng 1 10 in
      let slots = Ccs_util.Prng.int_in rng 1 3 in
      if nclasses > slots * machines then QCheck.assume_fail ()
      else begin
        let total = Array.fold_left ( + ) 0 loads in
        let lb = Q.make (Bigint.of_int total) (Bigint.of_int machines) in
        let a = Ccs.Approx.Border_search.search ~loads ~machines ~slots ~lb in
        let b = Ccs.Approx.Border_search.search_naive ~loads ~machines ~slots ~lb in
        Q.equal a.Ccs.Approx.Border_search.t_star b.Ccs.Approx.Border_search.t_star
      end)

let prop_border_search_probe_bound =
  QCheck.Test.make ~name:"Lemma 2: O(C log m) probes" ~count:100
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let nclasses = Ccs_util.Prng.int_in rng 1 20 in
      let loads = Array.init nclasses (fun _ -> Ccs_util.Prng.int_in rng 1 10_000) in
      let machines = Ccs_util.Prng.int_in rng nclasses 1_000_000 in
      let total = Array.fold_left ( + ) 0 loads in
      let lb = Q.make (Bigint.of_int total) (Bigint.of_int machines) in
      let r = Ccs.Approx.Border_search.search ~loads ~machines ~slots:1 ~lb in
      (* 1 (lb probe) + per class: 1 + ceil(log2 m) probes *)
      let log2m =
        int_of_float (ceil (log (float_of_int machines) /. log 2.0)) + 2
      in
      r.Ccs.Approx.Border_search.probes <= 1 + (nclasses * (log2m + 1)))

(* ---------- preemptive (Theorem 5) ---------- *)

let prop_preemptive_valid_and_2approx =
  QCheck.Test.make ~name:"Thm 5: preemptive schedule valid, makespan <= 2T" ~count:400
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      let sched, stats = Ccs.Approx.Preemptive.solve inst in
      match S.validate_preemptive inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid schedule: %s" e
      | Ok makespan ->
          let t_guess = stats.Ccs.Approx.Preemptive.t_guess in
          Q.(makespan <= Q.mul (Q.of_int 2) t_guess))

let prop_preemptive_vs_split_opt =
  QCheck.Test.make ~name:"Thm 5: makespan <= 2*opt (split-opt lower bound)" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:9 ~max_m:3 seed in
      match Ccs_exact.Splittable_opt.solve ~max_nodes:400 inst with
      | None -> QCheck.assume_fail ()
      | Some split_opt ->
          (* preemptive opt >= max(split opt, pmax) *)
          let pre_lb = Q.max split_opt (Q.of_int (I.pmax inst)) in
          let sched, _ = Ccs.Approx.Preemptive.solve inst in
          let makespan =
            match S.validate_preemptive inst sched with
            | Ok mk -> mk
            | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
          in
          Q.(makespan <= Q.mul (Q.of_int 2) pre_lb))

let test_preemptive_many_machines () =
  let inst = I.make ~machines:100 ~slots:1 [ (5, 0); (9, 1); (3, 2) ] in
  let sched, _ = Ccs.Approx.Preemptive.solve inst in
  match S.validate_preemptive inst sched with
  | Ok makespan -> Alcotest.(check bool) "optimal pmax" true (Q.equal makespan (Q.of_int 9))
  | Error e -> Alcotest.fail e

(* ---------- non-preemptive (Theorem 6) ---------- *)

let prop_nonpreemptive_valid_and_73 =
  QCheck.Test.make ~name:"Thm 6: non-preemptive valid, makespan <= 7/3 T" ~count:400
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
      match S.validate_nonpreemptive inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid schedule: %s" e
      | Ok makespan ->
          3 * makespan <= 7 * stats.Ccs.Approx.Nonpreemptive.t_guess)

let prop_nonpreemptive_vs_exact =
  QCheck.Test.make ~name:"Thm 6: T <= opt and makespan <= 7/3 opt (exact B&B)" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:11 ~max_m:4 seed in
      match Ccs_exact.Bnb.solve inst with
      | None -> QCheck.assume_fail ()
      | Some (opt, _) ->
          let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
          let makespan =
            match S.validate_nonpreemptive inst sched with
            | Ok mk -> mk
            | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
          in
          stats.Ccs.Approx.Nonpreemptive.t_guess <= opt && 3 * makespan <= 7 * opt)

let test_cu_counts () =
  (* T = 12: jobs 7,7 are > T/2 (need 2 machines); 5,5 in (4,6] pair on top
     (7+5=12 fits); area = 24/12 = 2. So C_u = 2. *)
  Alcotest.(check int) "paired" 2 (Ccs.Approx.Nonpreemptive.cu ~t:12 [ 7; 7; 5; 5 ]);
  (* T = 12: jobs 11,11: bigs, no mids; area 22/12 -> 2; C2 = 2. *)
  Alcotest.(check int) "two bigs" 2 (Ccs.Approx.Nonpreemptive.cu ~t:12 [ 11; 11 ]);
  (* T = 12: five mids of 5: pairs -> ceil(5/2) = 3 > area ceil(25/12) = 3. *)
  Alcotest.(check int) "mids" 3 (Ccs.Approx.Nonpreemptive.cu ~t:12 [ 5; 5; 5; 5; 5 ]);
  (* large-job bound dominates area: 7,7,7 with T=12: area=ceil(21/12)=2 but
     three bigs need 3 machines. *)
  Alcotest.(check int) "bigs dominate" 3 (Ccs.Approx.Nonpreemptive.cu ~t:12 [ 7; 7; 7 ]);
  Alcotest.(check int) "area only" 2 (Ccs.Approx.Nonpreemptive.cu_area_only ~t:12 [ 7; 7; 7 ]);
  (* exactly T/2 is a mid, exactly T/3 neither: three 6s pair up two per
     machine, six 4s only fill the area bound ceil(24/12) *)
  Alcotest.(check int) "T/2 is a mid" 2 (Ccs.Approx.Nonpreemptive.cu ~t:12 [ 6; 6; 6 ]);
  Alcotest.(check int) "T/3 is small" 2
    (Ccs.Approx.Nonpreemptive.cu ~t:12 [ 4; 4; 4; 4; 4; 4 ])

(* The flat core classifies by scanning a size-descending segment, so its
   boundaries are where the scan stops. On two machines with one slot, T =
   12 is feasible only if three jobs of exactly T/2 count as mids, and six
   of exactly T/3 as small. *)
let test_boundaries_flat () =
  List.iter
    (fun (name, p, k) ->
      let inst = I.make ~machines:2 ~slots:1 (List.init k (fun _ -> (p, 0))) in
      let _, rec_stats = Ccs.Approx.Nonpreemptive.solve inst in
      let _, flat_stats = Ccs.Approx.Nonpreemptive.solve_flat (I.to_flat inst) in
      Alcotest.(check int) (name ^ " record") 12 rec_stats.Ccs.Approx.Nonpreemptive.t_guess;
      Alcotest.(check int) (name ^ " flat") 12 flat_stats.Ccs.Approx.Nonpreemptive.t_guess)
    [ ("T/2", 6, 3); ("T/3", 4, 6) ]

let test_nonpreemptive_example () =
  let inst = I.make ~machines:2 ~slots:2 [ (6, 0); (6, 1); (6, 2); (6, 3) ] in
  let sched, _ = Ccs.Approx.Nonpreemptive.solve inst in
  match S.validate_nonpreemptive inst sched with
  | Ok mk -> Alcotest.(check bool) "reasonable" true (mk <= 28)
  | Error e -> Alcotest.fail e

(* ---------- exact solvers sanity ---------- *)

let prop_preemptive_vs_true_opt =
  QCheck.Test.make ~name:"Thm 5: makespan <= 2 * true preemptive opt" ~count:30
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:8 ~max_m:3 seed in
      match Ccs_exact.Preemptive_opt.opt ~max_nodes:2_000 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
          let sched, _ = Ccs.Approx.Preemptive.solve inst in
          let makespan =
            match S.validate_preemptive inst sched with
            | Ok mk -> mk
            | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
          in
          Q.(makespan <= Q.mul (Q.of_int 2) opt))

let prop_preemptive_opt_sandwich =
  QCheck.Test.make ~name:"split opt <= preemptive opt <= nonpreemptive opt" ~count:25
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:7 ~max_m:3 seed in
      match
        ( Ccs_exact.Splittable_opt.solve ~max_nodes:400 inst,
          Ccs_exact.Preemptive_opt.opt ~max_nodes:2_000 inst,
          Ccs_exact.Bnb.solve inst )
      with
      | Some split, Some pre, Some (np, _) ->
          Q.(split <= pre) && Q.(pre <= Q.of_int np)
          && Q.(pre >= Q.of_int (I.pmax inst))
      | _ -> QCheck.assume_fail ())

let prop_huge_m_safety =
  (* astronomically many machines: no overflow, valid compressed output *)
  QCheck.Test.make ~name:"Thm 4 with m up to 10^15: valid, no overflow" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let machines =
        let base = Ccs_util.Prng.int_in rng 1_000_000 1_000_000_000 in
        base * Ccs_util.Prng.int_in rng 1 1_000_000
      in
      let classes = Ccs_util.Prng.int_in rng 1 6 in
      let jobs =
        List.init (Ccs_util.Prng.int_in rng classes 12) (fun i ->
            (Ccs_util.Prng.int_in rng 1 1_000_000, if i < classes then i else Ccs_util.Prng.int rng classes))
      in
      let inst = I.make ~machines ~slots:(Ccs_util.Prng.int_in rng 1 3) jobs in
      let sched, stats = Ccs.Approx.Splittable.solve inst in
      match S.validate_splittable inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
      | Ok makespan ->
          let t_guess = stats.Ccs.Approx.Splittable.t_guess in
          Q.(makespan <= Q.mul (Q.of_int 2) t_guess))

(* Loads near max_int: no sum, ceiling or comparison of the three
   approximations may wrap. Every schedule validates and meets its bound
   (checked in [Rat], where 7 * T cannot wrap either), and each flat core
   agrees with its record path. *)
let prop_loads_near_max_int =
  QCheck.Test.make ~name:"loads near max_int: valid, within bound, flat = record" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let n = Ccs_util.Prng.int_in rng 3 40 in
      let classes = Ccs_util.Prng.int_in rng 1 (min 6 (n - 1)) in
      let share = max_int / n in
      let jobs =
        List.init n (fun i ->
            ( Ccs_util.Prng.int_in rng (share / 2) share,
              if i < classes then i else Ccs_util.Prng.int rng classes ))
      in
      let slots = Ccs_util.Prng.int_in rng 1 3 in
      let machines = Ccs_util.Prng.int_in rng ((classes + slots - 1) / slots) (n - 1) in
      let inst = I.make ~machines ~slots jobs in
      let fl = I.to_flat inst in
      let within ~rho t = function
        | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
        | Ok makespan -> Q.(makespan <= Q.mul rho t)
      in
      let two = Q.of_int 2 and seven_thirds = Q.of_ints 7 3 in
      let split, split_stats = Ccs.Approx.Splittable.solve_flat fl in
      let pre, pre_stats = Ccs.Approx.Preemptive.solve inst in
      let np, np_stats = Ccs.Approx.Nonpreemptive.solve inst in
      within ~rho:two split_stats.Ccs.Approx.Splittable.t_guess
        (S.validate_splittable inst split)
      && within ~rho:two pre_stats.Ccs.Approx.Preemptive.t_guess
           (S.validate_preemptive inst pre)
      && within ~rho:seven_thirds (Q.of_int np_stats.Ccs.Approx.Nonpreemptive.t_guess)
           (Result.map Q.of_int (S.validate_nonpreemptive inst np))
      && (pre, pre_stats) = Ccs.Approx.Preemptive.solve_flat fl
      && (np, np_stats) = Ccs.Approx.Nonpreemptive.solve_flat fl)

let prop_bnb_matches_brute =
  QCheck.Test.make ~name:"B&B = brute force on tiny instances" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:7 ~max_m:3 seed in
      match (Ccs_exact.Bnb.solve inst, Ccs_exact.Bnb.brute_force inst) with
      | Some (a, assignment), Some b ->
          a = b
          && (match S.validate_nonpreemptive inst assignment with
             | Ok mk -> mk = a
             | Error _ -> false)
      | None, None -> true
      | _ -> false)

let prop_split_opt_lower_bound =
  QCheck.Test.make ~name:"splittable opt >= area bound, <= nonpreemptive opt" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:8 ~max_m:3 seed in
      match (Ccs_exact.Splittable_opt.solve ~max_nodes:400 inst, Ccs_exact.Bnb.solve inst) with
      | Some split, Some (nonpre, _) ->
          Q.(split >= Ccs.Bounds.lb_splittable inst) && Q.(split <= Q.of_int nonpre)
      | _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "approx"
    [ ( "splittable",
        [ Alcotest.test_case "huge m (10^12 machines)" `Quick test_splittable_huge_m;
          Alcotest.test_case "single machine" `Quick test_splittable_single_machine;
          Alcotest.test_case "unschedulable rejected" `Quick test_splittable_unschedulable ] );
      ( "preemptive",
        [ Alcotest.test_case "m >= n fast path" `Quick test_preemptive_many_machines ] );
      ( "nonpreemptive",
        [ Alcotest.test_case "C_u computation" `Quick test_cu_counts;
          Alcotest.test_case "small example" `Quick test_nonpreemptive_example;
          Alcotest.test_case "T/2 and T/3 boundaries (flat)" `Quick test_boundaries_flat ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_splittable_valid_and_2approx; prop_splittable_vs_exact;
            prop_border_search_matches_naive; prop_border_search_probe_bound;
            prop_preemptive_valid_and_2approx; prop_preemptive_vs_split_opt;
            prop_nonpreemptive_valid_and_73; prop_nonpreemptive_vs_exact;
            prop_preemptive_vs_true_opt; prop_preemptive_opt_sandwich;
            prop_huge_m_safety; prop_loads_near_max_int; prop_bnb_matches_brute;
            prop_split_opt_lower_bound ] ) ]
