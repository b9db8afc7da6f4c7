(* Section 4 PTASs: every produced schedule is validated independently;
   makespans are checked against the per-case guarantee formulas, against
   exact optima on small instances, and the oracles are cross-validated
   against the paper's literal N-fold formulation. *)

module I = Ccs.Instance
module S = Ccs.Schedule
module Q = Rat
module C = Ccs.Ptas.Common

let random_instance ?(max_n = 12) ?(max_m = 3) ?(max_p = 30) seed =
  let rng = Ccs_util.Prng.create seed in
  let machines = Ccs_util.Prng.int_in rng 1 max_m in
  let slots = Ccs_util.Prng.int_in rng 1 3 in
  let classes = min (Ccs_util.Prng.int_in rng 1 5) (max 1 (slots * machines)) in
  let classes = min classes max_n in
  let spec =
    {
      Ccs.Generator.n = Ccs_util.Prng.int_in rng classes max_n;
      classes;
      machines;
      slots;
      p_lo = 1;
      p_hi = max_p;
      family = (match seed mod 3 with 0 -> Ccs.Generator.Uniform | 1 -> Zipf | _ -> Heavy_classes);
    }
  in
  Ccs.Generator.generate ~seed:(seed * 13 + 5) spec

let p2 = C.param 2

(* splittable guarantee: Tbar + delta*T = (1 + 5 delta) T *)
let splittable_guarantee p t =
  let delta = C.delta p in
  Q.mul (Q.add Q.one (Q.mul (Q.of_int 5) delta)) t

(* ---------- splittable PTAS ---------- *)

let prop_splittable_ptas_valid =
  QCheck.Test.make ~name:"Thm 10: splittable PTAS valid + within guarantee" ~count:25
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      let sched, stats = Ccs.Ptas.Splittable_ptas.solve p2 inst in
      match S.validate_splittable inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
      | Ok makespan ->
          let t_accepted = stats.Ccs.Ptas.Splittable_ptas.t_accepted in
          Q.(makespan <= splittable_guarantee p2 t_accepted))

let prop_splittable_ptas_vs_exact =
  QCheck.Test.make ~name:"Thm 10: accepted T within (1+delta) of exact opt" ~count:8
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:7 ~max_p:20 seed in
      match Ccs_exact.Splittable_opt.solve ~max_nodes:400 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
          let _, stats = Ccs.Ptas.Splittable_ptas.solve p2 inst in
          (* completeness: the search cannot overshoot the optimum by more
             than one geometric grid step *)
          let t_accepted = stats.Ccs.Ptas.Splittable_ptas.t_accepted in
          Q.(t_accepted <= Q.mul (Q.add Q.one (C.delta p2)) opt))

let test_splittable_ptas_huge_m () =
  let inst =
    I.make ~machines:1_000_000_000_000 ~slots:1 [ (500, 0); (499, 1); (498, 2); (3, 0) ]
  in
  let sched, stats = Ccs.Ptas.Splittable_ptas.solve p2 inst in
  Alcotest.(check bool) "compressed" true stats.Ccs.Ptas.Splittable_ptas.compressed;
  match S.validate_splittable inst sched with
  | Ok makespan ->
      let t_accepted = stats.Ccs.Ptas.Splittable_ptas.t_accepted in
      Alcotest.(check bool) "guarantee" true
        Q.(makespan <= splittable_guarantee p2 t_accepted)
  | Error e -> Alcotest.fail e

let prop_oracle_matches_nfold_form =
  (* delta = 1: the coarsest accuracy keeps the duplicated N-fold small
     enough for the flattened exact solve; agreement is what matters. *)
  QCheck.Test.make ~name:"aggregated oracle = paper's N-fold form (delta=1)" ~count:8
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let p1 = C.param 1 in
      let inst = random_instance ~max_n:6 ~max_m:2 ~max_p:12 seed in
      let lb = Ccs.Bounds.lb_splittable inst in
      try
        List.for_all
          (fun num ->
            let t = Q.mul lb (Q.of_ints num 8) in
            let agg = Ccs.Ptas.Splittable_ptas.oracle p1 inst t <> None in
            let nf = Ccs.Ptas.Nfold_form.feasible_splittable p1 inst t in
            agg = nf)
          [ 8; 11; 16 ]
      with C.Budget_exceeded -> QCheck.assume_fail ())

let prop_np_oracle_matches_nfold_form =
  QCheck.Test.make ~name:"non-preemptive oracle = paper's N-fold form (delta=1)" ~count:8
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let p1 = C.param 1 in
      let inst = random_instance ~max_n:6 ~max_m:2 ~max_p:12 seed in
      let lb =
        Q.of_int
          (max (I.pmax inst)
             ((I.total_load inst + I.m inst - 1) / I.m inst))
      in
      try
        (* probe at pmax (large classes exist) and two larger guesses *)
        List.for_all
          (fun t ->
            let agg = Ccs.Ptas.Nonpreemptive_ptas.oracle p1 inst t <> None in
            let nf = Ccs.Ptas.Nfold_form.feasible_nonpreemptive p1 inst t in
            agg = nf)
          [ Q.of_int (I.pmax inst); lb; Q.mul lb (Q.of_ints 3 2) ]
      with C.Budget_exceeded -> QCheck.assume_fail ())

let test_nfold_form_shape () =
  (* r and s as the paper claims: s = 2 locally uniform rows, r independent
     of the number of classes. *)
  let inst = I.make ~machines:2 ~slots:2 [ (8, 0); (5, 1); (3, 2); (2, 2) ] in
  let b = Ccs.Ptas.Nfold_form.build_splittable p2 inst (Ccs.Bounds.lb_splittable inst) in
  Alcotest.(check int) "s = 2" 2 b.Ccs.Ptas.Nfold_form.program.Nfold.s;
  Alcotest.(check int) "n = C" (I.num_classes inst) b.Ccs.Ptas.Nfold_form.program.Nfold.n;
  let expected_r = 1 + b.Ccs.Ptas.Nfold_form.n_modules + (2 * b.Ccs.Ptas.Nfold_form.n_hb) in
  Alcotest.(check int) "r = 1 + |M| + 2|HB|" expected_r b.Ccs.Ptas.Nfold_form.program.Nfold.r

(* ---------- non-preemptive PTAS ---------- *)

let prop_nonpreemptive_ptas_valid =
  QCheck.Test.make ~name:"Thm 14: non-preemptive PTAS valid + within guarantee" ~count:25
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve p2 inst in
      match S.validate_nonpreemptive inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
      | Ok makespan ->
          let t_accepted = stats.Ccs.Ptas.Nonpreemptive_ptas.t_accepted in
          Q.(Q.of_int makespan <= Ccs.Ptas.Nonpreemptive_ptas.guarantee p2 t_accepted))

let prop_nonpreemptive_ptas_vs_exact =
  QCheck.Test.make ~name:"Thm 14: accepted T within (1+delta) of exact opt" ~count:12
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:9 seed in
      match Ccs_exact.Bnb.solve inst with
      | None -> QCheck.assume_fail ()
      | Some (opt, _) ->
          let _, stats = Ccs.Ptas.Nonpreemptive_ptas.solve p2 inst in
          let t_accepted = stats.Ccs.Ptas.Nonpreemptive_ptas.t_accepted in
          Q.(t_accepted <= Q.mul (Q.add Q.one (C.delta p2)) (Q.of_int opt)))

let test_nonpreemptive_grouping_heavy () =
  (* many tiny jobs force the Lemma 12 bundling path *)
  let jobs = List.init 24 (fun i -> (1, i mod 3)) in
  let inst = I.make ~machines:2 ~slots:2 jobs in
  let sched, _ = Ccs.Ptas.Nonpreemptive_ptas.solve p2 inst in
  match S.validate_nonpreemptive inst sched with
  | Ok mk -> Alcotest.(check bool) "sane makespan" true (mk >= 12 && mk <= 24)
  | Error e -> Alcotest.fail e

(* ---------- preemptive PTAS ---------- *)

let prop_preemptive_ptas_valid =
  QCheck.Test.make ~name:"Thm 19: preemptive PTAS valid + within guarantee" ~count:20
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:10 seed in
      let sched, stats = Ccs.Ptas.Preemptive_ptas.solve p2 inst in
      match S.validate_preemptive inst sched with
      | Error e -> QCheck.Test.fail_reportf "invalid: %s" e
      | Ok makespan ->
          let t_accepted = stats.Ccs.Ptas.Preemptive_ptas.t_accepted in
          Q.(makespan <= Ccs.Ptas.Preemptive_ptas.guarantee p2 t_accepted))

let prop_preemptive_ptas_vs_split_opt =
  QCheck.Test.make ~name:"Thm 19: accepted T within (1+delta) of preemptive opt bound" ~count:10
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:8 seed in
      (* the non-preemptive optimum upper-bounds the preemptive optimum *)
      match Ccs_exact.Bnb.solve inst with
      | None -> QCheck.assume_fail ()
      | Some (np_opt, _) ->
          let _, stats = Ccs.Ptas.Preemptive_ptas.solve p2 inst in
          let t_accepted = stats.Ccs.Ptas.Preemptive_ptas.t_accepted in
          Q.(t_accepted <= Q.mul (Q.add Q.one (C.delta p2)) (Q.of_int np_opt)))

let test_preemptive_no_self_parallel_stress () =
  (* jobs exactly at the layer boundaries stress the flow realization *)
  let inst = I.make ~machines:2 ~slots:1 [ (8, 0); (8, 1); (4, 0); (4, 1) ] in
  let sched, _ = Ccs.Ptas.Preemptive_ptas.solve p2 inst in
  match S.validate_preemptive inst sched with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* ---------- delta sweep ---------- *)

let test_delta_sweep () =
  (* finer delta must never produce a worse guarantee-normalized result *)
  let inst = I.make ~machines:2 ~slots:2 [ (9, 0); (7, 1); (5, 2); (4, 3); (2, 0) ] in
  List.iter
    (fun d ->
      let p = C.param d in
      let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve p inst in
      match S.validate_nonpreemptive inst sched with
      | Ok mk ->
          let t_accepted = stats.Ccs.Ptas.Nonpreemptive_ptas.t_accepted in
          Alcotest.(check bool)
            (Printf.sprintf "d=%d within guarantee" d)
            true
            Q.(Q.of_int mk <= Ccs.Ptas.Nonpreemptive_ptas.guarantee p t_accepted)
      | Error e -> Alcotest.fail e)
    [ 1; 2; 3 ]

let test_common_multisets () =
  let ms = C.multisets ~parts:[ 2; 3 ] ~max_sum:6 ~max_count:3 () in
  (* {}, {2}, {3}, {2,2}, {3,2}, {3,3}, {2,2,2} *)
  Alcotest.(check int) "count" 7 (List.length ms);
  let bounded = C.bounded_multisets ~parts:[ (2, 1); (3, 2) ] ~max_sum:8 ~max_count:3 () in
  (* {}, {2}, {3}, {3,2}, {3,3}, {3,3,2} *)
  Alcotest.(check int) "bounded count" 6 (List.length bounded);
  (* The DFS's node count, which the enumeration cap and the deadline
     checkpoints both see: the smallest ~limit that does not raise. *)
  let nodes enum =
    let rec go limit = match enum limit with _ -> limit | exception C.Too_many -> go (limit + 1) in
    go 1
  in
  Alcotest.(check int) "nodes" 17
    (nodes (fun limit -> C.multisets ~limit ~parts:[ 2; 3 ] ~max_sum:6 ~max_count:3 ()));
  Alcotest.(check int) "bounded nodes" 15
    (nodes (fun limit ->
         C.bounded_multisets ~limit ~parts:[ (2, 1); (3, 2) ] ~max_sum:8 ~max_count:3 ()))

let test_geometric_search () =
  let oracle t = if Q.(t >= Q.of_int 10) then Some (Q.to_string t) else None in
  let _, accepted =
    C.geometric_search ~lb:Q.one ~ub:(Q.of_int 100) ~delta:(Q.of_ints 1 2) ~oracle ()
  in
  Alcotest.(check bool) "within one grid step" true
    Q.(accepted >= Q.of_int 10 && accepted <= Q.of_int 15)

(* The guess grid, built apart from the search: lb (1+delta)^i up to the
   first point at or above ub, which is clamped to ub. *)
let guess_grid ~lb ~ub ~delta =
  let step = Q.add Q.one delta in
  let rec go t acc = if Q.(t >= ub) then List.rev (ub :: acc) else go (Q.mul t step) (t :: acc) in
  Array.of_list (go lb [])

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

(* Threshold oracles over random grids: accept from grid index k on, with
   k = 0 (the LB), k = imax (only ub) and k past the grid (reject all)
   drawn as often as an interior index. *)
let prop_geometric_search_order =
  let gen =
    QCheck.Gen.(
      let* lb = map2 Q.of_ints (int_range 1 1000) (int_range 1 20) in
      let* gap = map2 Q.of_ints (int_range 0 5000) (int_range 1 20) in
      let* d = oneofl [ 1; 2; 3; 5 ] in
      let* pick = int_range 0 5 in
      let+ r = int_range 0 1_000_000 in
      (lb, Q.add lb gap, Q.of_ints 1 d, pick, r))
  in
  let print (lb, ub, delta, pick, r) =
    Printf.sprintf "lb=%s ub=%s delta=%s pick=%d r=%d" (Q.to_string lb) (Q.to_string ub)
      (Q.to_string delta) pick r
  in
  QCheck.Test.make ~name:"geometric search: LB first, ub only as the fallback" ~count:2000
    (QCheck.make ~print gen) (fun (lb, ub, delta, pick, r) ->
      let grid = guess_grid ~lb ~ub ~delta in
      let imax = Array.length grid - 1 in
      let k = match pick with 0 -> 0 | 1 -> imax | 2 -> imax + 1 | _ -> r mod (imax + 1) in
      let probes = ref [] in
      let oracle t =
        probes := t :: !probes;
        if k <= imax && Q.(t >= grid.(k)) then Some t else None
      in
      let prog = C.progress () in
      let result =
        match C.geometric_search ~progress:prog ~lb ~ub ~delta ~oracle () with
        | found -> Ok found
        | exception Failure msg -> Error msg
      in
      let probes = List.rev !probes in
      let nprobes = List.length probes in
      let highest_rejected =
        List.fold_left
          (fun acc t ->
            if k <= imax && Q.(t >= grid.(k)) then acc
            else match acc with Some h when Q.(h >= t) -> acc | _ -> Some t)
          None probes
      in
      if nprobes > ceil_log2 imax + 2 then
        QCheck.Test.fail_reportf "%d probes for imax = %d" nprobes imax;
      if List.exists (Q.equal ub) probes && k < imax then
        QCheck.Test.fail_reportf "probed ub although grid point %d is accepted" k;
      match result with
      | Error msg ->
          k > imax && msg = "geometric_search: oracle rejected the upper bound"
      | Ok (w, t) ->
          k <= imax && Q.equal t grid.(k) && Q.equal w t
          && (k > 0 || match probes with [ p ] -> Q.equal p lb | _ -> false)
          && (match prog.C.accepted with Some (w', t') -> Q.equal w' w && Q.equal t' t | None -> false)
          && Option.equal Q.equal prog.C.rejected highest_rejected)

(* ---------- the configuration budget ladder ---------- *)

module Sp = Ccs.Ptas.Splittable_ptas
module Np = Ccs.Ptas.Nonpreemptive_ptas
module Pre = Ccs.Ptas.Preemptive_ptas

(* Each PTAS's ladder accepts exactly the guesses that its paper rung
   alone accepts (only the paper rung may reject, and a smaller budget's
   witness implies the paper's), and an accepted schedule keeps the
   paper's guarantee at that guess. The guesses are grid points around
   each variant's lower bound, one of them below it. *)
let prop_ladder_matches_paper_rung =
  let gen = QCheck.Gen.(pair (int_range 0 1_000_000) (oneofl [ 1; 2; 3 ])) in
  let print (seed, d) = Printf.sprintf "seed=%d d=%d" seed d in
  QCheck.Test.make ~name:"budget ladder accepts = paper rung accepts, within guarantee"
    ~count:30 (QCheck.make ~print gen) (fun (seed, d) ->
      let p = C.param d in
      let inst = random_instance ~max_n:8 ~max_p:20 seed in
      let step = Q.add Q.one (C.delta p) in
      let check what ~lb ~ladder ~paper ~makespan ~guarantee =
        List.iter
          (fun t ->
            (* a paper ILP out of nodes gives no verdict to compare *)
            match (ladder t, paper t) with
            | exception C.Budget_exceeded -> ()
            | Some w, Some _ ->
                let mk = makespan w in
                if Q.(mk > guarantee p t) then
                  QCheck.Test.fail_reportf "%s at T=%s: makespan %s above the guarantee" what
                    (Q.to_string t) (Q.to_string mk)
            | None, None -> ()
            | l, _ ->
                QCheck.Test.fail_reportf "%s %s T=%s, unlike its paper rung" what
                  (if Option.is_none l then "rejects" else "accepts")
                  (Q.to_string t))
          [ Q.div lb step; lb; Q.mul lb step; Q.mul lb (Q.mul step step) ]
      in
      check "splittable" ~lb:(Ccs.Bounds.lb_splittable inst)
        ~ladder:(Sp.oracle p inst) ~paper:(Sp.oracle_at C.Paper p inst)
        ~makespan:(fun (s, _) -> Result.get_ok (S.validate_splittable inst s))
        ~guarantee:splittable_guarantee;
      check "non-preemptive" ~lb:(Q.of_int (Ccs.Bounds.lb_integral inst))
        ~ladder:(Np.oracle p inst) ~paper:(Np.oracle_at C.Paper p inst)
        ~makespan:(fun (a, _) -> Q.of_int (Result.get_ok (S.validate_nonpreemptive inst a)))
        ~guarantee:Np.guarantee;
      check "preemptive" ~lb:(Ccs.Bounds.lb_preemptive inst)
        ~ladder:(Pre.oracle p inst) ~paper:(Pre.oracle_at C.Paper p inst)
        ~makespan:(fun (s, _, _) -> Result.get_ok (S.validate_preemptive inst s))
        ~guarantee:Pre.guarantee;
      true)

(* The rungs a ladder tries, and what it returns, for a scripted attempt. *)
let run_ladder ?(d = 1) ~paper script =
  let tried = ref [] in
  let result =
    C.budget_ladder (C.param d) ~paper Q.one (fun rung ->
        tried := rung :: !tried;
        script rung)
  in
  (List.rev !tried, result)

let rung_list = Alcotest.testable (fun ppf rungs ->
    List.iter
      (function
        | C.Rung k -> Format.fprintf ppf "Rung %d; " k
        | C.Paper -> Format.fprintf ppf "Paper")
      rungs) ( = )

let test_ladder_rungs () =
  let reject _ = None in
  (* np at delta = 1: the paper's budget is 12T, so k doubles up to 8 *)
  Alcotest.(check rung_list) "np, delta = 1" [ C.Rung 1; C.Rung 2; C.Rung 4; C.Rung 8; C.Paper ]
    (fst (run_ladder ~paper:(Np.paper_budget (C.param 1)) reject));
  (* split's paper budget is rung 4 itself *)
  Alcotest.(check rung_list) "split, delta = 1/2" [ C.Rung 1; C.Rung 2; C.Paper ]
    (fst (run_ladder ~d:2 ~paper:(Sp.paper_budget (C.param 2)) reject));
  Alcotest.(check rung_list) "pre, delta = 1/3" [ C.Rung 1; C.Rung 2; C.Paper ]
    (fst (run_ladder ~d:3 ~paper:(Pre.paper_budget (C.param 3)) reject));
  let tried, result = run_ladder ~paper:(Q.of_int 5) (function C.Rung 2 -> Some 2 | _ -> None) in
  Alcotest.(check rung_list) "stops at the first witness" [ C.Rung 1; C.Rung 2 ] tried;
  Alcotest.(check (option int)) "that rung's witness" (Some 2) result

let test_ladder_fall_through () =
  let paper = Q.of_int 4 in
  (* below the paper rung, an undecided ILP and an unrealizable witness
     move on to the next rung *)
  let tried, result =
    run_ladder ~paper (function
      | C.Rung 1 -> raise C.Budget_exceeded
      | C.Rung 2 -> raise (C.Unrealizable "layers")
      | _ -> Some ())
  in
  Alcotest.(check rung_list) "both fall through" [ C.Rung 1; C.Rung 2; C.Paper ] tried;
  Alcotest.(check (option unit)) "paper witness" (Some ()) result;
  (* at the paper rung an undecided ILP propagates, and an unrealizable
     witness is the solver bug Lemma 16 rules out there *)
  Alcotest.check_raises "paper: undecided ILP" C.Budget_exceeded (fun () ->
      ignore (run_ladder ~paper (function C.Paper -> raise C.Budget_exceeded | _ -> None)));
  Alcotest.check_raises "paper: unrealizable is a solver bug" (Failure "layers") (fun () ->
      ignore
        (run_ladder ~paper (function C.Paper -> raise (C.Unrealizable "layers") | _ -> None)));
  (* a lower rung's configurations are a subset of the paper's: a blown
     enumeration or a cancellation ends the ladder where it happens *)
  let cancelled =
    Ccs_resil.Deadline.Cancelled { site = "ptas.enum"; reason = Ccs_resil.Deadline.Expired }
  in
  List.iter
    (fun (what, exn) ->
      let attempts = ref 0 in
      Alcotest.check_raises what exn (fun () ->
          ignore
            (C.budget_ladder (C.param 1) ~paper Q.one (fun _ ->
                 incr attempts;
                 raise exn)));
      Alcotest.(check int) (what ^ " at the first rung") 1 !attempts)
    [ ("too many configurations", C.Too_many); ("cancelled", cancelled) ]

(* At a fine delta the module sizes (split), the layers (pre) or the
   budget products (all three) alone exceed the enumeration cap or a
   native int: the oracle refuses before it allocates them. *)
let test_fine_delta_refused () =
  let inst = I.make ~machines:2 ~slots:2 [ (9, 0); (7, 1); (5, 2); (4, 3); (2, 0) ] in
  let t = Q.of_int 14 in
  List.iter
    (fun d ->
      let p = C.param d in
      let refuses what f =
        Alcotest.check_raises (Printf.sprintf "%s, d = %d" what d) C.Too_many (fun () ->
            ignore (f ()))
      in
      refuses "splittable" (fun () -> Sp.oracle p inst t);
      refuses "preemptive" (fun () -> Pre.oracle p inst t);
      if d > 1_000_000_000 then refuses "non-preemptive" (fun () -> Np.oracle p inst t))
    [ 1_000; 1_000_000; 10_000_000_000; 1_000_000_000_000_000_000 ];
  Alcotest.check_raises "units overflow" C.Too_many (fun () ->
      ignore (C.units [ 3; 1 lsl 31; 1 lsl 31 ]));
  Alcotest.(check int) "units" 60 (C.units [ 3; 4; 5 ])

(* x0 + x1 = 1 and x0 = x1 meet only at (1/2, 1/2): the root relaxation is
   fractional, so deciding the ILP takes branching. One node is not enough
   and must not be mistaken for "infeasible". *)
let test_int_feasibility_budget () =
  let rows = [ C.row_eq [ (0, 1); (1, 1) ] 1; C.row_eq [ (0, 1); (1, -1) ] 0 ] in
  let upper = [| Some 1; Some 1 |] in
  Alcotest.check_raises "budget of one node" C.Budget_exceeded (fun () ->
      ignore (C.solve_int_feasibility ~max_nodes:1 ~nvars:2 ~upper rows));
  Alcotest.(check bool) "default budget proves infeasible" true
    (C.solve_int_feasibility ~nvars:2 ~upper rows = None)

(* Rows may repeat a variable; its coefficients are summed. *)
let test_int_feasibility_duplicates () =
  let upper = [| Some 3 |] in
  Alcotest.(check bool) "x + x = 1 has no integral point" true
    (C.solve_int_feasibility ~nvars:1 ~upper [ C.row_eq [ (0, 1); (0, 1) ] 1 ] = None);
  Alcotest.(check bool) "3x - x = 2 gives x = 1" true
    (C.solve_int_feasibility ~nvars:1 ~upper [ C.row_eq [ (0, 3); (0, -1) ] 2 ]
    = Some [| 1 |])

(* The shared configuration ILP on a hand-sized input. Row order and
   variable numbering fix the branch & bound's path, so both are pinned;
   coefficient order within a row is not, so each row is compared summed
   per variable, zeros dropped, as the LP reads it. *)
let test_config_program () =
  let prog =
    C.config_program ~machines:4 ~slots:3 ~tbar:20 ~h_unit:2
      ~configs:[| [ 5; 3 ]; [ 3 ]; [] |] ~sizes:[ 5; 3 ] ~modules:[ 3; 5 ]
      ~smalls:[ (2, [ 7; 9 ]) ]
      ~cover:[ C.row_eq [ (1, 5); (0, 3) ] 8 ]
      ~extra:[ C.row_le [ (0, 1); (1, 1) ] 3 ]
      ()
  in
  let show (r : C.row) =
    let summed = Hashtbl.create 8 in
    List.iter
      (fun (j, a) ->
        Hashtbl.replace summed j (a + Option.value ~default:0 (Hashtbl.find_opt summed j)))
      r.coeffs;
    let terms =
      Hashtbl.fold (fun j a acc -> if a = 0 then acc else (j, a) :: acc) summed []
      |> List.sort compare
      |> List.map (fun (j, a) -> Printf.sprintf "%d:%d" j a)
    in
    Printf.sprintf "%s %s %d" (String.concat " " terms)
      (match r.cmp with Lp.Eq -> "=" | Lp.Le -> "<=" | Lp.Ge -> ">=")
      r.rhs
  in
  (* x = 0..2, y = 3..4, w(s, g) = 5..7; groups (8,2), (3,1), (0,0) *)
  Alcotest.(check int) "nvars" 8 prog.C.nvars;
  Alcotest.(check (array (pair int int))) "groups" [| (8, 2); (3, 1); (0, 0) |] prog.C.hb_groups;
  Alcotest.(check (list string)) "rows"
    [ "0:1 1:1 2:1 = 4";  (* (0) *)
      "0:1 4:-1 = 0";  (* (1) size 5 *)
      "0:1 1:1 3:-1 = 0";  (* (1) size 3 *)
      "0:-1 5:1 <= 0";  (* (2) group (8,2) *)
      "0:-4 5:2 <= 0";  (* (3) *)
      "1:-2 6:1 <= 0";  (* (2) group (3,1) *)
      "1:-14 6:2 <= 0";  (* (3) *)
      "2:-3 7:1 <= 0";  (* (2) group (0,0) *)
      "2:-20 7:2 <= 0";  (* (3) *)
      "3:3 4:5 = 8";  (* (4) *)
      "5:1 6:1 7:1 = 2";  (* (5) *)
      "0:1 1:1 <= 3" (* extra *) ]
    (List.map show prog.C.rows);
  let w = C.decode prog [| 1; 0; 3; 1; 1; 2; 0; 0 |] in
  Alcotest.(check (array int)) "x" [| 1; 0; 3 |] w.C.x;
  Alcotest.(check (array int)) "y" [| 1; 1 |] w.C.y;
  Alcotest.(check (array (list int))) "small classes" [| [ 9; 7 ]; []; [] |]
    w.C.small_classes

(* delta = 1/ceil(1/epsilon), defined only while ceil(1/epsilon) is a
   native int: 2^62 is the first float at or above [max_int]. *)
let test_param_of_epsilon () =
  let d eps = Option.map (fun p -> p.C.d) (C.param_of_epsilon eps) in
  let check what want eps = Alcotest.(check (option int)) what want (d eps) in
  check "0.5" (Some 2) 0.5;
  check "0.34" (Some 3) 0.34;
  check "1" (Some 1) 1.0;
  check "5" (Some 1) 5.0;
  check "infinity" (Some 1) Float.infinity;
  check "0" None 0.0;
  check "-0" None (-0.0);
  check "-3" None (-3.0);
  check "-infinity" None Float.neg_infinity;
  check "nan" None Float.nan;
  check "1/epsilon overflows to infinity" None 4.9e-324;
  check "ceil(1/epsilon) = 2^62" None (Float.ldexp 1.0 (-62));
  check "ceil(1/epsilon) = 2^62 - 1024" (Some ((1 lsl 62) - 1024))
    (Float.ldexp (Float.succ 1.0) (-62))

let () =
  Alcotest.run "ptas"
    [ ( "common",
        [ Alcotest.test_case "multiset enumeration" `Quick test_common_multisets;
          Alcotest.test_case "delta of an epsilon" `Quick test_param_of_epsilon;
          Alcotest.test_case "geometric search" `Quick test_geometric_search;
          QCheck_alcotest.to_alcotest prop_geometric_search_order;
          Alcotest.test_case "ILP node budget" `Quick test_int_feasibility_budget;
          Alcotest.test_case "ILP rows sum duplicates" `Quick
            test_int_feasibility_duplicates;
          Alcotest.test_case "configuration ILP layout and rows" `Quick test_config_program;
          Alcotest.test_case "budget ladder rungs" `Quick test_ladder_rungs;
          Alcotest.test_case "budget ladder fall-through" `Quick test_ladder_fall_through;
          Alcotest.test_case "fine delta refused before allocating" `Quick
            test_fine_delta_refused ] );
      ( "unit",
        [ Alcotest.test_case "splittable huge m (Thm 11)" `Quick test_splittable_ptas_huge_m;
          Alcotest.test_case "N-fold block shape" `Quick test_nfold_form_shape;
          Alcotest.test_case "non-preemptive grouping" `Quick test_nonpreemptive_grouping_heavy;
          Alcotest.test_case "preemptive boundary stress" `Quick test_preemptive_no_self_parallel_stress;
          Alcotest.test_case "delta sweep" `Quick test_delta_sweep ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_splittable_ptas_valid; prop_splittable_ptas_vs_exact;
            prop_oracle_matches_nfold_form; prop_np_oracle_matches_nfold_form;
            prop_nonpreemptive_ptas_valid;
            prop_nonpreemptive_ptas_vs_exact; prop_preemptive_ptas_valid;
            prop_preemptive_ptas_vs_split_opt; prop_ladder_matches_paper_rung ] ) ]
