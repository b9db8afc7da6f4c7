(* Exact simplex tests: textbook LPs with known optima, status detection,
   bound handling, and random LPs cross-checked against brute-force vertex
   enumeration (every basic solution of small dense systems). *)

module Q = Rat

let q = Alcotest.testable Q.pp Q.equal
let qi = Q.of_int
let qr = Q.of_ints

(* Every solve's stats must be internally consistent: simplex cannot pivot
   more often than it iterates, and iteration counts are positive. *)
let check_stats (s : Lp.stats) =
  Alcotest.(check bool) "phase1 iterations >= 1" true (s.Lp.phase1_iterations >= 1);
  Alcotest.(check bool) "phase2 iterations >= 0" true (s.Lp.phase2_iterations >= 0);
  Alcotest.(check bool) "pivots >= 0" true (s.Lp.pivots >= 0);
  Alcotest.(check bool) "pivots bounded by iterations + rows" true
    (s.Lp.pivots <= s.Lp.phase1_iterations + s.Lp.phase2_iterations + 1000)

let solve_opt p =
  match Lp.solve p with
  | Lp.Optimal { objective; solution; stats; _ } ->
      check_stats stats;
      (objective, solution)
  | Lp.Infeasible _ -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded _ -> Alcotest.fail "unexpected unbounded"

let test_textbook_max () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => opt 36 at (2,6). *)
  let p =
    Lp.problem ~nvars:2 ~objective:[| qi (-3); qi (-5) |]
      [ Lp.constr [ (0, Q.one) ] Lp.Le (qi 4);
        Lp.constr [ (1, qi 2) ] Lp.Le (qi 12);
        Lp.constr [ (0, qi 3); (1, qi 2) ] Lp.Le (qi 18) ]
  in
  let obj, x = solve_opt p in
  Alcotest.check q "objective" (qi (-36)) obj;
  Alcotest.check q "x" (qi 2) x.(0);
  Alcotest.check q "y" (qi 6) x.(1)

let test_equality_and_ge () =
  (* min x + y s.t. x + 2y = 4, x >= 1 => opt at (1, 3/2) = 5/2. *)
  let p =
    Lp.problem ~nvars:2 ~objective:[| Q.one; Q.one |]
      [ Lp.constr [ (0, Q.one); (1, qi 2) ] Lp.Eq (qi 4);
        Lp.constr [ (0, Q.one) ] Lp.Ge (qi 1) ]
  in
  let obj, x = solve_opt p in
  Alcotest.check q "objective" (qr 5 2) obj;
  Alcotest.check q "x" Q.one x.(0);
  Alcotest.check q "y" (qr 3 2) x.(1)

let test_infeasible () =
  let p =
    Lp.problem ~nvars:1 ~objective:[| Q.one |]
      [ Lp.constr [ (0, Q.one) ] Lp.Ge (qi 5); Lp.constr [ (0, Q.one) ] Lp.Le (qi 2) ]
  in
  (match Lp.solve p with
  | Lp.Infeasible stats ->
      Alcotest.(check bool) "phase1 ran" true (stats.Lp.phase1_iterations >= 1);
      Alcotest.(check int) "no phase 2" 0 stats.Lp.phase2_iterations
  | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let p = Lp.problem ~nvars:1 ~objective:[| qi (-1) |] [] in
  match Lp.solve p with
  | Lp.Unbounded stats -> check_stats stats
  | _ -> Alcotest.fail "expected unbounded"

let test_bounds () =
  (* min -x - y with 1 <= x <= 3, y <= 2, x + y <= 4. *)
  let lower = [| Some Q.one; Some Q.zero |] in
  let upper = [| Some (qi 3); Some (qi 2) |] in
  let p =
    Lp.problem ~lower ~upper ~nvars:2 ~objective:[| qi (-1); qi (-1) |]
      [ Lp.constr [ (0, Q.one); (1, Q.one) ] Lp.Le (qi 4) ]
  in
  let obj, x = solve_opt p in
  Alcotest.check q "objective" (qi (-4)) obj;
  Alcotest.(check bool) "feasible" true (Lp.feasible p x)

let test_free_variable () =
  (* min x with x free, x >= -7 via constraint: expect -7. *)
  let lower = [| None |] in
  let upper = [| None |] in
  let p =
    Lp.problem ~lower ~upper ~nvars:1 ~objective:[| Q.one |]
      [ Lp.constr [ (0, Q.one) ] Lp.Ge (qi (-7)) ]
  in
  let obj, x = solve_opt p in
  Alcotest.check q "objective" (qi (-7)) obj;
  Alcotest.check q "x" (qi (-7)) x.(0)

let test_model_layout_change () =
  (* A model built with x free, then solved with bounds of another layout:
     a finite lower bound (x >= -3), and a finite upper bound on the free
     variable (one more row). Each must match a cold solve of the
     problem built with those bounds. *)
  let p =
    Lp.problem ~lower:[| None |] ~upper:[| None |] ~nvars:1 ~objective:[| Q.one |]
      [ Lp.constr [ (0, Q.one) ] Lp.Ge (qi (-7)) ]
  in
  let md = Lp.model p in
  List.iter
    (fun (lower, upper, expect) ->
      match (Lp.solve_model md ~lower ~upper, Lp.solve { p with Lp.lower; upper }) with
      | Lp.Optimal { objective; _ }, Lp.Optimal { objective = cold; _ } ->
          Alcotest.check q "matches cold solve" cold objective;
          Alcotest.check q "objective" (qi expect) objective
      | _ -> Alcotest.fail "expected optimal")
    [ ([| None |], [| None |], -7);
      ([| Some (qi (-3)) |], [| None |], -3);
      ([| None |], [| Some (qi (-5)) |], -7) ]

(* Classic degenerate LP that cycles under naive pivoting (Beale). *)
let beale () =
  Lp.problem ~nvars:4
    ~objective:[| qr (-3) 4; qi 150; qr (-1) 50; qi 6 |]
    [ Lp.constr [ (0, qr 1 4); (1, qi (-60)); (2, qr (-1) 25); (3, qi 9) ] Lp.Le Q.zero;
      Lp.constr [ (0, qr 1 2); (1, qi (-90)); (2, qr (-1) 50); (3, qi 3) ] Lp.Le Q.zero;
      Lp.constr [ (2, Q.one) ] Lp.Le Q.one ]

let test_degenerate () =
  let obj, _ = solve_opt (beale ()) in
  Alcotest.check q "objective" (qr (-1) 20) obj

let test_anticycling () =
  (* Beale's LP with zero tolerance for degenerate streaks: pricing must
     hand over to Bland at the first degenerate pivot, the handover and at
     least one Bland-chosen pivot must be reported, and — this is the
     anti-cycling guarantee — the solve still terminates at the optimum. *)
  match Lp.solve ~bland_after:0 (beale ()) with
  | Lp.Optimal { objective; stats; _ } ->
      Alcotest.check q "objective" (qr (-1) 20) objective;
      Alcotest.(check bool) "bland pivot reported" true stats.Lp.bland_switched;
      Alcotest.(check bool) "handover counted" true (stats.Lp.pricing_switches >= 1)
  | _ -> Alcotest.fail "expected optimal"

let textbook () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => opt 36 at (2,6). *)
  Lp.problem ~nvars:2 ~objective:[| qi (-3); qi (-5) |]
    [ Lp.constr [ (0, Q.one) ] Lp.Le (qi 4);
      Lp.constr [ (1, qi 2) ] Lp.Le (qi 12);
      Lp.constr [ (0, qi 3); (1, qi 2) ] Lp.Le (qi 18) ]

let test_warm_restart () =
  (* Re-solving the same problem from its own optimal basis must skip
     phase 1 entirely. *)
  let p = textbook () in
  match Lp.solve p with
  | Lp.Optimal { basis; objective = o1; _ } -> (
      match Lp.solve ~warm:basis p with
      | Lp.Optimal { objective = o2; stats; _ } ->
          Alcotest.check q "same optimum" o1 o2;
          Alcotest.(check bool) "warm adopted" true stats.Lp.warm_started;
          Alcotest.(check int) "phase 1 skipped" 0 stats.Lp.phase1_iterations
      | _ -> Alcotest.fail "expected optimal")
  | _ -> Alcotest.fail "expected optimal"

let test_warm_dual_repair () =
  (* Tighten one variable bound after the solve, exactly as branch & bound
     does. The parent optimum (2,6) violates the new bound y <= 4, so the
     adopted basis is primal-infeasible and must be repaired by dual
     pivots — not rejected — and the repaired answer must agree with a
     cold solve of the tightened problem. *)
  let p = textbook () in
  match Lp.solve p with
  | Lp.Optimal { basis; _ } -> (
      let p' = { p with Lp.upper = [| None; Some (qi 4) |] } in
      match (Lp.solve ~warm:basis p', Lp.solve p') with
      | Lp.Optimal { objective; solution; stats; _ }, Lp.Optimal { objective = cold; _ }
        ->
          Alcotest.(check bool) "warm adopted" true stats.Lp.warm_started;
          Alcotest.(check bool) "repair pivoted" true (stats.Lp.phase1_iterations >= 1);
          Alcotest.(check bool) "feasible" true (Lp.feasible p' solution);
          Alcotest.check q "matches cold solve" cold objective
      | _ -> Alcotest.fail "expected optimal on both paths")
  | _ -> Alcotest.fail "expected optimal"

let test_dual_repair_zero_cost_tie () =
  (* min x0 + 2 x1 s.t. x0 + x1 + x2 + y = 5, y <= 10: the optimum takes
     x2 = 5 basic, with reduced costs 1, 2 and 0 on x0, x1 and y. Cutting
     x2 to <= 2 leaves one dual-repair pivot on x2's row, where x0, x1 and
     y are all eligible with ratios 1, 2 and 0. The zero-cost column y
     comes last yet must enter: any other choice leaves the basis dual
     infeasible and costs phase-2 pivots. *)
  let p =
    Lp.problem ~upper:[| None; None; None; Some (qi 10) |] ~nvars:4
      ~objective:[| Q.one; qi 2; Q.zero; Q.zero |]
      [ Lp.constr [ (0, Q.one); (1, Q.one); (2, Q.one); (3, Q.one) ] Lp.Eq (qi 5) ]
  in
  let md = Lp.model p in
  match Lp.solve_model md ~lower:p.Lp.lower ~upper:p.Lp.upper with
  | Lp.Optimal { basis; solution; _ } -> (
      Alcotest.check q "parent x2" (qi 5) solution.(2);
      let upper = [| None; None; Some (qi 2); Some (qi 10) |] in
      match
        ( Lp.solve_model ~warm:basis md ~lower:p.Lp.lower ~upper,
          Lp.solve { p with Lp.upper } )
      with
      | Lp.Optimal { objective; solution; stats; _ }, Lp.Optimal { objective = cold; _ }
        ->
          Alcotest.check q "matches cold solve" cold objective;
          Alcotest.(check bool) "warm adopted" true stats.Lp.warm_started;
          Alcotest.(check int) "one repair pivot" 1 stats.Lp.pivots;
          Alcotest.(check int) "optimal on repair" 1 stats.Lp.phase2_iterations;
          Alcotest.check q "y entered" (qi 3) solution.(3);
          Alcotest.check q "x2 at its new bound" (qi 2) solution.(2)
      | _ -> Alcotest.fail "expected optimal on both paths")
  | _ -> Alcotest.fail "expected optimal"

(* One row, sum_j coeffs_j x_j = 5, under [objective]: solved cold under
   [parent_upper], then warm from that basis under [upper], which cuts the
   parent's basic variable. The cut leaves one dual-repair pivot, whose
   entering column the tests below read off the repaired solution. *)
let repair_after_cut ~coeffs ~objective ~parent_upper ~upper =
  let p =
    Lp.problem ~upper:parent_upper ~nvars:(List.length coeffs) ~objective
      [ Lp.constr (List.mapi (fun j a -> (j, a)) coeffs) Lp.Eq (qi 5) ]
  in
  let md = Lp.model p in
  match Lp.solve_model md ~lower:p.Lp.lower ~upper:parent_upper with
  | Lp.Optimal { basis; _ } -> (
      match Lp.solve_model ~warm:basis md ~lower:p.Lp.lower ~upper with
      | Lp.Optimal { solution; stats; _ } ->
          Alcotest.(check bool) "warm adopted" true stats.Lp.warm_started;
          Alcotest.(check int) "one repair pivot" 1 stats.Lp.pivots;
          Alcotest.(check bool) "feasible" true
            (Lp.feasible { p with Lp.upper } solution);
          solution
      | _ -> Alcotest.fail "expected optimal after the cut")
  | _ -> Alcotest.fail "expected optimal"

let test_dual_repair_tie_at_zero () =
  (* Zero objective, as in the PTAS feasibility ILPs, on
     x0/2 + x1 + x2 + 2 x3 = 5. With x3 fixed at 0 the cold solve makes
     x1 = 5 basic. Cutting x1 to <= 2 and freeing x3 ties x0, x2 and x3 at
     ratio 0, with alpha 1/2, 1 and 2. x2, the first with |alpha| >= 1,
     must enter and moves by 3; the lowest index would move x0 by 6, and
     the largest alpha (the highest index too) x3 by 3/2. *)
  let x =
    repair_after_cut ~coeffs:[ qr 1 2; Q.one; Q.one; qi 2 ]
      ~objective:(Array.make 4 Q.zero) ~parent_upper:[| None; None; None; Some Q.zero |]
      ~upper:[| None; Some (qi 2); None; None |]
  in
  Alcotest.(check (array q)) "x2 entered" [| Q.zero; qi 2; qi 3; Q.zero |] x

let test_dual_repair_tie_small_alphas () =
  (* x0/4 + x1/2 + x2/2 + x3 = 5, zero objective: the cold solve makes
     x3 = 5 basic. Cutting x3 to <= 2 ties x0, x1 and x2 at ratio 0 with
     alpha 1/4, 1/2 and 1/2. None reaches 1, so the largest enters, the
     lower index of the two: x1, moved by 3 / (1/2) = 6. *)
  let x =
    repair_after_cut ~coeffs:[ qr 1 4; qr 1 2; qr 1 2; Q.one ]
      ~objective:(Array.make 4 Q.zero) ~parent_upper:(Array.make 4 None)
      ~upper:[| None; None; None; Some (qi 2) |]
  in
  Alcotest.(check (array q)) "x1 entered" [| Q.zero; qi 6; Q.zero; qi 2 |] x

let test_dual_repair_tie_positive () =
  (* min -x2 s.t. x0/2 + x1 + x2 = 5: the optimum takes x2 = 5 basic, with
     reduced costs 1/2 and 1 on x0 and x1. Cutting x2 to <= 2 ties x0
     (alpha 1/2) and x1 (alpha 1) at ratio 1; x1 must enter rather than
     x0. *)
  let x =
    repair_after_cut ~coeffs:[ qr 1 2; Q.one; Q.one ]
      ~objective:[| Q.zero; Q.zero; Q.minus_one |] ~parent_upper:(Array.make 3 None)
      ~upper:[| None; None; Some (qi 2) |]
  in
  Alcotest.(check (array q)) "x1 entered" [| Q.zero; qi 3; qi 2 |] x

let test_fractional_data () =
  (* min 2/3 x + 1/7 y s.t. x + y >= 22/7, y <= 1. Opt: y = 1, x = 15/7. *)
  let p =
    Lp.problem ~nvars:2 ~objective:[| qr 2 3; qr 1 7 |]
      [ Lp.constr [ (0, Q.one); (1, Q.one) ] Lp.Ge (qr 22 7);
        Lp.constr [ (1, Q.one) ] Lp.Le Q.one ]
  in
  let obj, x = solve_opt p in
  Alcotest.check q "x" (qr 15 7) x.(0);
  Alcotest.check q "objective" (Q.add (Q.mul (qr 2 3) (qr 15 7)) (qr 1 7)) obj

(* ---------- the stats record's contract ---------- *)

(* Every pivot happens inside a counted iteration, so on a path that starts
   no simplex run both counts are zero. *)
let pivots_within_iterations (s : Lp.stats) =
  Alcotest.(check bool) "pivots <= iterations" true
    (s.Lp.pivots <= s.Lp.phase1_iterations + s.Lp.phase2_iterations)

let test_stats_cold () =
  (* The textbook LP from the slack basis never makes a degenerate pivot:
     no Bland handover, and nothing warm about a solve given no basis. *)
  match Lp.solve (textbook ()) with
  | Lp.Optimal { stats; _ } ->
      pivots_within_iterations stats;
      Alcotest.(check bool) "pivoted" true (stats.Lp.pivots >= 1);
      Alcotest.(check bool) "not warm" false stats.Lp.warm_started;
      Alcotest.(check bool) "no Bland pivot" false stats.Lp.bland_switched;
      Alcotest.(check int) "no handover" 0 stats.Lp.pricing_switches
  | _ -> Alcotest.fail "expected optimal"

let test_stats_crossed_bounds () =
  (* 3 <= x <= 2 is infeasible before any row is looked at: no phase runs. *)
  let p =
    Lp.problem ~lower:[| Some (qi 3) |] ~upper:[| Some (qi 2) |] ~nvars:1
      ~objective:[| Q.one |]
      [ Lp.constr [ (0, Q.one) ] Lp.Le (qi 10) ]
  in
  match Lp.solve p with
  | Lp.Infeasible stats ->
      Alcotest.(check int) "no phase 1" 0 stats.Lp.phase1_iterations;
      Alcotest.(check int) "no phase 2" 0 stats.Lp.phase2_iterations;
      Alcotest.(check int) "no pivots" 0 stats.Lp.pivots;
      Alcotest.(check bool) "not warm" false stats.Lp.warm_started
  | _ -> Alcotest.fail "expected infeasible"

let test_stats_mismatched_basis () =
  (* A basis of the 3-row textbook LP offered to a 2-row LP is not adopted:
     the solve runs cold, reports so, and finds the cold optimum. *)
  let other =
    Lp.problem ~nvars:2 ~objective:[| qr 2 3; qr 1 7 |]
      [ Lp.constr [ (0, Q.one); (1, Q.one) ] Lp.Ge (qr 22 7);
        Lp.constr [ (1, Q.one) ] Lp.Le Q.one ]
  in
  match Lp.solve (textbook ()) with
  | Lp.Optimal { basis; _ } -> (
      match (Lp.solve ~warm:basis other, Lp.solve other) with
      | Lp.Optimal { objective; stats; _ }, Lp.Optimal { objective = cold; _ } ->
          pivots_within_iterations stats;
          Alcotest.(check bool) "not warm" false stats.Lp.warm_started;
          Alcotest.(check bool) "phase 1 ran" true (stats.Lp.phase1_iterations >= 1);
          Alcotest.check q "matches cold solve" cold objective
      | _ -> Alcotest.fail "expected optimal on both paths")
  | _ -> Alcotest.fail "expected optimal"

let test_stats_warm_repair () =
  (* The warm dual repair's pivots are billed to phase 1, so the same bound
     holds on the warm path. *)
  match Lp.solve (textbook ()) with
  | Lp.Optimal { basis; _ } -> (
      let p' = { (textbook ()) with Lp.upper = [| None; Some (qi 4) |] } in
      match Lp.solve ~warm:basis p' with
      | Lp.Optimal { stats; _ } ->
          Alcotest.(check bool) "warm adopted" true stats.Lp.warm_started;
          pivots_within_iterations stats
      | _ -> Alcotest.fail "expected optimal")
  | _ -> Alcotest.fail "expected optimal"

(* Random-LP oracle: check (a) solver status sanity, (b) exact feasibility of
   returned points, and (c) optimality against a dense grid of feasible
   sample points — any sampled point beating the "optimum" disproves it. *)
let prop_random_lps =
  QCheck.Test.make ~name:"random LPs: feasible answers, no sampled point beats opt"
    ~count:300 (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let nvars = Ccs_util.Prng.int_in rng 1 3 in
      let ncons = Ccs_util.Prng.int_in rng 1 4 in
      let objective = Array.init nvars (fun _ -> qi (Ccs_util.Prng.int_in rng (-5) 5)) in
      let rows =
        List.init ncons (fun _ ->
            let coeffs =
              List.init nvars (fun j -> (j, qi (Ccs_util.Prng.int_in rng (-4) 4)))
            in
            Lp.constr coeffs Lp.Le (qi (Ccs_util.Prng.int_in rng 0 12)))
      in
      (* cap the box so the LP is never unbounded *)
      let upper = Array.make nvars (Some (qi 10)) in
      let p = Lp.problem ~upper ~nvars ~objective rows in
      match Lp.solve p with
      | Lp.Unbounded _ -> false (* impossible: box is bounded *)
      | Lp.Infeasible _ ->
          (* origin is feasible iff all rhs >= 0; rhs were drawn >= 0, so
             infeasibility would be a bug *)
          false
      | Lp.Optimal { objective = obj; solution; stats; _ } ->
          stats.Lp.pivots >= 0
          &&
          Lp.feasible p solution
          &&
          (* grid sampling: integer points in [0,10]^nvars *)
          let beats = ref false in
          let rec walk point j =
            if j = nvars then begin
              let pt = Array.of_list (List.rev point) in
              if Lp.feasible p pt then begin
                let v =
                  Array.to_list pt
                  |> List.mapi (fun k x -> Q.mul objective.(k) x)
                  |> List.fold_left Q.add Q.zero
                in
                if Q.(v < obj) then beats := true
              end
            end
            else
              for v = 0 to 10 do
                walk (qi v :: point) (j + 1)
              done
          in
          walk [] 0;
          not !beats)

(* Branch & bound on one shared model: a random bounded LP, then a chain of
   bound tightenings, each solved from its parent's basis on the model the
   root was built with. Every solve must give the verdict and optimum of a
   cold [Lp.solve] of a freshly built problem. Lower-bound raises shift
   the rhs, often below zero, so the warm path runs on rows that a cold
   start would negate. *)
let prop_shared_model_warm_chain =
  QCheck.Test.make ~name:"shared model: warm tightening chain = fresh cold solves"
    ~count:300 (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let int_in = Ccs_util.Prng.int_in rng in
      let nvars = int_in 2 4 in
      let objective = Array.init nvars (fun _ -> qi (int_in (-5) 5)) in
      let rows =
        List.init (int_in 1 4) (fun _ ->
            let coeffs = List.init nvars (fun j -> (j, qi (int_in (-3) 4))) in
            let cmp = match int_in 0 3 with 0 -> Lp.Eq | 1 -> Lp.Ge | _ -> Lp.Le in
            Lp.constr coeffs cmp (qi (int_in (-4) 12)))
      in
      let lo = Array.make nvars 0 and hi = Array.init nvars (fun _ -> int_in 2 8) in
      let bounds lo hi =
        (Array.map (fun v -> Some (qi v)) lo, Array.map (fun v -> Some (qi v)) hi)
      in
      let lower, upper = bounds lo hi in
      let p = Lp.problem ~lower ~upper ~nvars ~objective rows in
      let md = Lp.model p in
      (* solve on the shared model; returns agreement and the basis to pass on *)
      let step warm lo hi =
        let lower, upper = bounds lo hi in
        let fresh = { p with Lp.lower; upper } in
        match (Lp.solve_model ?warm md ~lower ~upper, Lp.solve fresh) with
        | Lp.Optimal { objective = a; solution; basis; _ }, Lp.Optimal { objective = b; _ }
          ->
            (Q.equal a b && Lp.feasible fresh solution, Some basis)
        | Lp.Infeasible _, Lp.Infeasible _ -> (true, warm)
        | _ -> (false, warm)
      in
      let rec chain k warm lo hi =
        k = 0
        ||
        let j = int_in 0 (nvars - 1) in
        if lo.(j) >= hi.(j) then chain (k - 1) warm lo hi
        else begin
          let lo = Array.copy lo and hi = Array.copy hi in
          if int_in 0 1 = 0 then lo.(j) <- int_in (lo.(j) + 1) hi.(j)
          else hi.(j) <- int_in lo.(j) (hi.(j) - 1);
          let ok, warm = step warm lo hi in
          ok && chain (k - 1) warm lo hi
        end
      in
      let ok, warm = step None lo hi in
      ok && chain (int_in 1 8) warm lo hi)

let () =
  Alcotest.run "lp"
    [ ( "unit",
        [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "equality + ge" `Quick test_equality_and_ge;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "variable bounds" `Quick test_bounds;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "model, other bound layout" `Quick test_model_layout_change;
          Alcotest.test_case "degenerate (Beale)" `Quick test_degenerate;
          Alcotest.test_case "anti-cycling (Bland forced)" `Quick test_anticycling;
          Alcotest.test_case "warm restart skips phase 1" `Quick test_warm_restart;
          Alcotest.test_case "warm dual repair after bound cut" `Quick
            test_warm_dual_repair;
          Alcotest.test_case "dual repair takes the zero-cost tie" `Quick
            test_dual_repair_zero_cost_tie;
          Alcotest.test_case "dual repair tie at ratio 0: first |alpha| >= 1" `Quick
            test_dual_repair_tie_at_zero;
          Alcotest.test_case "dual repair tie, all |alpha| < 1: largest" `Quick
            test_dual_repair_tie_small_alphas;
          Alcotest.test_case "dual repair tie at ratio 1: first |alpha| >= 1" `Quick
            test_dual_repair_tie_positive;
          Alcotest.test_case "fractional data" `Quick test_fractional_data ] );
      (* Alcotest cuts long test names to a width set by the longest group
         label. This label has the 12 characters of the retired
         lst-rounding group's, so the printed names of the other groups'
         tests stay as they were. *)
      ( "solver-stats",
        [ Alcotest.test_case "cold solve" `Quick test_stats_cold;
          Alcotest.test_case "crossed bounds" `Quick test_stats_crossed_bounds;
          Alcotest.test_case "mismatched basis" `Quick test_stats_mismatched_basis;
          Alcotest.test_case "warm repair" `Quick test_stats_warm_repair ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_lps; prop_shared_model_warm_chain ] ) ]
