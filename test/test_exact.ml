(* The conflict-driven exact search and the solver portfolio. The learned
   no-goods, root probing, Luby restarts and identical-machine symmetry
   breaking are pure prunings: none of them may ever cut the optimum, which
   is pinned against the unpruned brute-force reference across every
   generator family — including adversarial knob settings that force
   frequent restarts and no-good store overflows. Each portfolio member's
   proof must match the brute force too. *)

module I = Ccs.Instance
module S = Ccs.Schedule
module Bnb = Ccs_exact.Bnb
module Portfolio = Ccs_exact.Portfolio

let all_families =
  [| Ccs.Generator.Uniform; Zipf; Heavy_classes; Large_jobs; Lp_stress; Bnb_stress |]

(* Tiny instances from every family (brute force caps at n = 10). *)
let random_instance ?(max_n = 8) ?(max_m = 3) seed =
  let rng = Ccs_util.Prng.create seed in
  let family = all_families.(Ccs_util.Prng.int rng (Array.length all_families)) in
  let machines = Ccs_util.Prng.int_in rng 1 max_m in
  let slots = Ccs_util.Prng.int_in rng 1 4 in
  let classes = Ccs_util.Prng.int_in rng 1 8 in
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
  Ccs.Generator.generate ~seed:(seed * 13 + 5) spec

let check_optimal inst (r : Bnb.result) reference =
  (match r.status with
  | Bnb.Complete -> ()
  | _ -> QCheck.Test.fail_reportf "expected a completed search");
  (match S.validate_nonpreemptive inst r.assignment with
  | Ok mk ->
      if mk <> r.makespan then
        QCheck.Test.fail_reportf "assignment makespan %d <> reported %d" mk r.makespan
  | Error e -> QCheck.Test.fail_reportf "invalid assignment: %s" e);
  r.makespan = reference && r.lower_bound = reference

let prop_cdcl_matches_brute =
  QCheck.Test.make ~name:"conflict-driven B&B = brute force (all families)" ~count:120
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      match (Bnb.solve_result inst, Bnb.brute_force inst) with
      | Some r, Some reference -> check_optimal inst r reference
      | None, None -> true
      | _ -> QCheck.Test.fail_reportf "solvers disagree on schedulability")

let prop_cdcl_adversarial_knobs =
  (* A 16-node Luby unit restarts the search relentlessly and a 32-entry
     no-good store overflows constantly: both paths (restart state
     restore, store reset) must preserve the optimum. *)
  QCheck.Test.make ~name:"B&B = brute force under tiny restart unit / no-good cap" ~count:80
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      match (Bnb.solve_result ~restart_unit:16 ~nogood_limit:32 inst, Bnb.brute_force inst) with
      | Some r, Some reference -> check_optimal inst r reference
      | None, None -> true
      | _ -> QCheck.Test.fail_reportf "solvers disagree on schedulability")

let prop_no_restarts_same_answer =
  QCheck.Test.make ~name:"B&B optimum independent of restarts" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      match (Bnb.solve_result ~restart_unit:0 inst, Bnb.solve_result inst) with
      | Some a, Some b -> a.makespan = b.makespan
      | None, None -> true
      | _ -> false)

let prop_portfolio_matches_brute =
  QCheck.Test.make ~name:"portfolio = brute force, proved" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance seed in
      match (Portfolio.solve inst, Bnb.brute_force inst) with
      | Some o, Some reference ->
          (match S.validate_nonpreemptive inst o.assignment with
          | Ok mk ->
              if mk <> o.makespan then
                QCheck.Test.fail_reportf "assignment makespan %d <> reported %d" mk o.makespan
          | Error e -> QCheck.Test.fail_reportf "invalid assignment: %s" e);
          o.proved && o.makespan = reference && o.lower_bound = reference
          && o.winner = "bnb" (* member 0 completes on tiny instances *)
      | None, None -> true
      | _ -> QCheck.Test.fail_reportf "solvers disagree on schedulability")

let prop_ilp_members_match_brute =
  (* Starve the B&B member (node_limit 1): the configuration-ILP member
     must pick up the proof and still land exactly on the optimum. *)
  QCheck.Test.make ~name:"config-ILP member = brute force when B&B abstains" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:7 seed in
      match (Portfolio.solve ~node_limit:1 inst, Bnb.brute_force inst) with
      | Some o, Some reference ->
          (* the B&B can still close instantly when the warm start meets the
             root bound; otherwise the proof must come from an ILP member *)
          if o.proved then o.makespan = reference
          else o.winner = "none" && o.makespan >= reference
      | None, None -> true
      | _ -> QCheck.Test.fail_reportf "solvers disagree on schedulability")

let prop_nfold_member_matches_brute =
  (* Starve both the B&B and the config enumeration: only the N-fold
     member can prove. *)
  QCheck.Test.make ~name:"N-fold member = brute force when others abstain" ~count:25
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = random_instance ~max_n:6 seed in
      match (Portfolio.solve ~node_limit:1 ~max_configs:0 inst, Bnb.brute_force inst) with
      | Some o, Some reference ->
          if o.proved then o.makespan = reference && o.winner <> "config_ilp"
          else o.winner = "none" && o.makespan >= reference
      | None, None -> true
      | _ -> QCheck.Test.fail_reportf "solvers disagree on schedulability")

(* ---------- node-limit incumbent surfacing (the PR-10 bugfix) ---------- *)

let test_node_limit_keeps_incumbent () =
  (* A bnb-stress instance big enough that one node cannot finish: the
     search must still surface the warm-start incumbent and a root bound. *)
  let spec =
    { Ccs.Generator.default with n = 14; classes = 4; machines = 4; slots = 2;
      family = Ccs.Generator.Bnb_stress }
  in
  let inst = Ccs.Generator.generate ~seed:42 spec in
  match Bnb.solve_result ~node_limit:1 inst with
  | Some r -> (
      (match r.status with
      | Bnb.Node_limit -> ()
      | _ -> Alcotest.fail "expected Node_limit");
      match S.validate_nonpreemptive inst r.assignment with
      | Ok mk ->
          Alcotest.(check int) "incumbent consistent" r.makespan mk;
          Alcotest.(check bool) "lower bound below incumbent" true (r.lower_bound <= r.makespan);
          Alcotest.(check bool) "lower bound positive" true (r.lower_bound > 0)
      | Error e -> Alcotest.fail ("invalid incumbent: " ^ e))
  | None -> Alcotest.fail "schedulable instance"

let test_solve_none_on_node_limit () =
  (* [solve] keeps its strict contract: no proof, no answer. *)
  let spec =
    { Ccs.Generator.default with n = 14; classes = 4; machines = 4; slots = 2;
      family = Ccs.Generator.Bnb_stress }
  in
  let inst = Ccs.Generator.generate ~seed:42 spec in
  Alcotest.(check bool) "solve abstains" true (Bnb.solve ~node_limit:1 inst = None)

let test_probing_proves_optimal () =
  (* Equal jobs, one per machine: the warm start meets the lower bound, so
     the search must finish without expanding a single node. *)
  let inst = I.make ~machines:3 ~slots:1 [ (10, 0); (10, 1); (10, 2) ] in
  match Bnb.solve_result inst with
  | Some r ->
      (match r.status with
      | Bnb.Complete -> ()
      | _ -> Alcotest.fail "expected Complete");
      Alcotest.(check int) "optimal" 10 r.makespan;
      Alcotest.(check int) "no search needed" 0 r.nodes
  | None -> Alcotest.fail "schedulable instance"

let test_brute_force_deadline () =
  (* The incremental brute force must notice an expired ambient deadline
     instead of hanging (the old version never checked). *)
  let spec =
    { Ccs.Generator.default with n = 10; classes = 3; machines = 4; slots = 2 }
  in
  let inst = Ccs.Generator.generate ~seed:7 spec in
  let tok = Ccs_resil.Deadline.of_budget_ms 0 in
  match Ccs_resil.Deadline.with_token tok (fun () -> Bnb.brute_force inst) with
  | exception Ccs_resil.Deadline.Cancelled _ -> ()
  | _ -> Alcotest.fail "expected cancellation"

let () =
  Alcotest.run "exact"
    [ ( "bnb",
        [ Alcotest.test_case "node limit keeps incumbent" `Quick test_node_limit_keeps_incumbent;
          Alcotest.test_case "solve stays strict" `Quick test_solve_none_on_node_limit;
          Alcotest.test_case "probing closes at the bound" `Quick test_probing_proves_optimal;
          Alcotest.test_case "brute force honors deadlines" `Quick test_brute_force_deadline ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cdcl_matches_brute; prop_cdcl_adversarial_knobs;
            prop_no_restarts_same_answer; prop_portfolio_matches_brute;
            prop_ilp_members_match_brute; prop_nfold_member_matches_brute ] ) ]
