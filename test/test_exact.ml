(* The conflict-driven exact search and the solver portfolio. The learned
   no-goods, root probing, Luby restarts, the job-count bound and
   identical-machine symmetry breaking are pure prunings: none of them may
   ever cut the optimum, which is pinned against the unpruned brute-force
   reference across every generator family — including adversarial knob
   settings that force frequent restarts and no-good store overflows. Each
   portfolio member's proof must match the brute force too. The no-good
   store's packed keys and flat set are checked against plain models of
   the same states. *)

module I = Ccs.Instance
module S = Ccs.Schedule
module Bnb = Ccs_exact.Bnb
module Portfolio = Ccs_exact.Portfolio
module Nogoods = Ccs_exact.Nogoods
module Prng = Ccs_util.Prng

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

let matches_brute ?nogood_limit ?restart_unit inst =
  match (Bnb.solve_result ?nogood_limit ?restart_unit inst, Bnb.brute_force inst) with
  | Some r, Some reference -> check_optimal inst r reference
  | None, None -> true
  | _ -> QCheck.Test.fail_reportf "solvers disagree on schedulability"

let prop_cdcl_matches_brute =
  QCheck.Test.make ~name:"conflict-driven B&B = brute force (all families)" ~count:120
    (QCheck.int_range 0 1_000_000) (fun seed -> matches_brute (random_instance seed))

(* A property whose draws never reach a prune says nothing about that
   prune: the test case fails when a whole run leaves [counter] where it
   was. *)
let fires counter test =
  let counter = Ccs_obs.Metrics.counter counter in
  let name, speed, run = QCheck_alcotest.to_alcotest test in
  ( name,
    speed,
    fun () ->
      let before = Ccs_obs.Metrics.counter_value counter in
      run ();
      if Ccs_obs.Metrics.counter_value counter = before then
        Alcotest.fail "no draw reached the prune" )

let prop_cdcl_adversarial_knobs =
  (* A 16-node Luby unit restarts the search relentlessly and a 32-entry
     no-good store overflows constantly: both paths (restart state
     restore, store reset) must preserve the optimum. *)
  QCheck.Test.make ~name:"B&B = brute force under tiny restart unit / no-good cap" ~count:80
    (QCheck.int_range 0 1_000_000) (fun seed ->
      matches_brute ~restart_unit:16 ~nogood_limit:32 (random_instance seed))

let prop_cdcl_five_machines =
  QCheck.Test.make ~name:"B&B = brute force (up to 5 machines)" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed -> matches_brute (random_instance ~max_m:5 seed))

let prop_cdcl_huge_loads =
  (* Processing times near 2^40: a packed load takes ~44 bits, so no-good
     keys span several 63-bit chunks and fields cross chunk boundaries. *)
  QCheck.Test.make ~name:"B&B = brute force (processing times near 2^40)" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Prng.create seed in
      let machines = Prng.int_in rng 2 4 and slots = Prng.int_in rng 1 3 in
      let n = Prng.int_in rng 5 9 in
      let classes = Prng.int_in rng 1 (min n (slots * machines)) in
      let jobs =
        List.init n (fun j ->
            ((1 lsl 40) + Prng.int rng 64, if j < classes then j else Prng.int rng classes))
      in
      matches_brute (I.make ~machines ~slots jobs))

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

(* ---------- no-good keys and set ---------- *)

(* A random 63-bit word: any sign, bit 62 included. *)
let any_word rng = Int64.to_int (Prng.next_int64 rng)

let prop_nogood_keys =
  (* Random machine states, and variants of them: permuted machines, then
     at most one change (depth id, one load bit — the top one half the
     time —, one class bit, or one machine copied over another). Up to 130
     classes puts class sets in 1-3 mask words; bounds up to max_int give
     load fields of up to 62 bits, so fields cross chunk boundaries. One
     codec serves every pair, as in a search, so its sort starts from the
     previous key's order. *)
  QCheck.Test.make ~name:"no-good keys equal iff depth id and machine multiset equal"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Prng.create seed in
      let m = Prng.int_in rng 1 6 and classes = Prng.int_in rng 1 130 in
      let words = (classes + 62) / 63 in
      let bound =
        match Prng.int rng 3 with
        | 0 -> Prng.int_in rng 1 1000
        | 1 -> Prng.int_in rng 1 (1 lsl 40)
        | _ -> Prng.int_in rng 1 max_int
      in
      let codec = Nogoods.codec ~machines:m ~classes ~bound in
      let len = Nogoods.key_len codec in
      let load_bits = ref 0 in
      while (bound - 1) lsr !load_bits > 0 do
        incr load_bits
      done;
      let flip masks k u =
        let w = (k * words) + (u / 63) in
        masks.(w) <- masks.(w) lxor (1 lsl (u mod 63))
      in
      let random_state () =
        let loads =
          Array.init m (fun _ -> if Prng.int rng 4 = 0 then bound - 1 else Prng.int rng bound)
        in
        let masks = Array.make (m * words) 0 in
        for k = 0 to m - 1 do
          for u = 0 to classes - 1 do
            if Prng.bool rng then flip masks k u
          done
        done;
        (Prng.int rng 4, loads, masks)
      in
      let variant (d, loads, masks) =
        let perm = Array.init m Fun.id in
        Prng.shuffle rng perm;
        let loads = Array.map (fun k -> loads.(k)) perm in
        let masks =
          Array.init (m * words) (fun i -> masks.((perm.(i / words) * words) + (i mod words)))
        in
        let k = Prng.int rng m in
        let d =
          match Prng.int rng 5 with
          | 0 -> d
          | 1 -> d + 1 + Prng.int rng 3
          | 2 ->
              if !load_bits > 0 then begin
                let b = if Prng.bool rng then !load_bits - 1 else Prng.int rng !load_bits in
                let l = loads.(k) lxor (1 lsl b) in
                if l < bound then loads.(k) <- l
              end;
              d
          | 3 ->
              flip masks k (Prng.int rng classes);
              d
          | _ ->
              let k' = Prng.int rng m in
              loads.(k) <- loads.(k');
              Array.blit masks (k' * words) masks (k * words) words;
              d
        in
        (d, loads, masks)
      in
      let multiset (d, loads, masks) =
        let machine k = (loads.(k), Array.to_list (Array.sub masks (k * words) words)) in
        (d, List.sort compare (List.init m machine))
      in
      let key (d, loads, masks) =
        let buf = Array.make (len + 2) 7 in
        Nogoods.encode codec ~depth_id:d ~loads ~masks buf 1;
        if buf.(0) <> 7 || buf.(len + 1) <> 7 then
          QCheck.Test.fail_reportf "encode wrote outside its %d words" len;
        Array.sub buf 1 len
      in
      for _ = 1 to 30 do
        let a = random_state () in
        let b = if Prng.int rng 4 = 0 then random_state () else variant a in
        let same_state = multiset a = multiset b in
        if key a = key b <> same_state then
          QCheck.Test.fail_reportf "m=%d classes=%d bound=%d: states %s, keys %s" m classes
            bound
            (if same_state then "equal" else "differ")
            (if same_state then "differ" else "equal")
      done;
      true)

let prop_nogood_set =
  (* 30k operations without a reset store over 8192 keys, three doublings
     of the 4096 initial slots; then resets mix in. Half the fresh keys are
     a stored key with one low bit flipped. *)
  QCheck.Test.make ~name:"no-good set = Hashtbl model (add, mem, reset)" ~count:20
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Prng.create seed in
      let len = Prng.int_in rng 1 4 in
      let set = Nogoods.create ~key_len:len in
      let model = Hashtbl.create 4096 in
      let recent = Array.make 64 (Array.make len 0) in
      let fresh () =
        if Prng.bool rng then begin
          let near = Array.copy recent.(Prng.int rng 64) in
          near.(len - 1) <- near.(len - 1) lxor (1 lsl Prng.int rng 3);
          near
        end
        else
          (* a depth id first; a lone word must carry the variety itself *)
          Array.init len (fun i ->
              if i > 0 then any_word rng else if len = 1 then Prng.next_int rng else Prng.int rng 8)
      in
      let expect what got want =
        if got <> want then QCheck.Test.fail_reportf "%s: set says %b, model %b" what got want
      in
      let peak = ref 0 in
      for op = 1 to 35_000 do
        let k = if Prng.int rng 3 = 0 then recent.(Prng.int rng 64) else fresh () in
        (* at a nonzero offset of a larger buffer, as in the search *)
        let buf = Array.append [| -5 |] k in
        let hash = Nogoods.hash buf 1 len in
        if op > 30_000 && Prng.int rng 1000 = 0 then begin
          Nogoods.reset set;
          Hashtbl.reset model
        end
        else if Prng.int rng 5 < 3 then begin
          expect "add" (Nogoods.add set buf 1 ~hash) (not (Hashtbl.mem model k));
          Hashtbl.replace model k ();
          recent.(Prng.int rng 64) <- k
        end
        else expect "mem" (Nogoods.mem set buf 1 ~hash) (Hashtbl.mem model k);
        if Nogoods.length set <> Hashtbl.length model then
          QCheck.Test.fail_reportf "length %d, model %d" (Nogoods.length set)
            (Hashtbl.length model);
        peak := max !peak (Hashtbl.length model)
      done;
      Hashtbl.iter
        (fun k () ->
          expect "final mem" (Nogoods.mem set k 0 ~hash:(Nogoods.hash k 0 len)) true)
        model;
      if !peak <= 8192 then QCheck.Test.fail_reportf "only %d keys stored" !peak;
      true)

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

let test_portfolio_keeps_bnb_incumbent () =
  (* Every member abstains: 100 B&B nodes, one configuration, one ILP node.
     The answer is the B&B's budgeted incumbent (152 here) with its proven
     bound, not the 7/3 warm start it started from (199). *)
  let inst =
    Ccs.Generator.generate ~seed:1
      { Ccs.Generator.n = 12; classes = 4; machines = 4; slots = 2; p_lo = 1; p_hi = 100;
        family = Ccs.Generator.Bnb_stress }
  in
  match
    (Portfolio.solve ~node_limit:100 ~max_configs:1 ~ilp_nodes:1 inst,
     Bnb.solve_result ~node_limit:100 inst)
  with
  | Some o, Some b -> (
      Alcotest.(check string) "every member abstained" "none" o.winner;
      Alcotest.(check bool) "not proved" false o.proved;
      Alcotest.(check bool) "B&B out of budget" true (b.status = Bnb.Node_limit);
      Alcotest.(check int) "the B&B's incumbent" b.makespan o.makespan;
      Alcotest.(check int) "the B&B's lower bound" b.lower_bound o.lower_bound;
      match S.validate_nonpreemptive inst o.assignment with
      | Ok mk -> Alcotest.(check int) "assignment makespan" o.makespan mk
      | Error e -> Alcotest.fail ("invalid assignment: " ^ e))
  | _ -> Alcotest.fail "schedulable instance"

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

let test_count_bound_keeps_optimum () =
  (* Two optima the job-count bound once cut, each checked against the
     brute force:
     - m = 3, c = 1. Probing under 11 (the warm start is 12) forces A7, B7
       and A5 onto a machine each, then B1 onto B's machine. B1 is the
       smallest job, so its swap to the front of the order moves A4 behind
       the two A3s. The bound reads the smallest remaining jobs off the end
       of the order: on that unsorted tail it finds room for 2 of the 3
       jobs and cuts the root, losing the optimum 11 (A7+A4, B7+B1,
       A5+A3+A3).
     - m = 2, c = 2. The optimum 6 (A4+B2, A3+B2) fills both machines to
       the last unit: a fit test that wants room to spare cuts it. *)
  List.iter
    (fun (machines, slots, jobs, opt) ->
      let inst = I.make ~machines ~slots jobs in
      match (Bnb.solve_result inst, Bnb.brute_force inst) with
      | Some r, Some reference ->
          Alcotest.(check int) "brute force" opt reference;
          Alcotest.(check int) "optimal" reference r.makespan;
          Alcotest.(check int) "proved" reference r.lower_bound
      | _ -> Alcotest.fail "schedulable instance")
    [ (3, 1, [ (7, 0); (7, 1); (5, 0); (4, 0); (3, 0); (3, 0); (1, 1) ], 11);
      (2, 2, [ (4, 0); (3, 0); (2, 1); (2, 1) ], 6) ]

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
          Alcotest.test_case "portfolio keeps the B&B incumbent" `Quick
            test_portfolio_keeps_bnb_incumbent;
          Alcotest.test_case "probing closes at the bound" `Quick test_probing_proves_optimal;
          Alcotest.test_case "count bound keeps the optimum" `Quick
            test_count_bound_keeps_optimum;
          Alcotest.test_case "brute force honors deadlines" `Quick test_brute_force_deadline ] );
      ( "properties",
        fires "bnb.prunes_count" prop_cdcl_matches_brute
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_cdcl_adversarial_knobs; prop_cdcl_five_machines; prop_cdcl_huge_loads;
               prop_no_restarts_same_answer; prop_portfolio_matches_brute;
               prop_ilp_members_match_brute; prop_nfold_member_matches_brute ] );
      ( "nogoods",
        List.map QCheck_alcotest.to_alcotest [ prop_nogood_keys; prop_nogood_set ] ) ]
