(* Core model: instances, schedules + validators, bounds, generators, IO. *)

module I = Ccs.Instance
module S = Ccs.Schedule
module Q = Rat

let q = Alcotest.testable Q.pp Q.equal

let mk ?(machines = 3) ?(slots = 2) jobs = I.make ~machines ~slots jobs

let test_instance_basics () =
  let inst = mk [ (3, 0); (5, 1); (2, 0); (7, 4) ] in
  Alcotest.(check int) "n" 4 (I.n inst);
  Alcotest.(check int) "classes dense" 3 (I.num_classes inst);
  Alcotest.(check int) "total" 17 (I.total_load inst);
  Alcotest.(check int) "pmax" 7 (I.pmax inst);
  Alcotest.(check (array int)) "class loads" [| 5; 5; 7 |] (I.class_load inst);
  Alcotest.(check bool) "schedulable" true (I.schedulable inst)

let test_instance_validation () =
  Alcotest.check_raises "no jobs" (Invalid_argument "Instance.make: no jobs") (fun () ->
      ignore (mk []));
  Alcotest.check_raises "bad p"
    (Invalid_argument "Instance.make: processing times must be positive") (fun () ->
      ignore (mk [ (0, 1) ]))

let test_total_overflow () =
  (* a total of exactly max_int is accepted; one more unit is rejected by
     both constructors instead of wrapping *)
  let half = (max_int / 2) + 1 in
  let inst = mk [ (max_int - 1, 0); (1, 1) ] in
  Alcotest.(check int) "total max_int" max_int (I.total_load inst);
  let flat p cls = I.Flat.of_arrays ~machines:3 ~slots:2 ~p ~cls in
  let fl = flat [| max_int - 1; 1 |] [| 0; 1 |] in
  Alcotest.(check int) "flat total max_int" max_int (I.Flat.total_load fl);
  Alcotest.check_raises "make"
    (Invalid_argument "Instance.make: total processing time exceeds max_int") (fun () ->
      ignore (mk [ (half, 0); (half, 1) ]));
  Alcotest.check_raises "make, overflow after the first job"
    (Invalid_argument "Instance.make: total processing time exceeds max_int") (fun () ->
      ignore (mk [ (1, 0); (max_int, 1) ]));
  Alcotest.check_raises "flat"
    (Invalid_argument "Instance.Flat: total processing time exceeds max_int") (fun () ->
      ignore (flat [| half; 7; half |] [| 0; 1; 0 |]));
  (* a per-job error still wins over the total *)
  Alcotest.check_raises "flat, bad job first"
    (Invalid_argument "Instance.Flat: classes must be non-negative") (fun () ->
      ignore (flat [| half; half; 1 |] [| 0; 1; -1 |]));
  match
    Ccs.Io.of_string
      "ccs 1\nmachines 1\nslots 2\njob 3000000000000000000 0\njob 3000000000000000000 1\n"
  with
  | Error e ->
      Alcotest.(check string)
        "parse" "Instance.Flat: total processing time exceeds max_int" e
  | Ok _ -> Alcotest.fail "overflowing total accepted"

let test_slots_clamped () =
  let inst = mk ~slots:100 [ (1, 0); (1, 1) ] in
  Alcotest.(check int) "c clamped to C" 2 (I.c inst)

let test_unschedulable () =
  (* 5 classes, 1 machine, 2 slots. *)
  let inst = I.make ~machines:1 ~slots:2 (List.init 5 (fun i -> (1, i))) in
  Alcotest.(check bool) "unschedulable" false (I.schedulable inst)

let test_validate_nonpreemptive () =
  let inst = mk ~machines:2 ~slots:1 [ (3, 0); (4, 1); (2, 0) ] in
  (match S.validate_nonpreemptive inst [| 0; 1; 0 |] with
  | Ok mk -> Alcotest.(check int) "makespan" 5 mk
  | Error e -> Alcotest.fail e);
  (match S.validate_nonpreemptive inst [| 0; 0; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "class violation not caught");
  match S.validate_nonpreemptive inst [| 0; 5; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad machine not caught"

let test_validate_splittable () =
  let inst = mk ~machines:3 ~slots:1 [ (6, 0); (3, 1) ] in
  let sched =
    {
      S.blocks = [ { S.cls = 0; m_start = 0; m_count = 2; per_machine = Q.of_int 3 } ];
      explicit_machines = [ (2, [ (1, Q.of_int 3) ]) ];
    }
  in
  (match S.validate_splittable inst sched with
  | Ok mk -> Alcotest.check q "makespan" (Q.of_int 3) mk
  | Error e -> Alcotest.fail e);
  (* under-scheduled class *)
  let bad = { sched with S.explicit_machines = [ (2, [ (1, Q.of_int 2) ]) ] } in
  (match S.validate_splittable inst bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing load not caught");
  (* slot violation: both classes on machine 2 with c = 1 *)
  let bad2 =
    {
      S.blocks = [ { S.cls = 0; m_start = 2; m_count = 1; per_machine = Q.of_int 6 } ];
      explicit_machines = [ (2, [ (1, Q.of_int 3) ]) ];
    }
  in
  (match S.validate_splittable inst bad2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "slot violation not caught");
  (* overlapping blocks *)
  let bad3 =
    {
      S.blocks =
        [ { S.cls = 0; m_start = 0; m_count = 2; per_machine = Q.of_int 3 };
          { S.cls = 1; m_start = 1; m_count = 1; per_machine = Q.of_int 3 } ];
      explicit_machines = [];
    }
  in
  match S.validate_splittable inst bad3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlap not caught"

let test_to_job_pieces () =
  let inst = mk ~machines:3 ~slots:1 [ (6, 0); (3, 0) ] in
  (* class 0 spread as 4 + 5 over two machines *)
  let sched =
    {
      S.blocks = [];
      explicit_machines = [ (0, [ (0, Q.of_int 4) ]); (1, [ (0, Q.of_int 5) ]) ];
    }
  in
  let pieces = S.to_job_pieces inst sched in
  (* per-job totals *)
  let totals = Array.make 2 Q.zero in
  List.iter
    (fun (_, pl) -> List.iter (fun pc -> totals.(pc.S.job) <- Q.add totals.(pc.S.job) pc.S.size) pl)
    pieces;
  Alcotest.check q "job 0 total" (Q.of_int 6) totals.(0);
  Alcotest.check q "job 1 total" (Q.of_int 3) totals.(1)

let test_validate_preemptive () =
  let inst = mk ~machines:2 ~slots:2 [ (4, 0); (3, 1) ] in
  let ok : S.preemptive =
    [| [ { S.pjob = 0; start = Q.zero; len = Q.of_int 4 } ];
       [ { S.pjob = 1; start = Q.zero; len = Q.of_int 3 } ] |]
  in
  (match S.validate_preemptive inst ok with
  | Ok mk -> Alcotest.check q "makespan" (Q.of_int 4) mk
  | Error e -> Alcotest.fail e);
  (* same job in parallel on two machines *)
  let bad : S.preemptive =
    [| [ { S.pjob = 0; start = Q.zero; len = Q.of_int 2 };
         { S.pjob = 1; start = Q.of_int 2; len = Q.of_int 3 } ];
       [ { S.pjob = 0; start = Q.of_int 1; len = Q.of_int 2 } ] |]
  in
  (match S.validate_preemptive inst bad with
  | Error msg ->
      Alcotest.(check bool) "parallel detected" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "self-parallelism not caught");
  (* machine-level overlap *)
  let bad2 : S.preemptive =
    [| [ { S.pjob = 0; start = Q.zero; len = Q.of_int 4 };
         { S.pjob = 1; start = Q.of_int 3; len = Q.of_int 3 } ] |]
  in
  match S.validate_preemptive inst bad2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "machine overlap not caught"

let test_preemptive_first_error_wins () =
  (* two offending machines: the report must name machine 0, not the last *)
  let inst = mk ~machines:3 ~slots:2 [ (4, 0); (4, 1); (4, 2) ] in
  let bad : S.preemptive =
    [| [ { S.pjob = 0; start = Q.zero; len = Q.of_int 3 };
         { S.pjob = 0; start = Q.of_int 2; len = Q.of_int 1 } ];
       [ { S.pjob = 1; start = Q.zero; len = Q.of_int 3 };
         { S.pjob = 1; start = Q.of_int 2; len = Q.of_int 1 } ];
       [ { S.pjob = 2; start = Q.zero; len = Q.of_int 4 } ] |]
  in
  (match S.validate_preemptive inst bad with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "reports machine 0 (got %S)" msg)
        true
        (String.length msg >= 9 && String.sub msg 0 9 = "machine 0")
  | Ok _ -> Alcotest.fail "overlap not caught");
  (* a piece with an out-of-range job index must report, not crash *)
  let oob : S.preemptive = [| [ { S.pjob = 9; start = Q.zero; len = Q.of_int 4 } ] |] in
  match S.validate_preemptive inst oob with
  | Error msg -> Alcotest.(check bool) "bad index reported" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bad job index not caught"

let test_nonpreemptive_first_error_wins () =
  let inst = mk ~machines:4 ~slots:1 [ (1, 0); (1, 1); (1, 2); (1, 3) ] in
  (* machines 1 and 2 both exceed c = 1; deterministic report: machine 1 *)
  match S.validate_nonpreemptive inst [| 1; 1; 2; 2 |] with
  | Error msg -> Alcotest.(check string) "first machine" "machine 1: 2 classes > c" msg
  | Ok _ -> Alcotest.fail "slot violation not caught"

let test_splittable_block_explicit_combination () =
  (* explicit machines inside a block combine loads and classes; makespan and
     the slot check must see the combined view (exercises the one-pass
     block-load precomputation) *)
  let inst = mk ~machines:4 ~slots:2 [ (12, 0); (5, 1); (3, 2) ] in
  let sched =
    {
      S.blocks = [ { S.cls = 0; m_start = 0; m_count = 3; per_machine = Q.of_int 4 } ];
      explicit_machines = [ (1, [ (1, Q.of_int 5) ]); (3, [ (2, Q.of_int 3) ]) ];
    }
  in
  (match S.validate_splittable inst sched with
  | Ok mk -> Alcotest.check q "combined makespan" (Q.of_int 9) mk
  | Error e -> Alcotest.fail e);
  (* same shape but with c = 1: machine 1 now holds classes {0, 1} *)
  let inst1 = mk ~machines:4 ~slots:1 [ (12, 0); (5, 1); (3, 2) ] in
  match S.validate_splittable inst1 sched with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "block+explicit slot violation not caught"

(* ---- one case per validator message ---- *)

let expect_error name want = function
  | Error msg -> Alcotest.(check string) name want msg
  | Ok _ -> Alcotest.failf "%s: accepted" name

let block cls m_start m_count per = { S.cls; m_start; m_count; per_machine = Q.of_int per }

let test_splittable_messages () =
  let inst = mk ~machines:3 ~slots:1 [ (6, 0); (3, 1) ] in
  let ok = { S.blocks = [ block 0 0 2 3 ]; explicit_machines = [ (2, [ (1, Q.of_int 3) ]) ] } in
  let with_blocks blocks = { ok with S.blocks } in
  let with_explicit explicit_machines = { ok with S.explicit_machines } in
  List.iter
    (fun (want, sched) -> expect_error want want (S.validate_splittable inst sched))
    [ ("block with non-positive machine count", with_blocks [ block 0 0 0 3 ]);
      ("block out of machine range", with_blocks [ block 0 2 2 3 ]);
      ("block with non-positive load", with_blocks [ block 0 0 2 0 ]);
      ("block with bad class", with_blocks [ block 5 0 2 3 ]);
      ("overlapping blocks", with_blocks [ block 0 0 2 3; block 0 1 1 3 ]);
      ("bad explicit machine entry", with_explicit [ (3, [ (1, Q.of_int 3) ]) ]);
      ( "bad explicit machine entry",
        with_explicit [ (2, [ (1, Q.of_int 1) ]); (2, [ (1, Q.of_int 2) ]) ] );
      ("bad explicit machine entry", with_explicit [ (2, [ (1, Q.of_int (-3)) ]) ]);
      ("class 1: scheduled 2 but P_u = 3", with_explicit [ (2, [ (1, Q.of_int 2) ]) ]);
      ( "machine exceeds class slots",
        with_explicit [ (1, [ (1, Q.of_int 3) ]) ] |> fun s ->
        { s with S.blocks = [ block 0 0 1 3; block 0 1 1 3 ] } ) ]

let test_preemptive_messages () =
  let inst = mk ~machines:2 ~slots:1 [ (4, 0); (3, 1) ] in
  let pc pjob start len = { S.pjob; start = Q.of_int start; len = Q.of_int len } in
  let ok = [| [ pc 0 0 4 ]; [ pc 1 0 3 ] |] in
  let on0 pieces = [| pieces; ok.(1) |] in
  List.iter
    (fun (want, sched) -> expect_error want want (S.validate_preemptive inst sched))
    [ ("more machines used than available", Array.append ok [| [] |]);
      ("machine 0: bad job index", on0 [ pc 2 0 4 ]);
      ("machine 0: non-positive piece", on0 [ pc 0 0 0; pc 0 0 4 ]);
      ("machine 0: negative start", on0 [ pc 0 (-1) 4 ]);
      ("machine 0: overlapping pieces", on0 [ pc 0 0 2; pc 0 1 2 ]);
      ("machine 0: too many classes", [| [ pc 0 0 4; pc 1 4 3 ]; [] |]);
      ("job 0: scheduled 3 of 4", on0 [ pc 0 0 3 ]) ];
  let inst2 = mk ~machines:2 ~slots:2 [ (4, 0); (3, 1) ] in
  expect_error "parallel" "job 0 runs in parallel with itself"
    (S.validate_preemptive inst2 [| [ pc 0 0 2 ]; [ pc 0 1 2; pc 1 3 3 ] |])

let test_nonpreemptive_messages () =
  let inst = mk ~machines:2 ~slots:1 [ (3, 0); (4, 1); (2, 0) ] in
  expect_error "length" "wrong assignment length" (S.validate_nonpreemptive inst [| 0; 1 |]);
  expect_error "range" "job 1: bad machine" (S.validate_nonpreemptive inst [| 0; -1; 2 |]);
  expect_error "slots" "machine 0: 2 classes > c" (S.validate_nonpreemptive inst [| 0; 0; 1 |])

let test_splittable_first_offender () =
  (* block 0 overlaps block 2 (not its list neighbour); block 1 has a bad
     class: the lowest list position with a fault decides the message *)
  let inst = mk ~machines:8 ~slots:2 [ (6, 0); (3, 1) ] in
  let a = block 0 0 2 3 and bad = block 7 5 1 3 and c = block 1 1 1 3 in
  let split blocks = S.validate_splittable inst { S.blocks; explicit_machines = [] } in
  expect_error "overlap first" "overlapping blocks" (split [ a; bad; c ]);
  expect_error "bad class first" "block with bad class" (split [ bad; a; c ]);
  (* the overlap's first block sits after the bad class *)
  expect_error "bad class before overlap" "block with bad class"
    (split [ block 0 6 1 3; bad; a; block 1 7 1 3; c ])

let test_preemptive_out_of_order () =
  let inst = mk ~machines:1 ~slots:2 [ (4, 0); (3, 1) ] in
  let pc pjob start len = { S.pjob; start = Q.of_int start; len = Q.of_int len } in
  (match S.validate_preemptive inst [| [ pc 1 4 3; pc 0 0 4 ] |] with
  | Ok mk -> Alcotest.check q "makespan" (Q.of_int 7) mk
  | Error e -> Alcotest.fail e);
  expect_error "out of order overlap" "machine 0: overlapping pieces"
    (S.validate_preemptive inst [| [ pc 1 3 3; pc 0 0 4 ] |])

let test_nonpreemptive_huge_m () =
  let m = max_int / 2 in
  let inst = I.make ~machines:m ~slots:1 [ (3, 0); (4, 1); (5, 0) ] in
  let before = Gc.allocated_bytes () in
  let r = S.validate_nonpreemptive inst [| m - 1; 0; m - 1 |] in
  let bytes = Gc.allocated_bytes () -. before in
  (match r with Ok mk -> Alcotest.(check int) "makespan" 8 mk | Error e -> Alcotest.fail e);
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f bytes" bytes) true (bytes < 65536.)

(* The three approximations on the four generator families: their schedules
   validate, and each single-fault mutation of one is rejected. *)

(* machine -> class -> load of a splittable schedule, blocks and explicit
   entries combined; re-encoded with explicit entries only *)
let dense inst (s : S.splittable) =
  let mat = Array.make_matrix (I.m inst) (I.num_classes inst) Q.zero in
  let put mi u l = mat.(mi).(u) <- Q.add mat.(mi).(u) l in
  List.iter
    (fun b ->
      for mi = b.S.m_start to b.S.m_start + b.S.m_count - 1 do put mi b.S.cls b.S.per_machine done)
    s.S.blocks;
  List.iter (fun (mi, loads) -> List.iter (fun (u, l) -> put mi u l) loads) s.S.explicit_machines;
  mat

let of_dense mat =
  let rows =
    Array.to_list
      (Array.mapi
         (fun mi row ->
           (mi, List.filter (fun (_, l) -> Q.sign l > 0) (List.mapi (fun u l -> (u, l)) (Array.to_list row))))
         mat)
  in
  { S.blocks = []; explicit_machines = List.filter (fun (_, loads) -> loads <> []) rows }

let half q = Q.div q (Q.of_int 2)

let prop_validators_reject_mutations =
  QCheck.Test.make ~name:"approximations validate; single-fault mutations are rejected"
    ~count:200 (QCheck.int_range 0 1_000_000) (fun seed ->
      let spec =
        { Ccs.Generator.n = 6 + (seed mod 30); classes = 2 + (seed mod 6);
          machines = 2 + (seed mod 4); slots = 1 + (seed mod 3); p_lo = 1; p_hi = 40;
          family = Ccs.Generator.[| Uniform; Zipf; Heavy_classes; Large_jobs |].(seed mod 4) }
      in
      let inst = Ccs.Generator.generate ~seed spec in
      QCheck.assume (I.schedulable inst);
      let m = I.m inst and c = I.c inst and nc = I.num_classes inst in
      let rejected want r = match r with Error msg -> want = "" || msg = want | Ok _ -> false in
      let cls j = (I.job inst j).I.cls in
      (* non-preemptive *)
      let a, _ = Ccs.Approx.Nonpreemptive.solve inst in
      let np_ok = Result.is_ok (S.validate_nonpreemptive inst a) in
      let np_range =
        let a' = Array.copy a in
        a'.(0) <- m;
        rejected "job 0: bad machine" (S.validate_nonpreemptive inst a')
      in
      let np_class =
        (* move one job of each missing class onto job 0's machine until it
           carries c + 1 classes *)
        nc <= c
        ||
        let a' = Array.copy a and t = a.(0) in
        let on_t = Array.make nc false in
        Array.iteri (fun j mi -> if mi = t then on_t.(cls j) <- true) a;
        let count = ref (Array.fold_left (fun k b -> if b then k + 1 else k) 0 on_t) in
        Array.iteri
          (fun j _ ->
            if !count <= c && not on_t.(cls j) then begin
              on_t.(cls j) <- true;
              a'.(j) <- t;
              incr count
            end)
          a;
        !count <= c
        || rejected (Printf.sprintf "machine %d: %d classes > c" t (c + 1))
             (S.validate_nonpreemptive inst a')
      in
      (* preemptive *)
      let p, _ = Ccs.Approx.Preemptive.solve inst in
      let pre_ok = Result.is_ok (S.validate_preemptive inst p) in
      let pre_range =
        rejected "more machines used than available"
          (S.validate_preemptive inst (Array.append p (Array.make (m + 1 - Array.length p) [])))
      in
      let pre_class =
        (* append one piece of each missing class to machine 0, after the
           makespan, so only the class count breaks *)
        nc <= c
        ||
        let p' = Array.copy p and at = ref (S.preemptive_makespan p) in
        let on_0 = Array.make nc false in
        List.iter (fun pc -> on_0.(cls pc.S.pjob) <- true) p.(0);
        let count = ref (Array.fold_left (fun k b -> if b then k + 1 else k) 0 on_0) in
        Array.iteri
          (fun mi pieces ->
            if mi > 0 then
              List.iter
                (fun pc ->
                  if !count <= c && not on_0.(cls pc.S.pjob) then begin
                    on_0.(cls pc.S.pjob) <- true;
                    incr count;
                    p'.(mi) <- List.filter (fun x -> x != pc) p'.(mi);
                    p'.(0) <- p'.(0) @ [ { pc with S.start = !at } ];
                    at := Q.add !at pc.S.len
                  end)
                pieces)
          p;
        !count <= c || rejected "machine 0: too many classes" (S.validate_preemptive inst p')
      in
      let pre_overlap =
        let mi = ref 0 in
        while p.(!mi) = [] do incr mi done;
        let p' = Array.copy p in
        p'.(!mi) <- List.hd p.(!mi) :: p.(!mi);
        rejected (Printf.sprintf "machine %d: overlapping pieces" !mi) (S.validate_preemptive inst p')
      in
      let pre_short =
        (* take 1 off the first piece of length >= 1 (drop it at exactly 1) *)
        let p' = Array.copy p and hit = ref None in
        Array.iteri
          (fun mi pieces ->
            List.iter
              (fun pc ->
                if !hit = None && Q.(pc.S.len >= one) then begin
                  hit := Some pc.S.pjob;
                  p'.(mi) <-
                    List.filter_map
                      (fun x ->
                        if x != pc then Some x
                        else if Q.equal x.S.len Q.one then None
                        else Some { x with S.len = Q.sub x.S.len Q.one })
                      pieces
                end)
              pieces)
          p;
        match !hit with
        | None -> true
        | Some j ->
            let pj = (I.job inst j).I.p in
            rejected (Printf.sprintf "job %d: scheduled %d of %d" j (pj - 1) pj)
              (S.validate_preemptive inst p')
      in
      (* splittable *)
      let s, _ = Ccs.Approx.Splittable.solve inst in
      let mat = dense inst s in
      let split_ok =
        match (S.validate_splittable inst s, S.validate_splittable inst (of_dense mat)) with
        | Ok a, Ok b -> Q.equal a b
        | _ -> false
      in
      let split_range =
        match s.S.blocks with
        | b :: rest ->
            rejected "block out of machine range"
              (S.validate_splittable inst
                 { s with S.blocks = { b with S.m_start = m - b.S.m_count + 1 } :: rest })
        | [] ->
            let e = of_dense mat in
            rejected "bad explicit machine entry"
              (S.validate_splittable inst
                 { e with S.explicit_machines = (m, []) :: e.S.explicit_machines })
      in
      let split_overlap =
        (* the first block, or the first explicit load, as two half-load
           copies of itself: loads and classes are unchanged *)
        let s' =
          match s.S.blocks with
          | b :: rest ->
              let h = { b with S.per_machine = half b.S.per_machine } in
              { s with S.blocks = h :: h :: rest }
          | [] -> (
              match (of_dense mat).S.explicit_machines with
              | (mi, (u, l) :: loads) :: rest ->
                  let h = { S.cls = u; m_start = mi; m_count = 1; per_machine = half l } in
                  { S.blocks = [ h; h ]; explicit_machines = (mi, loads) :: rest }
              | _ -> s)
        in
        rejected "overlapping blocks" (S.validate_splittable inst s')
      in
      let split_class =
        (* move every load of each missing class onto machine 0 *)
        nc <= c
        ||
        let mat' = Array.map Array.copy mat in
        let count = ref (Array.fold_left (fun k l -> if Q.sign l > 0 then k + 1 else k) 0 mat.(0)) in
        for u = 0 to nc - 1 do
          if !count <= c && Q.sign mat'.(0).(u) = 0 then begin
            incr count;
            for mi = 1 to m - 1 do
              mat'.(0).(u) <- Q.add mat'.(0).(u) mat'.(mi).(u);
              mat'.(mi).(u) <- Q.zero
            done
          end
        done;
        !count <= c
        || rejected "machine exceeds class slots" (S.validate_splittable inst (of_dense mat'))
      in
      let split_short =
        (* take 1 off class 0, from its loads in machine order *)
        let mat' = Array.map Array.copy mat and left = ref Q.one in
        Array.iter
          (fun row ->
            let take = Q.min !left row.(0) in
            row.(0) <- Q.sub row.(0) take;
            left := Q.sub !left take)
          mat';
        let p0 = (I.class_load inst).(0) in
        rejected (Printf.sprintf "class 0: scheduled %d but P_u = %d" (p0 - 1) p0)
          (S.validate_splittable inst (of_dense mat'))
      in
      np_ok && np_range && np_class && pre_ok && pre_range && pre_class && pre_overlap
      && pre_short && split_ok && split_range && split_overlap && split_class && split_short)

let test_bounds () =
  let inst = mk ~machines:4 ~slots:2 [ (8, 0); (4, 1); (4, 2) ] in
  Alcotest.check q "lb split" (Q.of_int 4) (Ccs.Bounds.lb_splittable inst);
  Alcotest.check q "lb pre" (Q.of_int 8) (Ccs.Bounds.lb_preemptive inst);
  Alcotest.check q "ub integral" (Q.of_int 24) (Ccs.Bounds.ub_integral inst)

let test_ub_integral_no_overflow () =
  (* one job near max_int and a total that still fits: n * pmax wraps in
     native arithmetic but must come back exact (and in particular positive
     and > max_int) *)
  let big = max_int - 7 in
  let inst = mk ~machines:2 ~slots:2 [ (big, 0); (1, 1); (1, 0) ] in
  let ub = Ccs.Bounds.ub_integral inst in
  Alcotest.(check bool) "positive" true (Q.sign ub > 0);
  Alcotest.(check bool) "exceeds max_int" true Q.(ub > Q.of_int max_int);
  Alcotest.check q "exact value" (Q.mul (Q.of_int 3) (Q.of_int big)) ub

let test_io_roundtrip () =
  let inst = mk ~machines:7 ~slots:2 [ (3, 0); (5, 1); (2, 0) ] in
  match Ccs.Io.of_string (Ccs.Io.to_string inst) with
  | Ok inst' ->
      Alcotest.(check int) "n" (I.n inst) (I.n inst');
      Alcotest.(check int) "m" (I.m inst) (I.m inst');
      Alcotest.(check int) "c" (I.c inst) (I.c inst');
      Alcotest.(check (array int)) "loads" (I.class_load inst) (I.class_load inst')
  | Error e -> Alcotest.fail e

let test_io_blank_delimiters () =
  (* CRLF line endings and tab-delimited fields parse like plain spaces *)
  let crlf = "ccs 1\r\nmachines 2\r\nslots 2\r\njob 3 1\r\njob 4 0\r\n" in
  (match Ccs.Io.of_string crlf with
  | Ok inst ->
      Alcotest.(check int) "crlf n" 2 (I.n inst);
      Alcotest.(check int) "crlf m" 2 (I.m inst)
  | Error e -> Alcotest.fail ("CRLF rejected: " ^ e));
  let tabs = "ccs\t1\nmachines\t2\nslots\t2\njob\t3\t1\njob 4\t0\n" in
  (match Ccs.Io.of_string tabs with
  | Ok inst ->
      Alcotest.(check int) "tabs n" 2 (I.n inst);
      Alcotest.(check (array int)) "tabs loads" [| 4; 3 |] (I.class_load inst)
  | Error e -> Alcotest.fail ("tabs rejected: " ^ e));
  (* round trip through to_string survives re-parsing after a CRLF rewrite *)
  let inst = mk ~machines:3 ~slots:2 [ (5, 0); (2, 1); (9, 1) ] in
  let windows =
    String.concat "\r\n" (String.split_on_char '\n' (Ccs.Io.to_string inst))
  in
  match Ccs.Io.of_string windows with
  | Ok inst' ->
      Alcotest.(check int) "roundtrip n" (I.n inst) (I.n inst');
      Alcotest.(check (array int)) "roundtrip loads" (I.class_load inst) (I.class_load inst')
  | Error e -> Alcotest.fail ("CRLF roundtrip rejected: " ^ e)

let test_io_errors () =
  (match Ccs.Io.of_string "garbage" with Error _ -> () | Ok _ -> Alcotest.fail "garbage accepted");
  (match Ccs.Io.of_string "ccs 1\nslots 2\njob 1 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing machines accepted");
  match Ccs.Io.of_string "ccs 1\nmachines 2\nslots 2\n# comment\njob 3 1\n" with
  | Ok inst -> Alcotest.(check int) "comment skipped" 1 (I.n inst)
  | Error e -> Alcotest.fail e

let prop_generator_valid =
  QCheck.Test.make ~name:"generated instances are well-formed" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let spec =
        {
          Ccs.Generator.n = 1 + (seed mod 60);
          classes = 1 + (seed mod 9);
          machines = 1 + (seed mod 7);
          slots = 1 + (seed mod 4);
          p_lo = 1;
          p_hi = 50;
          family =
            (match seed mod 4 with
            | 0 -> Ccs.Generator.Uniform
            | 1 -> Zipf
            | 2 -> Heavy_classes
            | _ -> Large_jobs);
        }
      in
      let inst = Ccs.Generator.generate ~seed spec in
      I.n inst = spec.Ccs.Generator.n
      && I.num_classes inst <= spec.Ccs.Generator.classes
      && I.pmax inst <= 50
      && Array.for_all (fun l -> l > 0) (I.class_load inst))

let prop_io_fuzz =
  (* the parser must never raise, only return Error, on arbitrary input *)
  QCheck.Test.make ~name:"Io.of_string total on garbage" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun s ->
      match Ccs.Io.of_string s with Ok _ | Error _ -> true)

let prop_io_roundtrip_random =
  QCheck.Test.make ~name:"Io roundtrip on random instances" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let spec =
        { Ccs.Generator.default with Ccs.Generator.n = 1 + (seed mod 30); classes = 1 + (seed mod 6) }
      in
      let inst = Ccs.Generator.generate ~seed spec in
      match Ccs.Io.of_string (Ccs.Io.to_string inst) with
      | Ok inst' ->
          I.n inst = I.n inst' && I.m inst = I.m inst'
          && I.class_load inst = I.class_load inst'
      | Error _ -> false)

let prop_decode_preserves_jobs =
  (* class-level schedules decode to job pieces whose per-job totals are the
     processing times — the canonical cutting of Schedule.to_job_pieces *)
  QCheck.Test.make ~name:"to_job_pieces preserves every job" ~count:150
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let machines = Ccs_util.Prng.int_in rng 1 5 in
      let slots = Ccs_util.Prng.int_in rng 1 3 in
      let classes = max 1 (min (Ccs_util.Prng.int_in rng 1 6) (slots * machines)) in
      let n = Ccs_util.Prng.int_in rng classes 20 in
      let jobs = List.init n (fun i ->
        (Ccs_util.Prng.int_in rng 1 30, if i < classes then i else Ccs_util.Prng.int rng classes)) in
      let inst = I.make ~machines ~slots jobs in
      let sched, _ = Ccs.Approx.Splittable.solve inst in
      let pieces = S.to_job_pieces inst sched in
      let totals = Array.make (I.n inst) Q.zero in
      List.iter
        (fun (_, pl) ->
          List.iter (fun pc -> totals.(pc.S.job) <- Q.add totals.(pc.S.job) pc.S.size) pl)
        pieces;
      let ok = ref true in
      Array.iteri
        (fun j total ->
          if not (Q.equal total (Q.of_int (I.job inst j).I.p)) then ok := false)
        totals;
      !ok)

let prop_round_robin_lemma3 =
  QCheck.Test.make ~name:"Lemma 3: round robin <= avg + max" ~count:300
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let m = Ccs_util.Prng.int_in rng 1 8 in
      let k = Ccs_util.Prng.int_in rng 1 40 in
      let sizes = List.init k (fun _ -> Q.of_int (Ccs_util.Prng.int_in rng 1 100)) in
      let sorted = List.sort (fun a b -> Q.compare b a) sizes in
      let machines = Ccs.Approx.Round_robin.assign ~machines:m sorted in
      let makespan =
        Array.fold_left
          (fun acc items -> Q.max acc (List.fold_left Q.add Q.zero items))
          Q.zero machines
      in
      Q.(makespan <= Ccs.Approx.Round_robin.lemma3_bound ~machines:m sizes))

(* The flat cores' item order: [sort_desc] must equal a stable sort by
   non-ascending key from the given order, for keys of every magnitude up
   to max_int (one to six radix passes). *)
let prop_round_robin_sort_desc =
  QCheck.Test.make ~name:"sort_desc = stable sort by non-ascending key" ~count:300
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let n = Ccs_util.Prng.int_in rng 0 300 in
      let bits = Ccs_util.Prng.int_in rng 0 62 in
      let hi = if bits = 62 then max_int else (1 lsl bits) - 1 in
      let key =
        Array.init n (fun _ ->
            if Ccs_util.Prng.int rng 4 = 0 then hi else Ccs_util.Prng.next_int rng land hi)
      in
      let ids = Array.init n Fun.id in
      Ccs_util.Prng.shuffle rng ids;
      let want = List.stable_sort (fun a b -> compare key.(b) key.(a)) (Array.to_list ids) in
      Array.to_list (Ccs.Approx.Round_robin.sort_desc key ids) = want)

let () =
  Alcotest.run "core"
    [ ( "instance",
        [ Alcotest.test_case "basics" `Quick test_instance_basics;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "total overflow" `Quick test_total_overflow;
          Alcotest.test_case "slots clamped" `Quick test_slots_clamped;
          Alcotest.test_case "unschedulable detection" `Quick test_unschedulable ] );
      ( "schedule",
        [ Alcotest.test_case "non-preemptive validator" `Quick test_validate_nonpreemptive;
          Alcotest.test_case "splittable validator" `Quick test_validate_splittable;
          Alcotest.test_case "job-piece decoding" `Quick test_to_job_pieces;
          Alcotest.test_case "preemptive validator" `Quick test_validate_preemptive;
          Alcotest.test_case "preemptive first error wins" `Quick
            test_preemptive_first_error_wins;
          Alcotest.test_case "non-preemptive first error wins" `Quick
            test_nonpreemptive_first_error_wins;
          Alcotest.test_case "block+explicit combination" `Quick
            test_splittable_block_explicit_combination;
          Alcotest.test_case "splittable messages" `Quick test_splittable_messages;
          Alcotest.test_case "preemptive messages" `Quick test_preemptive_messages;
          Alcotest.test_case "non-preemptive messages" `Quick test_nonpreemptive_messages;
          Alcotest.test_case "splittable first offender" `Quick test_splittable_first_offender;
          Alcotest.test_case "preemptive out of start order" `Quick test_preemptive_out_of_order;
          Alcotest.test_case "non-preemptive huge m" `Quick test_nonpreemptive_huge_m ] );
      ( "bounds",
        [ Alcotest.test_case "values" `Quick test_bounds;
          Alcotest.test_case "ub_integral no overflow" `Quick
            test_ub_integral_no_overflow ] );
      ( "io",
        [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "blank delimiters" `Quick test_io_blank_delimiters;
          Alcotest.test_case "errors" `Quick test_io_errors ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generator_valid; prop_round_robin_lemma3; prop_round_robin_sort_desc;
            prop_io_fuzz; prop_io_roundtrip_random; prop_decode_preserves_jobs;
            prop_validators_reject_mutations ] ) ]
