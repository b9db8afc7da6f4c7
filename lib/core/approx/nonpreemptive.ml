type stats = { t_guess : int; probes : int }

let chk_probe = Ccs_resil.Deadline.site "approx.probe"

(* ceil (x / d) for x, d > 0; x + d - 1 can pass max_int, x - 1 cannot. *)
let ceil_div x d = ((x - 1) / d) + 1

(* C2_u: jobs > T/2 need distinct machines; jobs in (T/3, T/2] are paired
   onto them greedily (largest fitting on the smallest remaining big job
   maximizes the number of pairings); leftovers go two per machine. For
   integers, p > t/2 on the reals iff p > floor (t/2), and mid fits on b
   iff mid <= t - b: no test here multiplies or adds up to past t. *)
let cu_large ~t jobs =
  let bigs = List.filter (fun p -> p > t / 2) jobs |> List.sort compare in
  let mids =
    List.filter (fun p -> p <= t / 2 && p > t / 3) jobs |> List.sort (fun a b -> compare b a)
  in
  let ku = List.length bigs in
  (* two-pointer matching: mids descending against bigs ascending *)
  let rec pair bigs mids unmatched =
    match (bigs, mids) with
    | _, [] -> unmatched
    | [], rest -> unmatched + List.length rest
    | b :: bs, mid :: ms ->
        if mid <= t - b then pair bs ms unmatched
        else pair bigs ms (unmatched + 1)
  in
  let lu = pair bigs mids 0 in
  ku + ((lu + 1) / 2)

let cu_area_only ~t jobs =
  let total = List.fold_left ( + ) 0 jobs in
  if total = 0 then 0 else ceil_div total t

let cu ~t jobs = max (cu_area_only ~t jobs) (cu_large ~t jobs)

(* Sorts positions [lo, hi) of [sp] by size descending, stably, moving the
   job ids in [sid] along. A class segment starts in index order, so ties
   stay index-ascending. Short segments, the common case, take an insertion
   sort that allocates nothing. *)
let sort_segment ~job_p sp sid lo hi =
  if hi - lo <= 32 then
    for i = lo + 1 to hi - 1 do
      let p = sp.(i) and j = sid.(i) in
      let k = ref i in
      while !k > lo && sp.(!k - 1) < p do
        sp.(!k) <- sp.(!k - 1);
        sid.(!k) <- sid.(!k - 1);
        decr k
      done;
      sp.(!k) <- p;
      sid.(!k) <- j
    done
  else begin
    let seg = Array.sub sid lo (hi - lo) in
    Array.stable_sort (fun a b -> Int.compare (job_p b) (job_p a)) seg;
    Array.blit seg 0 sid lo (hi - lo);
    for i = lo to hi - 1 do
      sp.(i) <- job_p sid.(i)
    done
  end

(* Each class's job indices are sorted once by (p descending, index
   ascending) into a CSR segment. The segment then starts with its bigs
   (p > T/2), followed by its mids (T/3 < p <= T/2), so a feasibility probe
   reads them in place: the bigs backwards for the ascending two-pointer,
   the mids forwards, exactly the sequences [cu_large] sorts into. The scan
   stops at the first job of at most T/3. LPT, the item sort and the round
   robin then run on int arrays, in [Lpt.split]'s first-minimum bin order,
   with items numbered by class, then bin. O(n log n) once, O(n) per probe,
   O(log ub) probes.

   The two ablation switches: [area_only] counts C1_u alone (A2);
   [input_order] lists each class's jobs in index order instead of LPT
   order when splitting it into sub-classes (A3). *)
let solve_ablation ~area_only ~input_order inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Approx.Nonpreemptive.solve: C > c*m, no schedule exists";
  Border_search.solve_phase @@ fun () ->
  let n = Instance.n inst and m = Instance.m inst in
  if m >= n then begin
    (* One machine per job is optimal (makespan pmax = LB). *)
    let sched = Array.init n (fun j -> j) in
    (sched, { t_guess = Instance.pmax inst; probes = 0 })
  end
  else begin
    let loads = Instance.class_load inst in
    let classes = Instance.num_classes inst in
    let offsets, ids = Instance.class_jobs_csr inst in
    let job_p = Instance.job_p inst in
    let sid = if input_order then Array.copy ids else ids in
    let sp = Array.map job_p sid in
    let widest = ref 0 in
    for u = 0 to classes - 1 do
      sort_segment ~job_p sp sid offsets.(u) offsets.(u + 1);
      widest := max !widest (offsets.(u + 1) - offsets.(u))
    done;
    let cu_cls ~t u =
      if area_only then ceil_div loads.(u) t
      else begin
        let lo = offsets.(u) and hi = offsets.(u + 1) in
        let half = t / 2 and third = t / 3 in
        let bigs_end = ref lo in
        while !bigs_end < hi && sp.(!bigs_end) > half do incr bigs_end done;
        let mids_end = ref !bigs_end in
        while !mids_end < hi && sp.(!mids_end) > third do incr mids_end done;
        let bi = ref (!bigs_end - 1) and mi = ref !bigs_end and lu = ref 0 in
        while !mi < !mids_end do
          if !bi < lo then begin
            lu := !lu + (!mids_end - !mi);
            mi := !mids_end
          end
          else if sp.(!mi) <= t - sp.(!bi) then begin
            decr bi;
            incr mi
          end
          else begin
            incr lu;
            incr mi
          end
        done;
        let c2 = !bigs_end - lo + ((!lu + 1) / 2) in
        max (ceil_div loads.(u) t) c2
      end
    in
    let cap = Border_search.slot_cap ~machines:m ~slots:(Instance.c inst) in
    let probes = ref 0 in
    let feasible t =
      Ccs_resil.Deadline.check chk_probe;
      incr probes;
      let count = ref 0 in
      try
        for u = 0 to classes - 1 do
          count := !count + cu_cls ~t u;
          if !count > cap then raise Exit
        done;
        true
      with Exit -> false
    in
    let lb = Bounds.lb_integral inst in
    let ub = max lb (Array.fold_left max 0 loads) in
    let lo = ref lb and hi = ref ub in
    if not (feasible ub) then
      invalid_arg "Approx.Nonpreemptive.solve: unschedulable at the upper bound";
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    let t = !lo in
    (* LPT over each presorted segment (list scheduling over the unsorted
       one under [input_order]) with [Lpt.split]'s first-minimum bin scan.
       C_u is at most the class's job count (every p <= T), so one scratch
       row of bins serves every class. Items are numbered in creation order
       (class, then bin, empty bins skipped); [pos_item] holds first the
       bin, then the item of each segment position. *)
    let order, order_p = if input_order then (ids, Array.map job_p ids) else (sid, sp) in
    let bin_load = Array.make !widest 0 and bin_item = Array.make !widest 0 in
    let pos_item = Array.make n 0 and item_load = Array.make n 0 in
    let items = ref 0 in
    for u = 0 to classes - 1 do
      let lo_u = offsets.(u) and hi_u = offsets.(u + 1) in
      let bins = cu_cls ~t u in
      Array.fill bin_load 0 bins 0;
      for i = lo_u to hi_u - 1 do
        let best = ref 0 in
        for k = 1 to bins - 1 do
          if bin_load.(k) < bin_load.(!best) then best := k
        done;
        pos_item.(i) <- !best;
        bin_load.(!best) <- bin_load.(!best) + order_p.(i)
      done;
      (* sizes are positive: a bin is empty iff its load is 0 *)
      for k = 0 to bins - 1 do
        if bin_load.(k) > 0 then begin
          bin_item.(k) <- !items;
          item_load.(!items) <- bin_load.(k);
          incr items
        end
      done;
      for i = lo_u to hi_u - 1 do
        pos_item.(i) <- bin_item.(pos_item.(i))
      done
    done;
    (* Round robin: items by non-ascending load, ties in creation order,
       the item of rank r on machine r mod m. *)
    let ranked = Round_robin.sort_desc item_load (Array.init !items Fun.id) in
    let item_machine = Array.make !items 0 in
    Array.iteri (fun r it -> item_machine.(it) <- r mod m) ranked;
    let assignment = Array.make n (-1) in
    for i = 0 to n - 1 do
      assignment.(order.(i)) <- item_machine.(pos_item.(i))
    done;
    (assignment, { t_guess = t; probes = !probes })
  end

let solve inst = solve_ablation ~area_only:false ~input_order:false inst

(* the name bench/e2e calls; see nonpreemptive.mli *)
let solve_flat = solve
