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

let solve_with_counter ?(use_lpt = true) ~counter inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Approx.Nonpreemptive.solve: C > c*m, no schedule exists";
  let n = Instance.n inst in
  let m = Instance.m inst in
  if m >= n then begin
    (* One machine per job is optimal (makespan pmax = LB). *)
    let sched = Array.init n (fun j -> j) in
    (sched, { t_guess = Instance.pmax inst; probes = 0 })
  end
  else begin
    let class_jobs = Instance.class_jobs inst in
    let class_sizes =
      Array.map (List.map (fun j -> (Instance.job inst j).Instance.p)) class_jobs
    in
    let cap = Border_search.slot_cap ~machines:m ~slots:(Instance.c inst) in
    let probes = ref 0 in
    let feasible t =
      Ccs_resil.Deadline.check chk_probe;
      incr probes;
      let count = ref 0 in
      (try
         Array.iter
           (fun sizes ->
             count := !count + counter ~t sizes;
             if !count > cap then raise Exit)
           class_sizes;
         true
       with Exit -> false)
    in
    let total = Instance.total_load inst in
    let lb = max (Instance.pmax inst) (ceil_div total m) in
    let ub = max lb (Array.fold_left max 0 (Instance.class_load inst)) in
    (* Integral makespan: standard binary search for the smallest feasible
       guess (the count is monotone in T). *)
    let lo = ref lb and hi = ref ub in
    if not (feasible ub) then
      invalid_arg "Approx.Nonpreemptive.solve: unschedulable at the upper bound";
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    let t = !lo in
    (* Split every class into C_u sub-classes by LPT and round-robin the
       sub-classes in non-ascending load order. *)
    let items = ref [] in
    Array.iteri
      (fun u jobs ->
        let sized = List.map (fun j -> (j, (Instance.job inst j).Instance.p)) jobs in
        let bins = counter ~t (List.map snd sized) in
        let content, load = Lpt.split ~sorted:use_lpt ~bins sized in
        Array.iteri
          (fun k part ->
            if part <> [] then items := (load.(k), List.map fst part) :: !items)
          content;
        ignore u)
      class_jobs;
    let sorted = List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev !items) in
    let per_machine = Round_robin.assign ~machines:m sorted in
    let assignment = Array.make n (-1) in
    Array.iteri
      (fun machine items ->
        List.iter (fun (_, jobs) -> List.iter (fun j -> assignment.(j) <- machine) jobs) items)
      per_machine;
    (assignment, { t_guess = t; probes = !probes })
  end

let solve inst = solve_with_counter ~counter:cu inst

let m_flat_solves = Ccs_obs.Metrics.counter "approx.flat_solves"
    ~help:"2-approximation solves run directly on the flat representation"

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

(* Flat fast path. Same algorithm, same answers, different plumbing: each
   class's job indices are sorted once by (p descending, index ascending)
   into a CSR segment. The segment then starts with its bigs (p > T/2),
   followed by its mids (T/3 < p <= T/2), so a feasibility probe reads them
   in place: the bigs backwards for the ascending two-pointer, the mids
   forwards, exactly the sequences the list-based [cu_large] sorts into.
   The scan stops at the first job of at most T/3. LPT, the item sort and
   the round robin then run on int arrays, in [Lpt.split]'s first-minimum
   bin order and the list path's item order (class, then bin), so
   [solve_flat (Instance.to_flat i)] is bit-identical to [solve i].
   O(n log n) once, O(n) per probe, O(log ub) probes. *)
let solve_flat fl =
  if not (Instance.Flat.schedulable fl) then
    invalid_arg "Approx.Nonpreemptive.solve: C > c*m, no schedule exists";
  Ccs_obs.Metrics.incr m_flat_solves;
  Ccs_obs.Recorder.phase "approx" @@ fun () ->
  let n = Instance.Flat.n fl in
  let m = Instance.Flat.m fl in
  if m >= n then begin
    (* One machine per job is optimal (makespan pmax = LB). *)
    let sched = Array.init n (fun j -> j) in
    (sched, { t_guess = Instance.Flat.pmax fl; probes = 0 })
  end
  else begin
    let loads = Instance.Flat.class_load fl in
    let classes = Instance.Flat.num_classes fl in
    let offsets, sid = Instance.Flat.class_jobs_csr fl in
    let job_p = Instance.Flat.job_p fl in
    let sp = Array.map job_p sid in
    let widest = ref 0 in
    for u = 0 to classes - 1 do
      sort_segment ~job_p sp sid offsets.(u) offsets.(u + 1);
      widest := max !widest (offsets.(u + 1) - offsets.(u))
    done;
    let cu_cls ~t u =
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
    in
    let cap = Border_search.slot_cap ~machines:m ~slots:(Instance.Flat.c fl) in
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
    let total = Instance.Flat.total_load fl in
    let lb = max (Instance.Flat.pmax fl) (ceil_div total m) in
    let ub = max lb (Array.fold_left max 0 loads) in
    let lo = ref lb and hi = ref ub in
    if not (feasible ub) then
      invalid_arg "Approx.Nonpreemptive.solve: unschedulable at the upper bound";
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    let t = !lo in
    (* LPT over each presorted segment with [Lpt.split]'s first-minimum bin
       scan. C_u is at most the class's job count (every p <= T), so one
       scratch row of bins serves every class. Items are numbered in
       creation order (class, then bin, empty bins skipped); [pos_item]
       holds first the bin, then the item of each segment position. *)
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
        bin_load.(!best) <- bin_load.(!best) + sp.(i)
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
    (* Round robin: items by non-ascending load, ties in creation order
       (the list path's stable sort), the item of rank r on machine r mod m. *)
    let order = Round_robin.sort_desc item_load (Array.init !items Fun.id) in
    let item_machine = Array.make !items 0 in
    Array.iteri (fun r it -> item_machine.(it) <- r mod m) order;
    let assignment = Array.make n (-1) in
    for i = 0 to n - 1 do
      assignment.(sid.(i)) <- item_machine.(pos_item.(i))
    done;
    (assignment, { t_guess = t; probes = !probes })
  end
