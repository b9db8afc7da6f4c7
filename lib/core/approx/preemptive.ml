module Q = Rat

type stats = { t_guess : Q.t; probes : int; repacked : bool }

(* Each class's job concatenation is cut at multiples of T into sub-class
   items; the items and their fragments live in flat CSR arrays, and the
   round robin's stable sort runs on an index array. With T = tn/q,
   cutting and sorting count in units of 1/q: every job (T >= pmax),
   unsplit class load and cut item is at most T, so each such quantity is
   an int of at most tn. Only the output pieces are [Rat]s; their starts
   reach 2T, and 2*tn may not fit an int. The property suite pins this
   core bit-identical to a list-based reference of the paper's steps, so
   every cut point, the stable tie order and the round-robin placement
   must match it exactly. *)
let solve inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Approx.Preemptive.solve: C > c*m, no schedule exists";
  Border_search.solve_phase @@ fun () ->
  let n = Instance.n inst and m = Instance.m inst in
  let job_p = Instance.job_p inst in
  if m >= n then begin
    (* One machine per job: makespan pmax = LB, an optimal schedule. *)
    let sched =
      Array.init n (fun j ->
          [ { Schedule.pjob = j; start = Q.zero; len = Q.of_int (job_p j) } ])
    in
    (sched, { t_guess = Q.of_int (Instance.pmax inst); probes = 0; repacked = false })
  end
  else begin
    let loads = Instance.class_load inst in
    let offsets, ids = Instance.class_jobs_csr inst in
    (* T >= pmax, so each job is cut at most once *)
    let { Border_search.t_star = t; probes } =
      Border_search.search ~loads ~machines:m ~slots:(Instance.c inst)
        ~lb:(Bounds.lb_preemptive inst)
    in
    let tn = Bigint.to_int_exn (Q.num t) and q = Bigint.to_int_exn (Q.den t) in
    (* P_u > tn/q iff P_u > floor (tn/q): P_u is an integer *)
    let split u = loads.(u) > tn / q in
    let nc = Array.length loads in
    (* Exact item count: a class above T makes exactly ceil(pu/T) items
       (the last one iff a remainder is left), anything else a single
       item. *)
    let total_items = ref 0 in
    for u = 0 to nc - 1 do
      total_items :=
        !total_items
        + (if split u then Bigint.to_int_exn (Q.ceil (Q.div (Q.of_int loads.(u)) t)) else 1)
    done;
    let total_items = !total_items in
    (* Each of the at most [total_items - 1] cuts adds one fragment beyond
       the per-job one, so [n + total_items] bounds the fragment count. *)
    let frag_cap = n + total_items in
    let item_size = Array.make total_items 0 in
    let item_off = Array.make (total_items + 1) 0 in
    let frag_job = Array.make frag_cap 0 in
    let frag_len = Array.make frag_cap 0 in
    let ni = ref 0 and nf = ref 0 in
    let add_frag j len =
      frag_job.(!nf) <- j;
      frag_len.(!nf) <- len;
      incr nf
    in
    let close_item size =
      item_size.(!ni) <- size;
      incr ni;
      item_off.(!ni) <- !nf
    in
    let any_split = ref false in
    for u = 0 to nc - 1 do
      if split u then begin
        any_split := true;
        let current = ref 0 in
        for k = offsets.(u) to offsets.(u + 1) - 1 do
          let j = ids.(k) in
          let remaining = ref (job_p j * q) in
          while !remaining > 0 do
            let take = min (tn - !current) !remaining in
            add_frag j take;
            current := !current + take;
            remaining := !remaining - take;
            if !current = tn then begin
              close_item tn;
              current := 0
            end
          done
        done;
        if !current > 0 then close_item !current
      end
      else begin
        for k = offsets.(u) to offsets.(u + 1) - 1 do
          let j = ids.(k) in
          add_frag j (job_p j * q)
        done;
        close_item (loads.(u) * q)
      end
    done;
    assert (!ni = total_items);
    (* Items by non-ascending size, ties in creation order: same-class
       slices stay consecutive and in slicing order, as in Figure 1. *)
    let order = Round_robin.sort_desc item_size (Array.init total_items Fun.id) in
    (* Stack items bottom-up; if any class was split, shift everything
       above each machine's first item to start at time T (Algorithm 2). *)
    let repack = !any_split in
    let sched =
      Array.init m (fun mi ->
          let pieces = ref [] in
          let top = ref Q.zero in
          let idx = ref 0 in
          let i = ref mi in
          while !i < total_items do
            let it = order.(!i) in
            if repack && !idx = 1 then top := Q.max !top t;
            for k = item_off.(it) to item_off.(it + 1) - 1 do
              let len = Q.of_ints frag_len.(k) q in
              pieces := { Schedule.pjob = frag_job.(k); start = !top; len } :: !pieces;
              top := Q.add !top len
            done;
            incr idx;
            i := !i + m
          done;
          List.rev !pieces)
    in
    (sched, { t_guess = t; probes; repacked = repack })
  end

(* the name bench/e2e calls; see preemptive.mli *)
let solve_flat = solve
