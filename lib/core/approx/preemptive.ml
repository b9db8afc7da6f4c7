module Q = Rat

type stats = { t_guess : Q.t; probes : int; repacked : bool }

(* A sub-class item: fragments (job, length) stacked in order; [size] is
   their total. *)
type item = { size : Q.t; frags : (int * Q.t) list }

let m_flat_solves = Ccs_obs.Metrics.counter "approx.flat_solves"
    ~help:"2-approximation solves run directly on the flat representation"

(* Shared core: both front-ends present jobs through [job_p] and
   [iter_cls] (job indices of a class in increasing order), so the record
   and flat paths traverse identical data in identical order and emit
   bit-identical schedules. *)
let solve_on ~n ~machines:m ~slots ~loads ~total_load ~pmax ~job_p ~iter_cls =
  if m >= n then begin
    (* One machine per job: makespan pmax = LB, an optimal schedule. *)
    let sched =
      Array.init n (fun j ->
          [ { Schedule.pjob = j; start = Q.zero; len = Q.of_int (job_p j) } ])
    in
    (sched, { t_guess = Q.of_int pmax; probes = 0; repacked = false })
  end
  else begin
    let lb = Bounds.lb_preemptive_of ~total_load ~machines:m ~pmax in
    let { Border_search.t_star = t; probes } =
      Border_search.search ~loads ~machines:m ~slots ~lb
    in
    (* Cut each large class's job concatenation at multiples of T. Because
       T >= pmax, a job is cut at most once. *)
    let items = ref [] in
    let any_split = ref false in
    Array.iteri
      (fun u pu ->
        let pu_q = Q.of_int pu in
        if Q.(pu_q > t) then begin
          any_split := true;
          let current = ref [] and current_size = ref Q.zero in
          let flush () =
            if Q.sign !current_size > 0 then begin
              items := { size = !current_size; frags = List.rev !current } :: !items;
              current := [];
              current_size := Q.zero
            end
          in
          iter_cls u (fun j ->
              let remaining = ref (Q.of_int (job_p j)) in
              while Q.sign !remaining > 0 do
                let room = Q.sub t !current_size in
                let take = Q.min room !remaining in
                current := (j, take) :: !current;
                current_size := Q.add !current_size take;
                remaining := Q.sub !remaining take;
                if Q.(Q.sub t !current_size = Q.zero) then flush ()
              done);
          flush ()
        end
        else begin
          let frags = ref [] in
          iter_cls u (fun j -> frags := (j, Q.of_int (job_p j)) :: !frags);
          items := { size = pu_q; frags = List.rev !frags } :: !items
        end)
      loads;
    (* Stable sort on the build order keeps same-class slices consecutive
       and in slicing order among equal sizes, as in Figure 1. *)
    let sorted = List.stable_sort (fun a b -> Q.compare b.size a.size) (List.rev !items) in
    let per_machine = Round_robin.assign ~machines:m sorted in
    (* Stack items bottom-up; if any class was split, shift everything above
       each machine's first item to start at time T (Algorithm 2). *)
    let repack = !any_split in
    let sched =
      Array.map
        (fun machine_items ->
          let pieces = ref [] in
          let top = ref Q.zero in
          List.iteri
            (fun idx item ->
              if repack && idx = 1 then top := Q.max !top t;
              List.iter
                (fun (j, len) ->
                  pieces := { Schedule.pjob = j; start = !top; len } :: !pieces;
                  top := Q.add !top len)
                item.frags)
            machine_items;
          List.rev !pieces)
        per_machine
    in
    (sched, { t_guess = t; probes; repacked = repack })
  end

let solve inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Approx.Preemptive.solve: C > c*m, no schedule exists";
  let class_jobs = Instance.class_jobs inst in
  solve_on ~n:(Instance.n inst) ~machines:(Instance.m inst) ~slots:(Instance.c inst)
    ~loads:(Instance.class_load inst) ~total_load:(Instance.total_load inst)
    ~pmax:(Instance.pmax inst)
    ~job_p:(fun j -> (Instance.job inst j).Instance.p)
    ~iter_cls:(fun u f -> List.iter f class_jobs.(u))

(* Flat fast path: the same cutting, ordering and stacking as [solve_on],
   but the sub-class items and their fragments live in flat CSR arrays
   instead of per-item cons cells, and the final stable sort runs on an
   index array. With T = tn/q, cutting and sorting count in units of 1/q:
   every job (T >= pmax), unsplit class load and cut item is at most T, so
   each such quantity is an int of at most tn. Only the output pieces are
   [Rat]s; their starts reach 2T, and 2*tn may not fit an int. The property
   suite pins this path's output bit-identical to [solve_on]'s, so every
   cut point, the stable tie order and the round-robin placement must
   match exactly. *)
let solve_on_flat ~n ~machines:m ~slots ~loads ~total_load ~pmax ~job_p ~offsets ~ids =
  if m >= n then begin
    let sched =
      Array.init n (fun j ->
          [ { Schedule.pjob = j; start = Q.zero; len = Q.of_int (job_p j) } ])
    in
    (sched, { t_guess = Q.of_int pmax; probes = 0; repacked = false })
  end
  else begin
    let lb = Bounds.lb_preemptive_of ~total_load ~machines:m ~pmax in
    let { Border_search.t_star = t; probes } =
      Border_search.search ~loads ~machines:m ~slots ~lb
    in
    let tn = Bigint.to_int_exn (Q.num t) and q = Bigint.to_int_exn (Q.den t) in
    (* P_u > tn/q iff P_u > floor (tn/q): P_u is an integer *)
    let split u = loads.(u) > tn / q in
    let nc = Array.length loads in
    (* Exact item count: a class above T flushes exactly ceil(pu/T) items
       (the final flush fires iff a remainder is left), anything else is a
       single item — even an empty class, which [solve_on] also emits (its
       zero-size item shifts the round robin's modulo). *)
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
    (* Stable sort of the identity permutation = the unique stable order,
       the same permutation [solve_on]'s List.stable_sort produces. *)
    let order = Round_robin.sort_desc item_size (Array.init total_items Fun.id) in
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

let solve_flat fl =
  if not (Instance.Flat.schedulable fl) then
    invalid_arg "Approx.Preemptive.solve: C > c*m, no schedule exists";
  Ccs_obs.Metrics.incr m_flat_solves;
  Ccs_obs.Recorder.phase "approx" @@ fun () ->
  let offsets, ids = Instance.Flat.class_jobs_csr fl in
  solve_on_flat ~n:(Instance.Flat.n fl) ~machines:(Instance.Flat.m fl)
    ~slots:(Instance.Flat.c fl) ~loads:(Instance.Flat.class_load fl)
    ~total_load:(Instance.Flat.total_load fl) ~pmax:(Instance.Flat.pmax fl)
    ~job_p:(Instance.Flat.job_p fl) ~offsets ~ids
