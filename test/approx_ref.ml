(* Reference implementations of the three 2-approximations, written step
   by step from the paper with lists, rationals and the [Instance.job]
   record accessor. The production cores in lib/core/approx run the same
   steps on int arrays and CSR class views; the properties in
   test_stream.ml and test_approx.ml pin them bit-identical to these
   (schedules and stats). *)

module Q = Rat
module I = Ccs.Instance
module S = Ccs.Schedule
module BS = Ccs.Approx.Border_search

(* job indices of each class, in increasing order *)
let class_jobs inst =
  let buckets = Array.make (I.num_classes inst) [] in
  for j = I.n inst - 1 downto 0 do
    let u = (I.job inst j).I.cls in
    buckets.(u) <- j :: buckets.(u)
  done;
  buckets

let job_p inst j = (I.job inst j).I.p

(* Algorithm 1 (Theorem 4): slice every class above T into full slices of
   size T, which become consecutive blocks, plus one remainder; round-robin
   the remainders and the unsliced classes in non-ascending size order from
   machine F on. *)
let splittable inst =
  let loads = I.class_load inst and m = I.m inst in
  let { BS.t_star = t; probes } =
    BS.search ~loads ~machines:m ~slots:(I.c inst) ~lb:(Ccs.Bounds.lb_splittable inst)
  in
  let blocks = ref [] and cursor = ref 0 and tail_items = ref [] in
  Array.iteri
    (fun u pu ->
      let pu_q = Q.of_int pu in
      if Q.(pu_q > t) then begin
        let f = Bigint.to_int_exn (Q.ceil (Q.div pu_q t)) - 1 in
        let remainder = Q.sub pu_q (Q.mul (Q.of_int f) t) in
        if f > 0 then begin
          blocks := { S.cls = u; m_start = !cursor; m_count = f; per_machine = t } :: !blocks;
          cursor := !cursor + f
        end;
        tail_items := (u, remainder) :: !tail_items
      end
      else tail_items := (u, pu_q) :: !tail_items)
    loads;
  let full = !cursor in
  let items = List.stable_sort (fun (_, a) (_, b) -> Q.compare b a) !tail_items in
  let per_machine = Hashtbl.create 16 in
  List.iteri
    (fun i (u, size) ->
      let machine = (full + i) mod m in
      match Hashtbl.find_opt per_machine machine with
      | Some r -> r := (u, size) :: !r
      | None -> Hashtbl.replace per_machine machine (ref [ (u, size) ]))
    items;
  let explicit_machines =
    Hashtbl.fold (fun machine r acc -> (machine, List.rev !r) :: acc) per_machine []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  ( { S.blocks = List.rev !blocks; explicit_machines },
    { Ccs.Approx.Splittable.t_guess = t; probes; full_slices = full } )

(* A sub-class item: fragments (job, length) stacked in order; [size] is
   their total. *)
type item = { size : Q.t; frags : (int * Q.t) list }

(* Theorem 5: Algorithm 1 with LB max (pmax, sum p / m), then Algorithm 2's
   shift of everything above each machine's first item to time T. *)
let preemptive inst =
  let n = I.n inst and m = I.m inst in
  if m >= n then
    ( Array.init n (fun j -> [ { S.pjob = j; start = Q.zero; len = Q.of_int (job_p inst j) } ]),
      { Ccs.Approx.Preemptive.t_guess = Q.of_int (I.pmax inst); probes = 0; repacked = false } )
  else begin
    let loads = I.class_load inst in
    let { BS.t_star = t; probes } =
      BS.search ~loads ~machines:m ~slots:(I.c inst) ~lb:(Ccs.Bounds.lb_preemptive inst)
    in
    let class_jobs = class_jobs inst in
    (* Cut each large class's job concatenation at multiples of T. Because
       T >= pmax, a job is cut at most once. *)
    let items = ref [] and any_split = ref false in
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
          List.iter
            (fun j ->
              let remaining = ref (Q.of_int (job_p inst j)) in
              while Q.sign !remaining > 0 do
                let take = Q.min (Q.sub t !current_size) !remaining in
                current := (j, take) :: !current;
                current_size := Q.add !current_size take;
                remaining := Q.sub !remaining take;
                if Q.equal !current_size t then flush ()
              done)
            class_jobs.(u);
          flush ()
        end
        else
          items :=
            { size = pu_q; frags = List.map (fun j -> (j, Q.of_int (job_p inst j))) class_jobs.(u) }
            :: !items)
      loads;
    (* Stable sort on the build order keeps same-class slices consecutive
       and in slicing order among equal sizes, as in Figure 1. *)
    let sorted = List.stable_sort (fun a b -> Q.compare b.size a.size) (List.rev !items) in
    let per_machine = Ccs.Approx.Round_robin.assign ~machines:m sorted in
    let repack = !any_split in
    let sched =
      Array.map
        (fun machine_items ->
          let pieces = ref [] and top = ref Q.zero in
          List.iteri
            (fun idx item ->
              if repack && idx = 1 then top := Q.max !top t;
              List.iter
                (fun (j, len) ->
                  pieces := { S.pjob = j; start = !top; len } :: !pieces;
                  top := Q.add !top len)
                item.frags)
            machine_items;
          List.rev !pieces)
        per_machine
    in
    (sched, { Ccs.Approx.Preemptive.t_guess = t; probes; repacked = repack })
  end

(* Theorem 6: binary search for the smallest integral T whose sub-class
   counts fit c * m slots, split each class into C_u sub-classes by LPT, and
   round-robin the sub-classes in non-ascending load order. [counter] and
   [use_lpt] are the A2 and A3 ablation switches. *)
let nonpreemptive ?(counter = Ccs.Approx.Nonpreemptive.cu) ?(use_lpt = true) inst =
  let n = I.n inst and m = I.m inst in
  if m >= n then
    (Array.init n Fun.id, { Ccs.Approx.Nonpreemptive.t_guess = I.pmax inst; probes = 0 })
  else begin
    let class_jobs = class_jobs inst in
    let class_sizes = Array.map (List.map (job_p inst)) class_jobs in
    let cap = BS.slot_cap ~machines:m ~slots:(I.c inst) in
    let probes = ref 0 in
    let feasible t =
      incr probes;
      Array.fold_left (fun count sizes -> count + counter ~t sizes) 0 class_sizes <= cap
    in
    let lb = max (I.pmax inst) (((I.total_load inst - 1) / m) + 1) in
    let ub = max lb (Array.fold_left max 0 (I.class_load inst)) in
    let lo = ref lb and hi = ref ub in
    if not (feasible ub) then invalid_arg "Approx_ref.nonpreemptive: unschedulable";
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    let t = !lo in
    let items = ref [] in
    Array.iter
      (fun jobs ->
        let sized = List.map (fun j -> (j, job_p inst j)) jobs in
        let bins = counter ~t (List.map snd sized) in
        let content, load = Ccs.Approx.Lpt.split ~sorted:use_lpt ~bins sized in
        Array.iteri
          (fun k part -> if part <> [] then items := (load.(k), List.map fst part) :: !items)
          content)
      class_jobs;
    let sorted = List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev !items) in
    let assignment = Array.make n (-1) in
    Array.iteri
      (fun machine items ->
        List.iter (fun (_, jobs) -> List.iter (fun j -> assignment.(j) <- machine) jobs) items)
      (Ccs.Approx.Round_robin.assign ~machines:m sorted);
    (assignment, { Ccs.Approx.Nonpreemptive.t_guess = t; probes = !probes })
  end
