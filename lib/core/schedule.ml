module Q = Rat

type block = { cls : int; m_start : int; m_count : int; per_machine : Q.t }

type splittable = {
  blocks : block list;
  explicit_machines : (int * (int * Q.t) list) list;
}

type piece = { job : int; size : Q.t }

(* [covering s] returns, for each explicit entry of [s] (by position), the
   blocks whose run contains its machine, and the entries' machines in
   increasing order. The explicit ids are sorted once and each block
   touches only the ids inside its range, so the whole pass is
   O((B + E) log E) instead of the O(B * E) of rescanning all blocks per
   explicit machine. *)
let covering s =
  let ids = Array.of_list (List.map fst s.explicit_machines) in
  let k = Array.length ids in
  let order = Array.init k Fun.id in
  Array.stable_sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let sorted = Array.map (fun i -> ids.(i)) order in
  let cover = Array.make k [] in
  (* first position with sorted.(i) >= x *)
  let lower_bound x =
    let lo = ref 0 and hi = ref k in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if sorted.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  List.iter
    (fun b ->
      let i = ref (lower_bound b.m_start) in
      while !i < k && sorted.(!i) < b.m_start + b.m_count do
        cover.(order.(!i)) <- b :: cover.(order.(!i));
        incr i
      done)
    s.blocks;
  (cover, sorted)

let makespan_covered cover s =
  let block_max =
    List.fold_left (fun acc b -> Q.max acc b.per_machine) Q.zero s.blocks
  in
  (* A machine can appear in a block and in the explicit list; combine. *)
  let pos = ref (-1) in
  List.fold_left
    (fun acc (_, loads) ->
      incr pos;
      let on_blocks = List.fold_left (fun t b -> Q.add t b.per_machine) Q.zero cover.(!pos) in
      Q.max acc (List.fold_left (fun t (_, l) -> Q.add t l) on_blocks loads))
    block_max s.explicit_machines

let splittable_makespan s = makespan_covered (fst (covering s)) s

let validate_splittable inst s =
  let mcount = Instance.m inst in
  let fail msg = Error msg in
  let blocks = Array.of_list s.blocks in
  let nb = Array.length blocks in
  let stop b = b.m_start + b.m_count in
  (* The lowest list position of a block overlapping another one. In
     [m_start] order a run overlaps another iff it starts before the
     furthest reach of the runs sorted before it, or ends after the start
     of the next one: O(B log B), nothing per machine. Empty runs overlap
     nothing; their own check reports them. *)
  let first_overlap =
    let order = Array.of_list (List.filter (fun i -> blocks.(i).m_count > 0) (List.init nb Fun.id)) in
    Array.stable_sort (fun i j -> Int.compare blocks.(i).m_start blocks.(j).m_start) order;
    let k = Array.length order and reach = ref min_int and first = ref nb in
    Array.iteri
      (fun pos i ->
        let b = blocks.(i) in
        if !reach > b.m_start || (pos + 1 < k && blocks.(order.(pos + 1)).m_start < stop b)
        then first := min !first i;
        reach := max !reach (stop b))
      order;
    !first
  in
  (* list order decides which offender is reported *)
  let rec check_blocks i =
    if i = nb then Ok ()
    else
      let b = blocks.(i) in
      if b.m_count <= 0 then fail "block with non-positive machine count"
      else if b.m_start < 0 || stop b > mcount then fail "block out of machine range"
      else if Q.sign b.per_machine <= 0 then fail "block with non-positive load"
      else if b.cls < 0 || b.cls >= Instance.num_classes inst then fail "block with bad class"
      else if i = first_overlap then fail "overlapping blocks"
      else check_blocks (i + 1)
  in
  match check_blocks 0 with
  | Error _ as e -> e
  | Ok () -> (
      (* explicit machines: indices valid and unique *)
      let cover, machines = covering s in
      let rec distinct i =
        i >= Array.length machines || (machines.(i) <> machines.(i - 1) && distinct (i + 1))
      in
      let explicit_ok =
        distinct 1
        && List.for_all
             (fun (m, loads) ->
               m >= 0 && m < mcount
               && List.for_all
                    (fun (cls, l) ->
                      Q.sign l > 0 && cls >= 0 && cls < Instance.num_classes inst)
                    loads)
             s.explicit_machines
      in
      if not explicit_ok then fail "bad explicit machine entry"
      else begin
        (* per-class totals *)
        let totals = Array.make (Instance.num_classes inst) Q.zero in
        List.iter
          (fun b ->
            totals.(b.cls) <-
              Q.add totals.(b.cls) (Q.mul b.per_machine (Q.of_int b.m_count)))
          s.blocks;
        List.iter
          (fun (_, loads) ->
            List.iter (fun (cls, l) -> totals.(cls) <- Q.add totals.(cls) l) loads)
          s.explicit_machines;
        let class_load = Instance.class_load inst in
        let mismatch = ref None in
        Array.iteri
          (fun u total ->
            if !mismatch = None && not (Q.equal total (Q.of_int class_load.(u))) then
              mismatch := Some u)
          totals;
        match !mismatch with
        | Some u ->
            fail (Printf.sprintf "class %d: scheduled %s but P_u = %d" u
                    (Q.to_string totals.(u)) class_load.(u))
        | None ->
            (* class-slot constraint per machine: every machine of a block has
               that block's class; explicit machines add their listed classes.
               Explicit machines falling inside blocks combine. [stamp.(u)] is
               the last explicit position that counted class [u]. *)
            let stamp = Array.make (Instance.num_classes inst) (-1) in
            let pos = ref (-1) in
            let slot_violation =
              List.exists
                (fun (_, loads) ->
                  incr pos;
                  let count = ref 0 in
                  let touch u =
                    if stamp.(u) <> !pos then begin
                      stamp.(u) <- !pos;
                      incr count
                    end
                  in
                  List.iter (fun b -> touch b.cls) cover.(!pos);
                  List.iter (fun (u, _) -> touch u) loads;
                  !count > Instance.c inst)
                s.explicit_machines
            in
            if slot_violation then fail "machine exceeds class slots"
            else Ok (makespan_covered cover s)
      end)

let to_job_pieces ?(limit = 1_000_000) inst s =
  (* Gather per-class machine loads in increasing machine order, then cut the
     class's jobs (index order) canonically. *)
  let nclasses = Instance.num_classes inst in
  let per_class = Array.make nclasses [] in
  List.iter
    (fun b ->
      if b.m_count > limit then invalid_arg "Schedule.to_job_pieces: too many machines";
      for k = b.m_count - 1 downto 0 do
        per_class.(b.cls) <- (b.m_start + k, b.per_machine) :: per_class.(b.cls)
      done)
    s.blocks;
  List.iter
    (fun (m, loads) ->
      List.iter (fun (cls, l) -> per_class.(cls) <- (m, l) :: per_class.(cls)) loads)
    s.explicit_machines;
  let machines : (int, piece list ref) Hashtbl.t = Hashtbl.create 64 in
  let add_piece m pc =
    match Hashtbl.find_opt machines m with
    | Some r -> r := pc :: !r
    | None ->
        if Hashtbl.length machines >= limit then
          invalid_arg "Schedule.to_job_pieces: too many machines";
        Hashtbl.replace machines m (ref [ pc ])
  in
  let offsets, ids = Instance.class_jobs_csr inst in
  for u = 0 to nclasses - 1 do
    let loads = List.sort (fun (a, _) (b, _) -> compare a b) per_class.(u) in
    (* jobs of class u as a queue of (job, remaining) *)
    let jobs =
      ref
        (List.init (offsets.(u + 1) - offsets.(u)) (fun k ->
             let j = ids.(offsets.(u) + k) in
             (j, Q.of_int (Instance.job_p inst j))))
    in
    List.iter
      (fun (m, load) ->
        let remaining = ref load in
        while Q.sign !remaining > 0 do
          match !jobs with
          | [] -> invalid_arg "Schedule.to_job_pieces: class over-scheduled"
          | (j, rem) :: rest ->
              let take = Q.min rem !remaining in
              add_piece m { job = j; size = take };
              remaining := Q.sub !remaining take;
              let rem' = Q.sub rem take in
              if Q.sign rem' = 0 then jobs := rest else jobs := (j, rem') :: rest
        done)
      loads
  done;
  Hashtbl.fold (fun m r acc -> (m, List.rev !r) :: acc) machines []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)

type ppiece = { pjob : int; start : Q.t; len : Q.t }

type preemptive = ppiece list array

let preemptive_makespan sched =
  Array.fold_left
    (fun acc pieces ->
      List.fold_left (fun a pc -> Q.max a (Q.add pc.start pc.len)) acc pieces)
    Q.zero sched

let validate_preemptive inst sched =
  let fail msg = Error msg in
  if Array.length sched > Instance.m inst then fail "more machines used than available"
  else begin
    let n = Instance.n inst in
    (* every piece in machine order; [class_stamp.(u)] is the last machine
       that counted class [u] *)
    let total = Array.fold_left (fun acc l -> acc + List.length l) 0 sched in
    let all = Array.make total { pjob = 0; start = Q.zero; len = Q.zero } in
    let filled = ref 0 and makespan = ref Q.zero in
    let class_stamp = Array.make (Instance.num_classes inst) (-1) in
    let stop pc = Q.add pc.start pc.len in
    (* The first failure in machine order wins and ends the scan; within a
       machine, piece errors (in list order) come before overlap, overlap
       before the class count. While every piece starts no earlier than
       its predecessor ends ([chained]), the list is in start order and
       disjoint, and [finish] is the machine's last end; only a machine
       that breaks the chain has its pieces sorted. *)
    let rec check_machine mi classes finish chained = function
      | pc :: rest ->
          if pc.pjob < 0 || pc.pjob >= n then Some "bad job index"
          else if Q.sign pc.len <= 0 then Some "non-positive piece"
          else if Q.sign pc.start < 0 then Some "negative start"
          else begin
            let u = Instance.job_cls inst pc.pjob in
            let fresh = class_stamp.(u) <> mi in
            class_stamp.(u) <- mi;
            all.(!filled) <- pc;
            incr filled;
            check_machine mi
              (if fresh then classes + 1 else classes)
              (stop pc)
              (chained && (Q.equal finish pc.start || Q.compare finish pc.start < 0))
              rest
          end
      | [] ->
          let rec disjoint = function
            | a :: (b :: _ as rest) -> Q.compare (stop a) b.start <= 0 && disjoint rest
            | _ -> true
          in
          let by_start = List.sort (fun a b -> Q.compare a.start b.start) in
          if not (chained || disjoint (by_start sched.(mi))) then Some "overlapping pieces"
          else if classes > Instance.c inst then Some "too many classes"
          else begin
            let finish =
              if chained then finish
              else List.fold_left (fun acc pc -> Q.max acc (stop pc)) Q.zero sched.(mi)
            in
            makespan := Q.max !makespan finish;
            None
          end
    in
    let rec machines mi =
      if mi = Array.length sched then None
      else
        match check_machine mi 0 Q.zero true sched.(mi) with
        | Some msg -> Some (Printf.sprintf "machine %d: %s" mi msg)
        | None -> machines (mi + 1)
    in
    match machines 0 with
    | Some msg -> fail msg
    | None ->
        (* each job scheduled fully and never in parallel with itself; its
           pieces are grouped in CSR form: [by_job.(first.(j)) ..
           by_job.(first.(j + 1) - 1)] *)
        let first = Array.make (n + 1) 0 in
        Array.iter (fun pc -> first.(pc.pjob + 1) <- first.(pc.pjob + 1) + 1) all;
        for j = 1 to n do first.(j) <- first.(j) + first.(j - 1) done;
        let by_job = Array.make total 0 and fill = Array.sub first 0 n in
        Array.iteri (fun k { pjob = j; _ } -> by_job.(fill.(j)) <- k; fill.(j) <- fill.(j) + 1) all;
        let rec check_job j =
          if j = n then Ok !makespan
          else begin
            let lo = first.(j) and hi = first.(j + 1) in
            let scheduled = ref Q.zero in
            for i = lo to hi - 1 do scheduled := Q.add !scheduled all.(by_job.(i)).len done;
            let p = Instance.job_p inst j in
            if not (Q.equal !scheduled (Q.of_int p)) then
              fail (Printf.sprintf "job %d: scheduled %s of %d" j (Q.to_string !scheduled) p)
            else if hi - lo >= 2 && parallel (Array.sub by_job lo (hi - lo)) then
              fail (Printf.sprintf "job %d runs in parallel with itself" j)
            else check_job (j + 1)
          end
        (* sorted by start, pieces of positive length overlap iff some
           piece starts before its predecessor ends *)
        and parallel ks =
          Array.sort (fun a b -> Q.compare all.(a).start all.(b).start) ks;
          let rec scan i =
            i < Array.length ks
            && (Q.compare all.(ks.(i)).start (stop all.(ks.(i - 1))) < 0 || scan (i + 1))
          in
          scan 1
        in
        check_job 0
  end

(* ------------------------------------------------------------------ *)

type nonpreemptive = int array

let iter_machines assignment f =
  let n = Array.length assignment in
  let jobs = Array.init n Fun.id in
  if Array.for_all (fun mi -> mi >= 0 && mi < n) assignment then begin
    (* counting sort: O(n) *)
    let next = Array.make (n + 1) 0 in
    Array.iter (fun mi -> next.(mi + 1) <- next.(mi + 1) + 1) assignment;
    for i = 1 to n do next.(i) <- next.(i) + next.(i - 1) done;
    Array.iteri (fun j mi -> jobs.(next.(mi)) <- j; next.(mi) <- next.(mi) + 1) assignment
  end
  else Array.stable_sort (fun a b -> Int.compare assignment.(a) assignment.(b)) jobs;
  let start = ref 0 in
  for i = 1 to n do
    if i = n || assignment.(jobs.(i)) <> assignment.(jobs.(!start)) then begin
      f assignment.(jobs.(!start)) jobs !start i;
      start := i
    end
  done

let machine_load inst jobs lo hi =
  let load = ref 0 in
  for i = lo to hi - 1 do load := !load + Instance.job_p inst jobs.(i) done;
  !load

let nonpreemptive_makespan inst assignment =
  let makespan = ref 0 in
  iter_machines assignment (fun _ jobs lo hi ->
      makespan := max !makespan (machine_load inst jobs lo hi));
  !makespan

let validate_nonpreemptive inst assignment =
  let n = Instance.n inst and m = Instance.m inst in
  let rec bad_machine j =
    if j = n then None
    else if assignment.(j) < 0 || assignment.(j) >= m then Some j
    else bad_machine (j + 1)
  in
  if Array.length assignment <> n then Error "wrong assignment length"
  else
    match bad_machine 0 with
    | Some j -> Error (Printf.sprintf "job %d: bad machine" j)
    | None ->
        (* machines come in increasing order, so the first overfull one is
           the lowest; [class_stamp.(u)] is the last machine that counted [u] *)
        let class_stamp = Array.make (Instance.num_classes inst) (-1) in
        let overfull = ref None and makespan = ref 0 in
        iter_machines assignment (fun mi jobs lo hi ->
            if !overfull = None then begin
              let classes = ref 0 in
              for i = lo to hi - 1 do
                let u = Instance.job_cls inst jobs.(i) in
                if class_stamp.(u) <> mi then begin
                  class_stamp.(u) <- mi;
                  incr classes
                end
              done;
              if !classes > Instance.c inst then
                overfull := Some (Printf.sprintf "machine %d: %d classes > c" mi !classes);
              makespan := max !makespan (machine_load inst jobs lo hi)
            end);
        match !overfull with Some msg -> Error msg | None -> Ok !makespan

(* ------------------------------------------------------------------ *)

let render_loads ?(width = 8) machines =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun mi entries ->
      Buffer.add_string buf (Printf.sprintf "m%-3d |" mi);
      List.iter
        (fun (label, load) ->
          let cells =
            max 1 (int_of_float (Q.to_float load *. float_of_int width /. 4.0))
          in
          let text = label in
          let text =
            if String.length text >= cells then String.sub text 0 cells
            else text ^ String.make (cells - String.length text) ' '
          in
          Buffer.add_string buf (Printf.sprintf "%s|" text))
        entries;
      Buffer.add_char buf '\n')
    machines;
  Buffer.contents buf
