type t = { base : Instance.t; slots : int array }

let make base slots =
  if Array.length slots <> Instance.m base then
    invalid_arg "Hetero.make: one slot budget per machine required";
  Array.iter (fun c -> if c <= 0 then invalid_arg "Hetero.make: non-positive budget") slots;
  { base; slots }

let schedulable t =
  Array.fold_left ( + ) 0 t.slots >= Instance.num_classes t.base

let validate t assignment =
  if Array.length assignment <> Instance.n t.base then Error "wrong assignment length"
  else begin
    let m = Instance.m t.base in
    let loads = Array.make m 0 in
    let classes = Array.init m (fun _ -> Hashtbl.create 4) in
    let bad = ref None in
    Array.iteri
      (fun j mi ->
        if mi < 0 || mi >= m then bad := Some (Printf.sprintf "job %d: bad machine" j)
        else begin
          loads.(mi) <- loads.(mi) + Instance.job_p t.base j;
          Hashtbl.replace classes.(mi) (Instance.job_cls t.base j) ()
        end)
      assignment;
    Array.iteri
      (fun mi tbl ->
        if Hashtbl.length tbl > t.slots.(mi) then
          bad :=
            Some (Printf.sprintf "machine %d: %d classes > c_%d = %d" mi (Hashtbl.length tbl) mi t.slots.(mi)))
      classes;
    match !bad with Some e -> Error e | None -> Ok (Array.fold_left max 0 loads)
  end

(* Greedy: split classes by the Theorem 6 counter against a guess T found
   by binary search on the aggregate capacity, then assign sub-classes in
   non-ascending load order to the least-loaded machine that still offers a
   slot (machines already hosting the class are free). *)
let solve_greedy t =
  if not (schedulable t) then invalid_arg "Hetero.solve_greedy: unschedulable";
  let inst = t.base in
  let n = Instance.n inst in
  let m = Instance.m inst in
  let members = Ptas.Common.class_members inst in
  let class_sizes = Array.map (List.map snd) members in
  let cap = Array.fold_left ( + ) 0 t.slots in
  let lb = Bounds.lb_integral inst in
  let ub = max lb (Array.fold_left max 0 (Instance.class_load inst)) in
  let feasible guess =
    let count = ref 0 in
    (try
       Array.iter
         (fun sizes ->
           count := !count + Approx.Nonpreemptive.cu ~t:guess sizes;
           if !count > cap then raise Exit)
         class_sizes;
       true
     with Exit -> false)
  in
  let lo = ref lb and hi = ref ub in
  if not (feasible ub) then invalid_arg "Hetero.solve_greedy: infeasible at upper bound";
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if feasible mid then hi := mid else lo := mid + 1
  done;
  let guess = !lo in
  (* sub-classes *)
  let items = ref [] in
  Array.iteri
    (fun u sized ->
      let bins = Approx.Nonpreemptive.cu ~t:guess (List.map snd sized) in
      let content, load = Approx.Lpt.split ~bins sized in
      Array.iteri
        (fun k part -> if part <> [] then items := (load.(k), u, List.map fst part) :: !items)
        content)
    members;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare b a) !items in
  let loads = Array.make m 0 in
  let hosted = Array.init m (fun _ -> Hashtbl.create 4) in
  let assignment = Array.make n (-1) in
  List.iter
    (fun (load, u, jobs) ->
      (* candidate machines: already hosting u, or with a free slot *)
      let best = ref (-1) in
      for mi = 0 to m - 1 do
        let ok =
          Hashtbl.mem hosted.(mi) u || Hashtbl.length hosted.(mi) < t.slots.(mi)
        in
        if ok && (!best < 0 || loads.(mi) < loads.(!best)) then best := mi
      done;
      if !best < 0 then invalid_arg "Hetero.solve_greedy: ran out of slots";
      let mi = !best in
      loads.(mi) <- loads.(mi) + load;
      Hashtbl.replace hosted.(mi) u ();
      List.iter (fun j -> assignment.(j) <- mi) jobs)
    sorted;
  assignment

(* Can the greedy ever run out of slots? The count check guarantees the
   TOTAL number of sub-classes fits the aggregate capacity, but a greedy
   load-first placement might strand slots; placing on the least-loaded
   *feasible* machine keeps it safe in practice, and the [invalid_arg]
   surfaces any counterexample rather than mis-assigning. *)

let solve_exact ?(node_limit = 20_000_000) t =
  if not (schedulable t) then None
  else begin
    let inst = t.base in
    let n = Instance.n inst in
    let m = Instance.m inst in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (Instance.job_p inst b) (Instance.job_p inst a)) order;
    let p = Array.map (Instance.job_p inst) order in
    let cls = Array.map (Instance.job_cls inst) order in
    (* warm start: if the greedy is already optimal the search will not
       improve on it, so it must seed the incumbent, not just the bound *)
    let best, best_assignment =
      match solve_greedy t with
      | greedy -> (
          match validate t greedy with
          | Ok mk -> (ref mk, ref (Some greedy))
          | Error _ -> (ref (Instance.total_load inst + 1), ref None))
      | exception Invalid_argument _ -> (ref (Instance.total_load inst + 1), ref None)
    in
    let loads = Array.make m 0 in
    let class_count = Array.make m 0 in
    let class_used = Array.init m (fun _ -> Hashtbl.create 4) in
    let assignment = Array.make n (-1) in
    let nodes = ref 0 in
    let exception Limit in
    let rec go idx current_max =
      incr nodes;
      if !nodes > node_limit then raise Limit;
      if current_max < !best then begin
        if idx = n then begin
          best := current_max;
          let out = Array.make n 0 in
          for k = 0 to n - 1 do
            out.(order.(k)) <- assignment.(k)
          done;
          best_assignment := Some out
        end
        else
          for k = 0 to m - 1 do
            let known = Hashtbl.mem class_used.(k) cls.(idx) in
            if (known || class_count.(k) < t.slots.(k)) && loads.(k) + p.(idx) < !best then begin
              loads.(k) <- loads.(k) + p.(idx);
              if not known then begin
                Hashtbl.replace class_used.(k) cls.(idx) ();
                class_count.(k) <- class_count.(k) + 1
              end;
              assignment.(idx) <- k;
              go (idx + 1) (max current_max loads.(k));
              loads.(k) <- loads.(k) - p.(idx);
              if not known then begin
                Hashtbl.remove class_used.(k) cls.(idx);
                class_count.(k) <- class_count.(k) - 1
              end;
              assignment.(idx) <- -1
            end
          done
      end
    in
    match go 0 0 with
    | () -> Option.map (fun a -> (!best, a)) !best_assignment
    | exception Limit -> None
  end
