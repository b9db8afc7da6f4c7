let m_solves = Ccs_obs.Metrics.counter "bnb.solves"
let m_nodes = Ccs_obs.Metrics.counter "bnb.nodes"
let m_prune_area = Ccs_obs.Metrics.counter "bnb.prunes_area"
let m_prune_slots = Ccs_obs.Metrics.counter "bnb.prunes_slots"
let m_incumbents = Ccs_obs.Metrics.counter "bnb.incumbents"
let m_limit_hits = Ccs_obs.Metrics.counter "bnb.node_limit_hits"

let m_nogoods = Ccs_obs.Metrics.counter "bnb.nogoods"
    ~help:"No-good states recorded by the conflict-driven search"

let m_nogood_hits = Ccs_obs.Metrics.counter "bnb.nogood_hits"
    ~help:"Nodes pruned by a previously learned no-good"

let m_nogood_resets = Ccs_obs.Metrics.counter "bnb.nogood_resets"
    ~help:"Times the bounded no-good store overflowed and was cleared"

let m_probe_failed = Ccs_obs.Metrics.counter "bnb.probe_failed"
    ~help:"Failed (job, machine) placement probes at the root"

let m_probe_forced = Ccs_obs.Metrics.counter "bnb.probe_forced"
    ~help:"Placements forced by root probing (single feasible machine)"

let m_restarts = Ccs_obs.Metrics.counter "bnb.restarts"

(* Node expansions run at millions per second, so the checkpoint is a hot
   site (amortized clock read). *)
let chk_node = Ccs_resil.Deadline.site ~hot:true "bnb.node"
let chk_brute = Ccs_resil.Deadline.site ~hot:true "bnb.brute"

(* The search warm-starts from the 7/3 approximation, so an incumbent
   exists from node zero: interrupting the search at any point still
   yields a valid schedule, just a possibly sub-optimal one. *)
type status = Complete | Node_limit | Interrupted of exn

type result = {
  makespan : int;
  assignment : Ccs.Schedule.nonpreemptive;
  lower_bound : int;
  status : status;
  nodes : int;
}

let solve_ids = Atomic.make 0

(* Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1) else luby (i - (1 lsl (!k - 1)) + 1)

(* Subtrees this shallow are cheaper to re-explore than to memoize. *)
let nogood_min_height = 4

let solve_result ?(node_limit = 50_000_000) ?(nogood_limit = 1_000_000) ?(restart_unit = 2048) inst
    =
  if not (Ccs.Instance.schedulable inst) then None
  else begin
    let ord = Atomic.fetch_and_add solve_ids 1 in
    let n = Ccs.Instance.n inst in
    let m = min (Ccs.Instance.m inst) n in
    let c = Ccs.Instance.c inst in
    let nc = Ccs.Instance.num_classes inst in
    (* Base job order: non-increasing size, so big jobs branch first and
       the area bound bites early. Restarts permute a view over this. *)
    let base = Array.init n (fun i -> i) in
    Array.sort
      (fun a b -> compare (Ccs.Instance.job_p inst b) (Ccs.Instance.job_p inst a))
      base;
    let bp = Array.map (Ccs.Instance.job_p inst) base in
    let bcls = Array.map (Ccs.Instance.job_cls inst) base in
    (* Job types: jobs with equal (p, class) are interchangeable, so learned
       no-goods are keyed on the remaining type multiset, not job identity —
       which also makes them valid across restarts that permute the order. *)
    let type_tbl = Hashtbl.create 16 in
    let ntypes = ref 0 in
    let btype =
      Array.init n (fun i ->
          let kk = (bp.(i), bcls.(i)) in
          match Hashtbl.find_opt type_tbl kk with
          | Some id -> id
          | None ->
              let id = !ntypes in
              incr ntypes;
              Hashtbl.add type_tbl kk id;
              id)
    in
    let ntypes = !ntypes in
    (* warm start from the 7/3 algorithm *)
    let start, _ = Ccs.Approx.Nonpreemptive.solve inst in
    let best = ref (Ccs.Schedule.nonpreemptive_makespan inst start) in
    let best_assignment = ref (Array.copy start) in
    (* the warm start is incumbent zero of this solve's gap trace *)
    Ccs_obs.Recorder.incumbent ~src:"bnb" ~solve:ord (float_of_int !best);
    (* Integral root lower bound *)
    let total = Ccs.Instance.total_load inst in
    let lb0 = Ccs.Bounds.lb_integral inst in
    Ccs_obs.Recorder.lower_bound ~src:"bnb" ~solve:ord (float_of_int lb0);
    (* ---------------- machine state ---------------- *)
    let words = ((nc + 62) / 63) in
    let loads = Array.make m 0 in
    let masks = Array.make (m * words) 0 in
    let class_count = Array.make m 0 in
    (* Slot bound: every class that still has unplaced jobs but sits on no
       machine yet needs at least one of the remaining free class slots. *)
    let present = Array.make nc 0 in
    let remaining = Array.make nc 0 in
    Array.iter (fun u -> remaining.(u) <- remaining.(u) + 1) bcls;
    let missing = ref 0 in
    Array.iter (fun r -> if r > 0 then incr missing) remaining;
    let free_slots = ref (m * c) in
    let asg = Array.make n (-1) in
    let has_class k u = masks.((k * words) + (u / 63)) land (1 lsl (u mod 63)) <> 0 in
    let masks_equal k k' =
      let w = ref 0 in
      while !w < words && masks.((k * words) + !w) = masks.((k' * words) + !w) do
        incr w
      done;
      !w = words
    in
    (* Full identical-machine symmetry: machines with equal load and class
       set are interchangeable — branch only on the first of each group. *)
    let duplicate k =
      let k' = ref 0 in
      while !k' < k && not (loads.(!k') = loads.(k) && masks_equal !k' k) do
        incr k'
      done;
      !k' < k
    in
    let is_missing u = remaining.(u) > 0 && present.(u) = 0 in
    (* occupancy.(k*nc + u): jobs of class u currently on machine k, so
       unplacing knows when the class leaves the machine *)
    let occupancy = Array.make (m * nc) 0 in
    let place j k =
      let u = bcls.(j) in
      let was = is_missing u in
      loads.(k) <- loads.(k) + bp.(j);
      remaining.(u) <- remaining.(u) - 1;
      let o = (k * nc) + u in
      occupancy.(o) <- occupancy.(o) + 1;
      if occupancy.(o) = 1 then begin
        let w = (k * words) + (u / 63) and bit = 1 lsl (u mod 63) in
        masks.(w) <- masks.(w) lor bit;
        class_count.(k) <- class_count.(k) + 1;
        present.(u) <- present.(u) + 1;
        decr free_slots
      end;
      if was && not (is_missing u) then decr missing;
      asg.(j) <- k
    in
    let unplace j k =
      let u = bcls.(j) in
      let was = is_missing u in
      loads.(k) <- loads.(k) - bp.(j);
      remaining.(u) <- remaining.(u) + 1;
      let o = (k * nc) + u in
      occupancy.(o) <- occupancy.(o) - 1;
      if occupancy.(o) = 0 then begin
        let w = (k * words) + (u / 63) and bit = 1 lsl (u mod 63) in
        masks.(w) <- masks.(w) land lnot bit;
        class_count.(k) <- class_count.(k) - 1;
        present.(u) <- present.(u) - 1;
        incr free_slots
      end;
      asg.(j) <- -1;
      if (not was) && is_missing u then incr missing
    in
    (* ---------------- search order / activities ---------------- *)
    let seq = Array.init n (fun i -> i) in
    let forced_len = ref 0 in
    let act = Array.make n 0.0 in
    (* a one-cell float array, not a [float ref]: the bump stays unboxed *)
    let var_inc = Array.make 1 1.0 in
    let bump j =
      act.(j) <- act.(j) +. var_inc.(0);
      var_inc.(0) <- var_inc.(0) *. 1.02;
      if act.(j) > 1e100 then begin
        for i = 0 to n - 1 do
          act.(i) <- act.(i) *. 1e-100
        done;
        var_inc.(0) <- var_inc.(0) *. 1e-100
      end
    in
    let suffix = Array.make (n + 1) 0 in
    let compute_suffix () =
      suffix.(n) <- 0;
      for d = n - 1 downto 0 do
        suffix.(d) <- suffix.(d + 1) + bp.(seq.(d))
      done
    in
    (* ---------------- no-good store ---------------- *)
    (* A state is (canonical machine multiset, remaining job multiset). The
       remaining multiset depends only on the depth of the current order, so
       it is interned once per restart into a small id; the machine part is
       the per-machine (load, class-bitset) pairs in canonical order, packed
       by [Nogoods] into an exact key — equal keys mean equal states, so a
       hash collision can slow the search down but can never cut the
       optimum. *)
    let mult_tbl : (int array, int) Hashtbl.t = Hashtbl.create 64 in
    let mult_next = ref 0 in
    let intern canon =
      match Hashtbl.find_opt mult_tbl canon with
      | Some id -> id
      | None ->
          let id = !mult_next in
          incr mult_next;
          Hashtbl.add mult_tbl canon id;
          id
    in
    let depth_id = Array.make (n + 1) 0 in
    let tcount = Array.make ntypes 0 in
    let compute_depth_ids () =
      Array.fill tcount 0 ntypes 0;
      depth_id.(n) <- intern [||];
      for d = n - 1 downto !forced_len do
        tcount.(btype.(seq.(d))) <- tcount.(btype.(seq.(d))) + 1;
        let nz = ref 0 in
        for t = 0 to ntypes - 1 do
          if tcount.(t) > 0 then incr nz
        done;
        let canon = Array.make (2 * !nz) 0 in
        let w = ref 0 in
        for t = 0 to ntypes - 1 do
          if tcount.(t) > 0 then begin
            canon.(!w) <- t;
            canon.(!w + 1) <- tcount.(t);
            w := !w + 2
          end
        done;
        depth_id.(d) <- intern canon
      done
    in
    (* Every search load stays below the warm-start makespan: a placement
       needs [load + p < best] and probing forces a job only under
       [best - 1]. So it bounds the packed load fields. *)
    let codec = Nogoods.codec ~machines:m ~classes:nc ~bound:!best in
    let klen = Nogoods.key_len codec in
    (* one key buffer (and its hash) per depth: a node builds its key once,
       looks it up, and adds the same words after its subtree *)
    let keys = Array.make ((n + 1) * klen) 0 in
    let key_hash = Array.make (n + 1) 0 in
    let store = Nogoods.create ~key_len:klen in
    let ng_stored = ref 0 and ng_hits = ref 0 and ng_resets = ref 0 in
    (* ---------------- root probing ---------------- *)
    let probe_failed = ref 0 and probe_forced = ref 0 in
    let total_unforced = ref total in
    (* Failed-placement probing at the root under target = best - 1: a job
       with no feasible canonical machine refutes the target (the incumbent
       is optimal); a job with exactly one is forced there — any schedule
       beating the incumbent agrees with the forcing up to machine renaming,
       and the canonical choice fixes the renaming. Forced jobs move to the
       front of the order and become the fixed search root. *)
    let probe () =
      let target = !best - 1 in
      if target < lb0 then true
      else begin
        let infeasible = ref false and changed = ref true in
        while !changed && not !infeasible do
          changed := false;
          let d = ref !forced_len in
          while (not !infeasible) && !d < n do
            let j = seq.(!d) in
            let pj = bp.(j) and u = bcls.(j) in
            let rem = !total_unforced - pj in
            let nfeas = ref 0 and last_k = ref (-1) in
            for k = 0 to m - 1 do
              if not (duplicate k) then begin
                let ok =
                  (has_class k u || class_count.(k) < c)
                  && loads.(k) + pj <= target
                  &&
                  (* area check with j provisionally on k *)
                  let slack = ref 0 in
                  for k' = 0 to m - 1 do
                    let l = loads.(k') + if k' = k then pj else 0 in
                    slack := !slack + max 0 (target - l)
                  done;
                  !slack >= rem
                in
                if ok then begin
                  incr nfeas;
                  last_k := k
                end
                else incr probe_failed
              end
            done;
            if !nfeas = 0 then infeasible := true
            else if !nfeas = 1 then begin
              let tmp = seq.(!d) in
              seq.(!d) <- seq.(!forced_len);
              seq.(!forced_len) <- tmp;
              place j !last_k;
              total_unforced := !total_unforced - pj;
              incr forced_len;
              incr probe_forced;
              changed := true;
              d := !forced_len
            end
            else incr d
          done
        done;
        !infeasible
      end
    in
    (* ---------------- search ---------------- *)
    let nodes = ref 0 in
    let nodes_since = ref 0 in
    let restart_limit = ref 0 in
    let prunes_area = ref 0 and prunes_slots = ref 0 in
    let incumbents = ref 0 in
    let restarts = ref 0 in
    let exception Limit in
    let exception Restart in
    let rec go depth current_max =
      Ccs_resil.Deadline.check chk_node;
      incr nodes;
      incr nodes_since;
      if !nodes > node_limit then raise Limit;
      if !restart_limit > 0 && !nodes_since > !restart_limit && depth > !forced_len then
        raise Restart;
      if current_max < !best then begin
        if depth = n then begin
          best := current_max;
          incr incumbents;
          Ccs_obs.Recorder.incumbent ~src:"bnb" ~solve:ord (float_of_int current_max);
          Ccs_obs.Log.debug (fun log ->
              log
                ~fields:
                  [ Ccs_obs.Log.int "makespan" current_max;
                    Ccs_obs.Log.int "nodes" !nodes ]
                "bnb.incumbent");
          let out = Array.make n 0 in
          for i = 0 to n - 1 do
            out.(base.(i)) <- asg.(i)
          done;
          best_assignment := out
        end
        else begin
          let j = seq.(depth) in
          let pj = bp.(j) and u = bcls.(j) in
          (* area bound: remaining work must fit under best-1 *)
          let slack = ref 0 in
          for k = 0 to m - 1 do
            slack := !slack + Int.max 0 (!best - 1 - loads.(k))
          done;
          if !slack < suffix.(depth) then begin
            incr prunes_area;
            bump j
          end
          else if !missing > !free_slots then begin
            incr prunes_slots;
            bump j
          end
          else begin
            let deep = depth > !forced_len && n - depth >= nogood_min_height in
            (* A hit always cuts: the store holds states whose subtree could
               not beat the incumbent of its time, and the incumbent only
               falls. *)
            let cut =
              deep
              && begin
                let off = depth * klen in
                Nogoods.encode codec ~depth_id:depth_id.(depth) ~loads ~masks keys off;
                let hash = Nogoods.hash keys off klen in
                key_hash.(depth) <- hash;
                Nogoods.mem store keys off ~hash
              end
            in
            if cut then begin
              incr ng_hits;
              bump j
            end
            else begin
              let placed = ref false in
              for k = 0 to m - 1 do
                if not (duplicate k) then
                  if (has_class k u || class_count.(k) < c) && loads.(k) + pj < !best then begin
                    placed := true;
                    place j k;
                    go (depth + 1) (Int.max current_max loads.(k));
                    unplace j k
                  end
              done;
              if not !placed then bump j;
              (* The subtree is exhausted: no completion of this state beats
                 the current incumbent. Valid across restarts (the store
                 outlives them) because the key abstracts job identity. The
                 key is still absent: it missed above, every key added in
                 the subtree is deeper (its depth id differs), and a reset
                 only removes keys. *)
              if deep then begin
                if Nogoods.length store >= nogood_limit then begin
                  Nogoods.reset store;
                  incr ng_resets
                end;
                ignore (Nogoods.add store keys (depth * klen) ~hash:key_hash.(depth));
                incr ng_stored
              end
            end
          end
        end
      end
    in
    (* snapshot of the post-probing root, restored after each restart
       (the Restart exception unwinds without running the undo path) *)
    let run_search () =
      let loads0 = Array.copy loads in
      let masks0 = Array.copy masks in
      let class_count0 = Array.copy class_count in
      let present0 = Array.copy present in
      let remaining0 = Array.copy remaining in
      let occupancy0 = Array.copy occupancy in
      let missing0 = !missing and free0 = !free_slots in
      let restore () =
        Array.blit loads0 0 loads 0 m;
        Array.blit masks0 0 masks 0 (m * words);
        Array.blit class_count0 0 class_count 0 m;
        Array.blit present0 0 present 0 nc;
        Array.blit remaining0 0 remaining 0 nc;
        Array.blit occupancy0 0 occupancy 0 (m * nc);
        missing := missing0;
        free_slots := free0
      in
      let root_max = Array.fold_left max 0 loads in
      let reorder () =
        (* Size first, activity as the tiebreak: the area bound needs big
           jobs up front (a pure activity order stalls the search — n=18
           bnb-stress takes 3x the nodes), but among equal sizes — the
           common case in the near-partition family — the restart moves
           conflict-heavy jobs forward. *)
        let len = n - !forced_len in
        let tail = Array.sub seq !forced_len len in
        Array.sort
          (fun a b ->
            match compare bp.(b) bp.(a) with
            | 0 -> (
                match compare act.(b) act.(a) with 0 -> compare a b | cmp -> cmp)
            | cmp -> cmp)
          tail;
        Array.blit tail 0 seq !forced_len len
      in
      let rec run () =
        restart_limit := (if restart_unit <= 0 then 0 else restart_unit * luby (!restarts + 1));
        nodes_since := 0;
        match go !forced_len root_max with
        | () -> Complete
        | exception Restart ->
            incr restarts;
            restore ();
            reorder ();
            compute_suffix ();
            compute_depth_ids ();
            run ()
        | exception Limit -> Node_limit
        | exception (Ccs_resil.Deadline.Cancelled _ as e) -> Interrupted e
      in
      run ()
    in
    let finish status =
      Ccs_obs.Metrics.incr m_solves;
      Ccs_obs.Metrics.add m_nodes !nodes;
      Ccs_obs.Metrics.add m_prune_area !prunes_area;
      Ccs_obs.Metrics.add m_prune_slots !prunes_slots;
      Ccs_obs.Metrics.add m_incumbents !incumbents;
      Ccs_obs.Metrics.add m_nogoods !ng_stored;
      Ccs_obs.Metrics.add m_nogood_hits !ng_hits;
      Ccs_obs.Metrics.add m_nogood_resets !ng_resets;
      Ccs_obs.Metrics.add m_probe_failed !probe_failed;
      Ccs_obs.Metrics.add m_probe_forced !probe_forced;
      Ccs_obs.Metrics.add m_restarts !restarts;
      (match status with Node_limit -> Ccs_obs.Metrics.incr m_limit_hits | _ -> ());
      let complete = match status with Complete -> true | _ -> false in
      let lower_bound = if complete then !best else lb0 in
      if complete then
        Ccs_obs.Recorder.lower_bound ~src:"bnb" ~solve:ord (float_of_int !best);
      Ccs_obs.Log.debug (fun log ->
          log
            ~fields:
              [ Ccs_obs.Log.int "n" n;
                Ccs_obs.Log.int "m" m;
                Ccs_obs.Log.int "nodes" !nodes;
                Ccs_obs.Log.int "nogoods" !ng_stored;
                Ccs_obs.Log.int "restarts" !restarts;
                Ccs_obs.Log.int "prunes_area" !prunes_area;
                Ccs_obs.Log.bool "complete" complete ]
            "bnb.solve");
      Some
        {
          makespan = !best;
          assignment = !best_assignment;
          lower_bound;
          status;
          nodes = !nodes;
        }
    in
    Ccs_obs.Recorder.phase "exact"
      ~fields:Ccs_obs.Jsonx.[ ("op", Str "bnb"); ("n", Int n); ("m", Int m) ]
    @@ fun () ->
    if !best <= lb0 then finish Complete
    else begin
      compute_suffix ();
      match probe () with
      | true -> finish Complete
      | false ->
          compute_suffix ();
          compute_depth_ids ();
          finish (run_search ())
      | exception (Ccs_resil.Deadline.Cancelled _ as e) -> finish (Interrupted e)
    end
  end

let solve_status ?node_limit inst =
  Option.map
    (fun r -> (r.makespan, r.assignment, r.status))
    (solve_result ?node_limit inst)

let solve ?node_limit inst =
  match solve_result ?node_limit inst with
  | None -> None
  | Some { status = Complete; makespan; assignment; _ } -> Some (makespan, assignment)
  | Some { status = Node_limit; _ } -> None
  | Some { status = Interrupted e; _ } -> raise e

let brute_force inst =
  let n = Ccs.Instance.n inst in
  let m = min (Ccs.Instance.m inst) n in
  if n > 10 then invalid_arg "Bnb.brute_force: too large";
  let nc = Ccs.Instance.num_classes inst in
  let c = Ccs.Instance.c inst in
  let p = Array.init n (Ccs.Instance.job_p inst) in
  let cls = Array.init n (Ccs.Instance.job_cls inst) in
  let loads = Array.make m 0 in
  let class_count = Array.make m 0 in
  let occupancy = Array.make (m * nc) 0 in
  let best = ref max_int in
  let found = ref false in
  (* Exhaustive over every class-feasible assignment — no makespan pruning,
     this is the reference the pruned search is validated against. Loads and
     per-machine class counts are maintained incrementally (the old version
     copied the assignment and ran the full validator at every leaf), and
     the deadline checkpoint keeps test-time oracles interruptible. *)
  let rec go idx cur =
    Ccs_resil.Deadline.check chk_brute;
    if idx = n then begin
      found := true;
      if cur < !best then best := cur
    end
    else
      for k = 0 to m - 1 do
        let o = (k * nc) + cls.(idx) in
        if occupancy.(o) > 0 || class_count.(k) < c then begin
          occupancy.(o) <- occupancy.(o) + 1;
          if occupancy.(o) = 1 then class_count.(k) <- class_count.(k) + 1;
          loads.(k) <- loads.(k) + p.(idx);
          go (idx + 1) (max cur loads.(k));
          loads.(k) <- loads.(k) - p.(idx);
          occupancy.(o) <- occupancy.(o) - 1;
          if occupancy.(o) = 0 then class_count.(k) <- class_count.(k) - 1
        end
      done
  in
  go 0 0;
  if !found then Some !best else None
