(* A portfolio of exact non-preemptive solvers, tried in turn.

   Three members, in fixed priority order: the conflict-driven B&B, an
   exact configuration-ILP (binary search on the integral makespan, each
   probe decided by the exact MILP solver), and an exact N-fold program
   with one brick per machine. Each member either returns a *proof* — an
   optimal assignment — or abstains ([None]) when its budget is exhausted;
   the first proof in member order wins and later members never run.
   Incumbent-quality (unproven) answers never win: only the fallback
   reports them, when every member abstained. *)

module Q = Rat

type outcome = {
  makespan : int;
  assignment : Ccs.Schedule.nonpreemptive;
  winner : string;
  proved : bool;
  lower_bound : int;
}

let member_names = [| "bnb"; "config_ilp"; "nfold" |]
let m_races = Ccs_obs.Metrics.counter "portfolio.races"

let m_winner =
  Array.map
    (fun name -> Ccs_obs.Metrics.counter ("portfolio.winner." ^ name))
    member_names

let m_winner_none = Ccs_obs.Metrics.counter "portfolio.winner.none"
    ~help:"Races in which every member abstained (budget exhausted)"

let solve_ids = Atomic.make 0

exception Abstain

(* Distinct (size, class) job types: sizes/classes/demands plus the job
   indices of each type in increasing order, so decoding an ILP solution
   into a concrete assignment is deterministic. *)
let types_of inst =
  let n = Ccs.Instance.n inst in
  let tbl = Hashtbl.create 16 in
  let nt = ref 0 in
  let tp = ref [] and tcls = ref [] in
  let type_of = Array.make n 0 in
  for j = 0 to n - 1 do
    let p = Ccs.Instance.job_p inst j and cls = Ccs.Instance.job_cls inst j in
    let kk = (p, cls) in
    match Hashtbl.find_opt tbl kk with
    | Some id -> type_of.(j) <- id
    | None ->
        let id = !nt in
        incr nt;
        Hashtbl.add tbl kk id;
        tp := p :: !tp;
        tcls := cls :: !tcls;
        type_of.(j) <- id
  done;
  let nt = !nt in
  let tp = Array.of_list (List.rev !tp) in
  let tcls = Array.of_list (List.rev !tcls) in
  let dem = Array.make nt 0 in
  let jobs_of = Array.make nt [] in
  for j = n - 1 downto 0 do
    let t = type_of.(j) in
    dem.(t) <- dem.(t) + 1;
    jobs_of.(t) <- j :: jobs_of.(t)
  done;
  (nt, tp, tcls, dem, jobs_of)

(* Pop [cfg.(t)] jobs of each type off the per-type stacks for one machine. *)
let decode_machine ~nt ~cursors ~asg ~machine cfg =
  for t = 0 to nt - 1 do
    for _ = 1 to cfg.(t) do
      match cursors.(t) with
      | j :: rest ->
          cursors.(t) <- rest;
          asg.(j) <- machine
      | [] -> raise Abstain (* solver returned an over-full type: distrust it *)
    done
  done

(* Binary search for the least feasible integral makespan in [lb, ub]; [ub]
   is known feasible (the warm-start schedule achieves it). [decide] may
   raise [Abstain]. Returns the optimum and the decided solution at it, or
   [None] when the optimum is [ub] itself (never probed). *)
let bisect ~lb ~ub ~decide =
  let lo = ref lb and hi = ref ub in
  let sol = ref None in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    match decide mid with
    | Some s ->
        sol := Some (mid, s);
        hi := mid
    | None -> lo := mid + 1
  done;
  (!lo, match !sol with Some (t, s) when t = !lo -> Some s | _ -> None)

(* ---------------- member: configuration ILP ---------------- *)

(* Enumerate every machine configuration (a multiset of job types with
   total size <= tgt and at most c distinct classes), then decide whether
   the demands split into at most m of them with an exact ILP over the
   config-count variables. The enumeration explodes when there are many
   distinct types — that is the B&B's territory; this member shines on
   palette-style instances (lp-stress, bnb-stress) with few types. *)
let config_ilp ~max_configs ~ilp_nodes inst =
  let n = Ccs.Instance.n inst in
  let m = min (Ccs.Instance.m inst) n in
  let c = Ccs.Instance.c inst in
  let nt, tp, tcls, dem, jobs_of = types_of inst in
  let warm, _ = Ccs.Approx.Nonpreemptive.solve inst in
  let ub0 = Ccs.Schedule.nonpreemptive_makespan inst warm in
  let lb0 = Ccs.Bounds.lb_integral inst in
  if ub0 = lb0 then Some (ub0, warm)
  else begin
    try
      let enum_configs tgt =
        let configs = ref [] and count = ref 0 in
        let k = Array.make nt 0 in
        let rec go t load ncls clsset =
          if t = nt then begin
            incr count;
            if !count > max_configs then raise Abstain;
            configs := Array.copy k :: !configs
          end
          else begin
            go (t + 1) load ncls clsset;
            let u = tcls.(t) in
            let fresh = not (List.mem u clsset) in
            let ncls' = if fresh then ncls + 1 else ncls in
            if ncls' <= c then begin
              let cs = if fresh then u :: clsset else clsset in
              let l = ref load and i = ref 1 in
              while !i <= dem.(t) && !l + tp.(t) <= tgt do
                l := !l + tp.(t);
                k.(t) <- !i;
                go (t + 1) !l ncls' cs;
                incr i
              done;
              k.(t) <- 0
            end
          end
        in
        go 0 0 0 [];
        Array.of_list (List.rev !configs)
      in
      let decide tgt =
        let configs = enum_configs tgt in
        let ncfg = Array.length configs in
        let rows = ref [] in
        for t = 0 to nt - 1 do
          let coeffs = ref [] in
          Array.iteri
            (fun ki cfg -> if cfg.(t) > 0 then coeffs := (ki, Q.of_int cfg.(t)) :: !coeffs)
            configs;
          rows := Lp.constr !coeffs Lp.Eq (Q.of_int dem.(t)) :: !rows
        done;
        rows :=
          Lp.constr (List.init ncfg (fun ki -> (ki, Q.one))) Lp.Le (Q.of_int m) :: !rows;
        let upper = Array.make ncfg (Some (Q.of_int m)) in
        let objective = Array.make ncfg Q.zero in
        let lp = Lp.problem ~upper ~nvars:ncfg ~objective (List.rev !rows) in
        match Ilp.solve ~max_nodes:ilp_nodes ~feasibility:true (Ilp.all_integer lp) with
        | Ilp.Optimal { solution; _ } -> Some (configs, solution)
        | Ilp.Infeasible -> None
        | Ilp.Node_limit -> raise Abstain
        | Ilp.Unbounded -> assert false (* all variables bounded *)
      in
      let opt, sol = bisect ~lb:lb0 ~ub:ub0 ~decide in
      match sol with
      | None -> Some (opt, warm) (* optimum = ub0: the warm schedule is optimal *)
      | Some (configs, z) ->
          let asg = Array.make n (-1) in
          let cursors = Array.copy jobs_of in
          let machine = ref 0 in
          Array.iteri
            (fun ki cfg ->
              let q = Bigint.to_int_exn (Q.num z.(ki)) in
              for _ = 1 to q do
                decode_machine ~nt ~cursors ~asg ~machine:!machine cfg;
                incr machine
              done)
            configs;
          Some (opt, asg)
    with Abstain -> None
  end

(* ---------------- member: exact N-fold ---------------- *)

(* One brick per machine: per-type counts x_t, class indicators y_u, and
   slack variables turning the <= rows into the N-fold's Eq form. Globally
   uniform rows pin the per-type demands; locally uniform rows bound the
   load (sum p_t x_t + s_load = tgt), the class slots (sum y_u + s_slot =
   c), and link x to y (sum_{t in u} x_t - d_u y_u + s_u = 0). Decided by
   the flattened exact MILP. *)
let nfold_member ~ilp_nodes inst =
  let n = Ccs.Instance.n inst in
  let m = min (Ccs.Instance.m inst) n in
  let c = Ccs.Instance.c inst in
  let nc = Ccs.Instance.num_classes inst in
  let nt, tp, tcls, dem, jobs_of = types_of inst in
  let tb = nt + nc + 2 + nc in
  if m * tb > 512 then None (* the flattened MILP would be hopeless *)
  else begin
    let warm, _ = Ccs.Approx.Nonpreemptive.solve inst in
    let ub0 = Ccs.Schedule.nonpreemptive_makespan inst warm in
    let lb0 = Ccs.Bounds.lb_integral inst in
    if ub0 = lb0 then Some (ub0, warm)
    else begin
      let class_dem = Array.make nc 0 in
      Array.iteri (fun t d -> class_dem.(tcls.(t)) <- class_dem.(tcls.(t)) + d) dem;
      let x_v t = t and y_v u = nt + u in
      let s_load = nt + nc and s_slot = nt + nc + 1 in
      let s_link u = nt + nc + 2 + u in
      try
        let decide tgt =
          let a =
            Array.init nt (fun t ->
                let row = Array.make tb 0 in
                row.(x_v t) <- 1;
                row)
          in
          let b = Array.make_matrix (2 + nc) tb 0 in
          for t = 0 to nt - 1 do
            b.(0).(x_v t) <- tp.(t);
            b.(2 + tcls.(t)).(x_v t) <- 1
          done;
          b.(0).(s_load) <- 1;
          for u = 0 to nc - 1 do
            b.(1).(y_v u) <- 1;
            b.(2 + u).(y_v u) <- -class_dem.(u);
            b.(2 + u).(s_link u) <- 1
          done;
          b.(1).(s_slot) <- 1;
          let rhs_one = Array.make (2 + nc) 0 in
          rhs_one.(0) <- tgt;
          rhs_one.(1) <- c;
          let rhs_block = Array.init m (fun _ -> Array.copy rhs_one) in
          let lower = Array.make tb 0 in
          let upper = Array.make tb 0 in
          for t = 0 to nt - 1 do
            upper.(x_v t) <- dem.(t)
          done;
          for u = 0 to nc - 1 do
            upper.(y_v u) <- 1;
            upper.(s_link u) <- class_dem.(u)
          done;
          upper.(s_load) <- tgt;
          upper.(s_slot) <- c;
          let nf =
            Nfold.make_uniform ~n:m ~a ~b ~rhs_top:dem ~rhs_block ~lower ~upper
              ~weight:(Array.make tb 0)
          in
          match Nfold.solve_ilp ~max_nodes:ilp_nodes ~feasibility:true nf with
          | `Solution (x, _) -> Some x
          | `Infeasible -> None
          | `Node_limit -> raise Abstain
          | exception Nfold.Too_large _ -> raise Abstain
          | exception Nfold.Invalid _ -> raise Abstain
        in
        let opt, sol = bisect ~lb:lb0 ~ub:ub0 ~decide in
        match sol with
        | None -> Some (opt, warm)
        | Some x ->
            let asg = Array.make n (-1) in
            let cursors = Array.copy jobs_of in
            for i = 0 to m - 1 do
              decode_machine ~nt ~cursors ~asg ~machine:i
                (Array.init nt (fun t -> x.(i).(x_v t)))
            done;
            Some (opt, asg)
      with Abstain -> None
    end
  end

(* ---------------- the portfolio ---------------- *)

let solve ?(node_limit = 50_000_000) ?(max_configs = 4_000) ?(ilp_nodes = 200_000) inst =
  if not (Ccs.Instance.schedulable inst) then None
  else begin
    let ord = Atomic.fetch_and_add solve_ids 1 in
    Ccs_obs.Metrics.incr m_races;
    (* The fallback when every member abstains: the 7/3 warm start plus the
       root lower bound — the portfolio only ever trades it up for a proof. *)
    let warm, _ = Ccs.Approx.Nonpreemptive.solve inst in
    let ub0 = Ccs.Schedule.nonpreemptive_makespan inst warm in
    let lb0 = Ccs.Bounds.lb_integral inst in
    let run i =
      let res =
        match i with
        | 0 -> (
            match Bnb.solve_result ~node_limit inst with
            | Some { status = Bnb.Complete; makespan; assignment; _ } ->
                Some (makespan, assignment)
            | _ -> None)
        | 1 -> config_ilp ~max_configs ~ilp_nodes inst
        | _ -> nfold_member ~ilp_nodes inst
      in
      match res with
      | Some (mk, asg) ->
          Ccs_obs.Recorder.incumbent ~src:("portfolio." ^ member_names.(i)) ~solve:ord
            (float_of_int mk);
          Ccs_obs.Recorder.lower_bound ~src:("portfolio." ^ member_names.(i)) ~solve:ord
            (float_of_int mk);
          Some (i, mk, asg)
      | None -> None
    in
    Ccs_obs.Recorder.phase "portfolio.solve"
      ~fields:[ ("n", Ccs_obs.Jsonx.Int (Ccs.Instance.n inst)) ]
      (fun () ->
        match List.find_map run [ 0; 1; 2 ] with
        | Some (i, mk, asg) ->
            Ccs_obs.Metrics.incr m_winner.(i);
            Some
              {
                makespan = mk;
                assignment = asg;
                winner = member_names.(i);
                proved = true;
                lower_bound = mk;
              }
        | None ->
            Ccs_obs.Metrics.incr m_winner_none;
            Some
              {
                makespan = ub0;
                assignment = warm;
                winner = "none";
                proved = false;
                lower_bound = lb0;
              })
  end
