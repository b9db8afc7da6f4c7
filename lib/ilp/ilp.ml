module Q = Rat

type problem = { lp : Lp.problem; integer : bool array }

type result =
  | Optimal of { objective : Q.t; solution : Q.t array }
  | Infeasible
  | Unbounded
  | Node_limit

let all_integer lp = { lp; integer = Array.make lp.Lp.nvars true }

(* Checked once per B&B node, before the node's LP relaxation is solved;
   each node also runs many lp.pivot checkpoints inside [Lp.solve_model]. *)
let chk_node = Ccs_resil.Deadline.site "ilp.node"

let m_solves = Ccs_obs.Metrics.counter "ilp.solves"
let m_nodes = Ccs_obs.Metrics.counter "ilp.nodes"
let m_prunes = Ccs_obs.Metrics.counter "ilp.prunes_bound"
let m_limit_hits = Ccs_obs.Metrics.counter "ilp.node_limit_hits"
let h_nodes = Ccs_obs.Metrics.histogram "ilp.nodes_per_solve"

(* First (lowest-index) fractional integer-constrained variable, or None
   if integral. Lexicographic branching fixes variables block by block,
   which doubles as symmetry breaking: the configuration ILPs (and
   especially the paper's duplicated N-fold forms) contain many
   interchangeable columns, and a most-fractional rule bounces between
   equivalent copies, re-deriving the same subtrees under permutation. *)
let pick_branch_var integer x =
  let n = Array.length x in
  let rec go j =
    if j >= n then None
    else if integer.(j) && not (Q.is_integer x.(j)) then Some j
    else go (j + 1)
  in
  go 0

(* Solve ordinal carried by recorder events: incumbents from concurrent or
   repeated solves can be regrouped before asserting a trace decreases. *)
let solve_ids = Atomic.make 0

let solve ?(max_nodes = max_int) ?(feasibility = false) ?warm ?basis_out p =
  Ccs_obs.Recorder.phase "ilp" @@ fun () ->
  let ord = Atomic.fetch_and_add solve_ids 1 in
  let nodes = ref 0 in
  let incumbent = ref None in
  let limit_hit = ref false in
  let exception Found_first of Q.t * Q.t array in
  (* cover the root relaxation too — it is as expensive as any node's *)
  Ccs_resil.Deadline.check chk_node;
  (* One LP model serves the whole tree: its nodes differ only in bound
     values, so each node builds just its rhs, bounds and simplex state. *)
  let model = Lp.model p.lp in
  (* Depth-first search over bound tightenings. Each node hands its
     optimal basis to its children: sibling LPs differ from the parent
     only in one variable bound, so the warm start usually holds (and
     falls back to a cold solve when the tightened bound cuts it off). *)
  let rec search lower upper warm =
    if !limit_hit then ()
    else begin
      Ccs_resil.Deadline.check chk_node;
      incr nodes;
      if !nodes > max_nodes then limit_hit := true
      else begin
        match Lp.solve_model ?warm model ~lower ~upper with
        | Lp.Infeasible _ -> ()
        | Lp.Unbounded _ ->
            (* With integer variables an unbounded relaxation does not decide
               the MILP, but every problem in this repository has a bounded
               relaxation; treat as a hard error to surface modelling bugs. *)
            failwith "Ilp.solve: unbounded relaxation"
        | Lp.Optimal { objective; solution; basis; _ } -> (
            (* bound pruning *)
            let dominated =
              match !incumbent with
              | Some (best, _) -> Q.(objective >= best)
              | None -> false
            in
            if dominated then Ccs_obs.Metrics.incr m_prunes
            else
              match pick_branch_var p.integer solution with
              | None ->
                  if feasibility then raise (Found_first (objective, solution))
                  else begin
                    (* accepted only when strictly better than the pruning
                       bound, so this per-solve trace is decreasing *)
                    incumbent := Some (objective, solution);
                    Ccs_obs.Recorder.incumbent ~src:"ilp" ~solve:ord
                      (Q.to_float objective)
                  end
              | Some j ->
                  let v = solution.(j) in
                  let fl = Q.of_bigint (Q.floor v) in
                  let ce = Q.of_bigint (Q.ceil v) in
                  let down () =
                    let upper' = Array.copy upper in
                    (match upper'.(j) with
                    | Some u when Q.(u <= fl) -> ()
                    | _ -> upper'.(j) <- Some fl);
                    search lower upper' (Some basis)
                  and up () =
                    let lower' = Array.copy lower in
                    (match lower'.(j) with
                    | Some l when Q.(l >= ce) -> ()
                    | _ -> lower'.(j) <- Some ce);
                    search lower' upper (Some basis)
                  in
                  up ();
                  down ())
      end
    end
  in
  let result =
    match Lp.solve_model ?warm model ~lower:p.lp.Lp.lower ~upper:p.lp.Lp.upper with
    | Lp.Unbounded _ -> Unbounded
    | Lp.Infeasible _ -> Infeasible
    | Lp.Optimal { basis = root_basis; _ } -> (
        (match basis_out with Some r -> r := Some root_basis | None -> ());
        match
          (try
             search (Array.copy p.lp.Lp.lower) (Array.copy p.lp.Lp.upper)
               (Some root_basis);
             None
           with Found_first (o, x) -> Some (o, x))
        with
        | Some (objective, solution) -> Optimal { objective; solution }
        | None -> (
            if !limit_hit then Node_limit
            else
              match !incumbent with
              | Some (objective, solution) -> Optimal { objective; solution }
              | None -> Infeasible))
  in
  Ccs_obs.Metrics.incr m_solves;
  Ccs_obs.Metrics.add m_nodes !nodes;
  Ccs_obs.Metrics.observe h_nodes (float_of_int !nodes);
  if !limit_hit then Ccs_obs.Metrics.incr m_limit_hits;
  Ccs_obs.Log.debug (fun log ->
      log
        ~fields:
          [
            Ccs_obs.Log.int "nvars" p.lp.Lp.nvars;
            Ccs_obs.Log.int "nodes" !nodes;
            Ccs_obs.Log.str "result"
              (match result with
              | Optimal _ -> "optimal"
              | Infeasible -> "infeasible"
              | Unbounded -> "unbounded"
              | Node_limit -> "node_limit");
          ]
        "ilp.solve");
  result
