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
let m_prunes_prop = Ccs_obs.Metrics.counter "ilp.prunes_propagation"
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

(* ---------------- prune-only integer propagation ----------------

   Before a node pays for its LP, activity-bound propagation tries to show
   that its box holds no integer point; if it does, the node and its whole
   subtree are skipped. The bounds it derives travel beside the LP bounds
   and never reach the LP, so every surviving node solves the LP it would
   have solved anyway, from the same parent basis, in the same DFS order.
   A pruned subtree holds no integer point, hence no first integer leaf
   and no incumbent: every answer stays the same. *)

(* One row of the integer view: sum coefs.(k) * x.(vars.(k)) <= rhs. A Ge
   row is kept negated, an Eq row as both. *)
type row = { vars : int array; coefs : int array; rhs : int }

(* Implied bounds are native ints: [min_int] in [lo] and [max_int] in [hi]
   stand for no bound and never enter arithmetic. No finite value is
   [min_int] ([Bigint.to_int_opt] never returns it and the checked
   operations refuse it), so negating one is exact. *)
exception Overflow
exception Refuted

let add_chk a b =
  let s = a + b in
  if (a >= 0 = (b >= 0) && s >= 0 <> (a >= 0)) || s = min_int then raise Overflow
  else s

let sub_chk a b = add_chk a (-b)

let mul_chk a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b = a && p <> min_int then p else raise Overflow

let fdiv a b =
  let q = a / b in
  if a mod b <> 0 && a < 0 <> (b < 0) then q - 1 else q

let cdiv a b =
  let q = a / b in
  if a mod b <> 0 && a < 0 = (b < 0) then q + 1 else q

let int_of_q q = if Q.is_integer q then Bigint.to_int_opt (Q.num q) else None

(* Duplicate indices are summed exactly. A row is kept only when every
   summed coefficient and its rhs are native ints; leaving one out only
   weakens the test. *)
let int_rows (lp : Lp.problem) =
  let row (c : Lp.constr) =
    let merged =
      List.sort (fun (i, _) (j, _) -> Int.compare i j) c.coeffs
      |> List.fold_left
           (fun acc (j, a) ->
             match acc with
             | (i, b) :: rest when i = j -> (i, Q.add a b) :: rest
             | _ -> (j, a) :: acc)
           []
      |> List.filter (fun (_, a) -> not (Q.is_zero a))
    in
    let ints = List.filter_map (fun (j, a) -> Option.map (fun v -> (j, v)) (int_of_q a)) merged in
    match int_of_q c.rhs with
    | Some rhs when List.compare_lengths ints merged = 0 -> (
        let vars = Array.of_list (List.map fst ints) in
        let coefs = Array.of_list (List.map snd ints) in
        let neg () = { vars; coefs = Array.map Int.neg coefs; rhs = -rhs } in
        match c.cmp with
        | Lp.Le -> [ { vars; coefs; rhs } ]
        | Lp.Ge -> [ neg () ]
        | Lp.Eq -> [ { vars; coefs; rhs }; neg () ])
    | _ -> []
  in
  Array.of_list (List.concat_map row lp.Lp.constraints)

(* Row view and scratch queue, built once per [solve]. *)
type prop = {
  rows : row array;
  rows_of : int array array;  (* variable -> the rows it appears in *)
  integer : bool array;
  queue : int array;  (* circular; holds each row at most once *)
  queued : bool array;
  mutable head : int;
  mutable len : int;
}

let prop_state (p : problem) =
  let rows = int_rows p.lp in
  let nr = Array.length rows in
  let rows_of = Array.make p.lp.Lp.nvars [] in
  for r = nr - 1 downto 0 do
    Array.iter (fun j -> rows_of.(j) <- r :: rows_of.(j)) rows.(r).vars
  done;
  { rows; rows_of = Array.map Array.of_list rows_of; integer = p.integer;
    queue = Array.make nr 0; queued = Array.make nr false; head = 0; len = 0 }

(* The problem's own bounds, integer variables rounded inward and
   continuous ones outward. *)
let implied_bounds (p : problem) =
  let bound round none = function
    | Some q -> Option.value (Bigint.to_int_opt (round q)) ~default:none
    | None -> none
  in
  let n = p.lp.Lp.nvars in
  ( Array.init n (fun j ->
        bound (if p.integer.(j) then Q.ceil else Q.floor) min_int p.lp.Lp.lower.(j)),
    Array.init n (fun j ->
        bound (if p.integer.(j) then Q.floor else Q.ceil) max_int p.lp.Lp.upper.(j)) )

let push st r =
  if not st.queued.(r) then begin
    st.queued.(r) <- true;
    st.queue.((st.head + st.len) mod Array.length st.queue) <- r;
    st.len <- st.len + 1
  end

let pop st =
  let r = st.queue.(st.head) in
  st.head <- (st.head + 1) mod Array.length st.queue;
  st.len <- st.len - 1;
  st.queued.(r) <- false;
  r

(* Record x_j <= v (x_j >= v) if it is tighter, and queue j's other rows. *)
let tighten_hi st lo hi j v ~from =
  if v < hi.(j) then begin
    hi.(j) <- v;
    if lo.(j) > v then raise Refuted;
    Array.iter (fun r -> if r <> from then push st r) st.rows_of.(j)
  end

let tighten_lo st lo hi j v ~from =
  if v > lo.(j) then begin
    lo.(j) <- v;
    if v > hi.(j) then raise Refuted;
    Array.iter (fun r -> if r <> from then push st r) st.rows_of.(j)
  end

(* Raises [Refuted] if row [r]'s least activity over the box exceeds its
   rhs; otherwise tightens each integer variable to what the rest of the
   row leaves it. A bound that is a sentinel counts as infinite on either
   side, which only weakens the test. A variable's term in the least
   activity reads the bound this loop never tightens, so [fin] stays
   valid while it runs. *)
let visit st lo hi r =
  let { vars; coefs; rhs } = st.rows.(r) in
  let n = Array.length vars in
  let fin = ref 0 and ninf = ref 0 and inf_k = ref 0 in
  for k = 0 to n - 1 do
    let a = coefs.(k) in
    let b = if a > 0 then lo.(vars.(k)) else hi.(vars.(k)) in
    if b = min_int || b = max_int then begin
      incr ninf;
      inf_k := k
    end
    else fin := add_chk !fin (mul_chk a b)
  done;
  if !ninf = 0 && !fin > rhs then raise Refuted;
  if !ninf <= 1 then
    for k = 0 to n - 1 do
      let j = vars.(k) in
      if st.integer.(j) && (!ninf = 0 || k = !inf_k) then begin
        let a = coefs.(k) in
        (* the term's product passed [mul_chk] in the first loop *)
        let rest =
          if !ninf = 0 then sub_chk !fin (a * if a > 0 then lo.(j) else hi.(j)) else !fin
        in
        let slack = sub_chk rhs rest in
        if a > 0 then tighten_hi st lo hi j (fdiv slack a) ~from:r
        else tighten_lo st lo hi j (cdiv slack a) ~from:r
      end
    done

(* Row visits per node, as a multiple of the row count. Stopping early
   only weakens the test; on the ptas-small corpus 4 prunes every node an
   uncapped propagation prunes, 1 does not. *)
let visits_per_row = 4

(* [seed] applies the node's branching bound (or queues every row at the
   root); then queued rows are visited until none is left or the cap is
   reached. A row whose arithmetic would overflow is skipped for that
   visit. False when the box holds no integer point. *)
let propagate st lo hi seed =
  let cap = visits_per_row * Array.length st.rows in
  let rec drain visits =
    if st.len > 0 && visits < cap then begin
      let r = pop st in
      (try visit st lo hi r with Overflow -> ());
      drain (visits + 1)
    end
  in
  let feasible = match seed (); drain 0 with () -> true | exception Refuted -> false in
  while st.len > 0 do ignore (pop st) done;
  feasible

(* Solve ordinal carried by recorder events: incumbents from concurrent or
   repeated solves can be regrouped before asserting a trace decreases. *)
let solve_ids = Atomic.make 0

let solve ?(max_nodes = max_int) ?(feasibility = false) p =
  Ccs_obs.Recorder.phase "ilp" @@ fun () ->
  let ord = Atomic.fetch_and_add solve_ids 1 in
  let nodes = ref 0 and prunes = ref 0 in
  let incumbent = ref None in
  let limit_hit = ref false in
  let exception Found_first of Q.t * Q.t array in
  (* cover the root relaxation too — it is as expensive as any node's *)
  Ccs_resil.Deadline.check chk_node;
  (* One LP model serves the whole tree: its nodes differ only in bound
     values, so each node builds just its rhs, bounds and simplex state. *)
  let model = Lp.model p.lp in
  let st = prop_state p in
  (* Depth-first search over bound tightenings. A node first applies its
     branching bound to its implied bounds [lo], [hi] and propagates
     ([seed]); only if that leaves an integer point possible does it solve
     its LP ([lp]). Each node hands its optimal basis to its children:
     sibling LPs differ from the parent only in one variable bound, so the
     warm start usually holds (and falls back to a cold solve when the
     tightened bound cuts it off). *)
  let rec search lower upper lo hi seed lp =
    if !limit_hit then ()
    else begin
      Ccs_resil.Deadline.check chk_node;
      incr nodes;
      if !nodes > max_nodes then limit_hit := true
      else if not (propagate st lo hi seed) then incr prunes
      else begin
        match lp () with
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
                  let fl = Q.floor v and ce = Q.ceil v in
                  let down () =
                    let fl_q = Q.of_bigint fl in
                    let upper' = Array.copy upper in
                    (match upper'.(j) with
                    | Some u when Q.(u <= fl_q) -> ()
                    | _ -> upper'.(j) <- Some fl_q);
                    (* the parent is done with its implied bounds *)
                    search lower upper' lo hi
                      (fun () ->
                        Option.iter
                          (fun f -> tighten_hi st lo hi j f ~from:(-1))
                          (Bigint.to_int_opt fl))
                      (fun () -> Lp.solve_model ~warm:basis model ~lower ~upper:upper')
                  and up () =
                    let ce_q = Q.of_bigint ce in
                    let lower' = Array.copy lower in
                    (match lower'.(j) with
                    | Some l when Q.(l >= ce_q) -> ()
                    | _ -> lower'.(j) <- Some ce_q);
                    let lo' = Array.copy lo and hi' = Array.copy hi in
                    search lower' upper lo' hi'
                      (fun () ->
                        Option.iter
                          (fun c -> tighten_lo st lo' hi' j c ~from:(-1))
                          (Bigint.to_int_opt ce))
                      (fun () -> Lp.solve_model ~warm:basis model ~lower:lower' ~upper)
                  in
                  up ();
                  down ())
      end
    end
  in
  let result =
    match Lp.solve_model model ~lower:p.lp.Lp.lower ~upper:p.lp.Lp.upper with
    | Lp.Unbounded _ -> Unbounded
    | Lp.Infeasible _ -> Infeasible
    | Lp.Optimal _ as root -> (
        let lo, hi = implied_bounds p in
        match
          (try
             (* the root relaxation is the first node's LP; the first
                node propagates over every row *)
             search (Array.copy p.lp.Lp.lower) (Array.copy p.lp.Lp.upper) lo hi
               (fun () -> Array.iteri (fun r _ -> push st r) st.rows)
               (fun () -> root);
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
  Ccs_obs.Metrics.add m_prunes_prop !prunes;
  Ccs_obs.Metrics.observe h_nodes (float_of_int !nodes);
  if !limit_hit then Ccs_obs.Metrics.incr m_limit_hits;
  result
