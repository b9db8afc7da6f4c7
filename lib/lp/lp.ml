module Q = Rat

(* Cooperative cancellation: one checkpoint per simplex iteration (pricing
   pass or repair pivot). Cancellation unwinds before the pivot mutates the
   eta file, so an exported basis is never half-updated. *)
(* Not a hot site: a revised-simplex pivot does O(m^2) exact-rational work,
   so a clock read per pivot is noise — and amortizing it left the solver
   blind for up to 63 pivots, seconds on bases with blown-up numerators. *)
let chk_pivot = Ccs_resil.Deadline.site "lp.pivot"

type cmp = Le | Ge | Eq

type constr = { coeffs : (int * Q.t) list; cmp : cmp; rhs : Q.t }

type problem = {
  nvars : int;
  objective : Q.t array;
  constraints : constr list;
  lower : Q.t option array;
  upper : Q.t option array;
}

type stats = {
  phase1_iterations : int;
  phase2_iterations : int;
  pivots : int;
  bland_switched : bool;
  pricing_switches : int;
  basis_refactorizations : int;
  warm_started : bool;
}

(* A basis is valid for any LP of the same internal shape: same row count
   and same column layout (structural/slack/artificial partition). Bound
   and rhs values may differ — the importer recomputes the basic solution
   and falls back to a cold start if it is not primal feasible. *)
type basis = {
  b_rows : int;
  b_struct : int;
  b_slack : int;
  b_total : int;
  b_basic : int array;  (* column basic in each row *)
  b_upper : int array;  (* nonbasic columns sitting at their upper bound *)
}

type result =
  | Optimal of { objective : Q.t; solution : Q.t array; stats : stats; basis : basis }
  | Infeasible of stats
  | Unbounded of stats

(* Registry handles created once; per-solve updates are plain field writes. *)
let m_solves = Ccs_obs.Metrics.counter "lp.solves"
let m_pivots = Ccs_obs.Metrics.counter "lp.pivots"
let m_phase1 = Ccs_obs.Metrics.counter "lp.phase1_iterations"
let m_phase2 = Ccs_obs.Metrics.counter "lp.phase2_iterations"
let m_bland = Ccs_obs.Metrics.counter "lp.bland_switches"
let m_infeasible = Ccs_obs.Metrics.counter "lp.infeasible"
let m_unbounded = Ccs_obs.Metrics.counter "lp.unbounded"
let m_refactor = Ccs_obs.Metrics.counter "lp.basis_refactorizations"
let m_pricing_switches = Ccs_obs.Metrics.counter "lp.pricing_switches"
let m_warm = Ccs_obs.Metrics.counter "lp.warm_starts"
let m_repair_stalls = Ccs_obs.Metrics.counter "lp.repair_stalls"
let m_rat_hits = Ccs_obs.Metrics.counter "rat.small_hits"
let m_rat_promos = Ccs_obs.Metrics.counter "rat.promotions"

(* Rat keeps its own exact per-domain counters; bridge them into the metrics
   registry by publishing the delta since the last sync. The baseline refs
   are deliberately not tied to [Metrics.reset], so after a reset the
   counters accumulate deltas from that point on, as every other counter
   does. *)
let rat_sync_mu = Mutex.create ()
let rat_last_hits = ref 0
let rat_last_promos = ref 0

let sync_rat_counters () =
  let s = Q.stats () in
  Mutex.lock rat_sync_mu;
  let dh = s.Q.small_hits - !rat_last_hits in
  let dp = s.Q.promotions - !rat_last_promos in
  rat_last_hits := s.Q.small_hits;
  rat_last_promos := s.Q.promotions;
  Mutex.unlock rat_sync_mu;
  if dh > 0 then Ccs_obs.Metrics.add m_rat_hits dh;
  if dp > 0 then Ccs_obs.Metrics.add m_rat_promos dp

let problem ?lower ?upper ~nvars ~objective constraints =
  let lower = match lower with Some l -> l | None -> Array.make nvars (Some Q.zero) in
  let upper = match upper with Some u -> u | None -> Array.make nvars None in
  if Array.length objective <> nvars || Array.length lower <> nvars || Array.length upper <> nvars
  then invalid_arg "Lp.problem: arity mismatch";
  { nvars; objective; constraints; lower; upper }

let constr coeffs cmp rhs = { coeffs; cmp; rhs }

let feasible p x =
  if Array.length x <> p.nvars then false
  else begin
    let bounds_ok = ref true in
    Array.iteri
      (fun j v ->
        (match p.lower.(j) with Some l when Q.(v < l) -> bounds_ok := false | _ -> ());
        match p.upper.(j) with Some u when Q.(v > u) -> bounds_ok := false | _ -> ())
      x;
    !bounds_ok
    && List.for_all
         (fun c ->
           let lhs =
             List.fold_left (fun acc (j, a) -> Q.add acc (Q.mul a x.(j))) Q.zero c.coeffs
           in
           match c.cmp with
           | Le -> Q.(lhs <= c.rhs)
           | Ge -> Q.(lhs >= c.rhs)
           | Eq -> Q.(lhs = c.rhs))
         p.constraints
  end

(* ------------------------------------------------------------------ *)
(* Revised simplex core over: min c x  s.t.  A x = b,  0 <= x <= ub
   (ub componentwise optional), with sparse columns and a product-form-eta
   factorization of the basis. Upper bounds are implicit: a nonbasic
   variable rests at 0 or at its upper bound, never in an explicit row. *)

type status = Basic of int (* row *) | At_lower | At_upper

(* Basis change B' = B E, where E is the identity with column [er] replaced
   by the pivot column u: [epiv] = u_er, [ecol] the other nonzeros. *)
type eta = { er : int; epiv : Q.t; ecol : (int * Q.t) array }

let refactor_every = 64

type core = {
  m : int;
  n_struct : int;
  n_slack : int;
  n_total : int;
  n_enter : int;  (* columns allowed to price; artificials are beyond *)
  (* Sparse columns, compressed: column j's entries sit at positions
     [col_start.(j)] to [col_start.(j + 1) - 1] of [row_of] and [value],
     rows ascending. Natural row signs until a cold start normalises them
     (see [normalise_signs]). *)
  col_start : int array;
  row_of : int array;
  mutable value : Q.t array;
  b : Q.t array;
  ub : Q.t option array;
  cost : Q.t array;  (* phase-dependent, length n_total *)
  status : status array;
  basis : int array;
  xb : Q.t array;
  etas : eta option array;  (* first [neta] slots in application order *)
  mutable neta : int;
  d : Q.t array;  (* reduced costs of the enterable columns *)
  w : float array;  (* Devex reference weights, enterable columns *)
  mutable iters : int;
  mutable pivots : int;
  mutable degen_streak : int;
  mutable bland_mode : bool;
  mutable bland_switched : bool;
  mutable pricing_switches : int;
  mutable refactorizations : int;
  mutable refactor_in : int;  (* pivots left before the next refactorization *)
  bland_after : int;
}

exception Singular

let ftran core v =
  for k = 0 to core.neta - 1 do
    match core.etas.(k) with
    | None -> assert false
    | Some e ->
        let x = v.(e.er) in
        if not (Q.is_zero x) then begin
          let pr = Q.div x e.epiv in
          let ecol = e.ecol in
          for t = 0 to Array.length ecol - 1 do
            let i, u = ecol.(t) in
            v.(i) <- Q.sub v.(i) (Q.mul u pr)
          done;
          v.(e.er) <- pr
        end
  done

(* The zero tests below skip only x * 0, s - 0 and 0 / p: work whose
   result is known, which [Rat] never counted as small-path hits. *)
let btran core y =
  for k = core.neta - 1 downto 0 do
    match core.etas.(k) with
    | None -> assert false
    | Some e ->
        let y_er = y.(e.er) in
        let s = ref y_er in
        let ecol = e.ecol in
        for t = 0 to Array.length ecol - 1 do
          let i, u = ecol.(t) in
          let yi = y.(i) in
          if not (Q.is_zero yi) then s := Q.sub !s (Q.mul u yi)
        done;
        if not (Q.is_zero !s) then y.(e.er) <- Q.div !s e.epiv
        else if not (Q.is_zero y_er) then y.(e.er) <- Q.zero
  done

let col_dot core y j =
  let acc = ref Q.zero in
  for k = core.col_start.(j) to core.col_start.(j + 1) - 1 do
    let yi = y.(core.row_of.(k)) in
    if not (Q.is_zero yi) then acc := Q.add !acc (Q.mul core.value.(k) yi)
  done;
  !acc

(* v -= s * a_j *)
let sub_col core v j s =
  for k = core.col_start.(j) to core.col_start.(j + 1) - 1 do
    let i = core.row_of.(k) in
    v.(i) <- Q.sub v.(i) (Q.mul core.value.(k) s)
  done

let dense_col core j =
  let v = Array.make core.m Q.zero in
  for k = core.col_start.(j) to core.col_start.(j + 1) - 1 do
    v.(core.row_of.(k)) <- core.value.(k)
  done;
  v

(* x_B = B^{-1} (b - sum over at-upper columns of ub_j * a_j). *)
let recompute_xb core =
  let v = Array.copy core.b in
  for j = 0 to core.n_total - 1 do
    if core.status.(j) = At_upper then begin
      let u = match core.ub.(j) with Some u -> u | None -> assert false in
      if not (Q.is_zero u) then sub_col core v j u
    end
  done;
  ftran core v;
  Array.blit v 0 core.xb 0 core.m

(* Rebuild the eta file from scratch by re-pivoting the basis columns in
   row order; raises [Singular] if the column set is not a basis. Pivot
   rows are reassigned deterministically (smallest eligible index). *)
let refactor core =
  core.neta <- 0;
  let assigned = Array.make core.m false in
  let new_basis = Array.make core.m (-1) in
  Array.iter
    (fun j ->
      let v = dense_col core j in
      ftran core v;
      let r = ref (-1) in
      for i = core.m - 1 downto 0 do
        if (not assigned.(i)) && not (Q.is_zero v.(i)) then r := i
      done;
      if !r < 0 then raise Singular;
      let r = !r in
      assigned.(r) <- true;
      new_basis.(r) <- j;
      let others = ref [] in
      for i = core.m - 1 downto 0 do
        if i <> r && not (Q.is_zero v.(i)) then others := (i, v.(i)) :: !others
      done;
      (* a column that ftrans to its own unit vector with pivot 1 gives an
         eta that is an exact no-op in ftran and btran: store none *)
      match !others with
      | [] when Q.equal v.(r) Q.one -> ()
      | others ->
          core.etas.(core.neta) <-
            Some { er = r; epiv = v.(r); ecol = Array.of_list others };
          core.neta <- core.neta + 1)
    (Array.copy core.basis);
  Array.blit new_basis 0 core.basis 0 core.m;
  Array.iteri (fun r j -> core.status.(j) <- Basic r) core.basis;
  core.refactorizations <- core.refactorizations + 1;
  core.refactor_in <- refactor_every;
  recompute_xb core

(* Count a basis change and refactor once its pivot budget is spent. The
   budget counts pivots, not etas: a factorization stores no identity etas,
   so its eta count says nothing about how many pivots followed it. *)
let count_pivot core =
  core.pivots <- core.pivots + 1;
  core.refactor_in <- core.refactor_in - 1;
  if core.refactor_in = 0 then refactor core

(* Reduced costs d_j = c_j - y a_j with y = c_B B^{-1}, for enterable
   columns; Devex weights reset to the unit reference framework. *)
let compute_duals core =
  let y = Array.make core.m Q.zero in
  Array.iteri (fun r j -> y.(r) <- core.cost.(j)) core.basis;
  btran core y;
  for j = 0 to core.n_enter - 1 do
    (match core.status.(j) with
    | Basic _ -> core.d.(j) <- Q.zero
    | At_lower | At_upper -> core.d.(j) <- Q.sub core.cost.(j) (col_dot core y j));
    core.w.(j) <- 1.0
  done

(* Entering-column choice. Devex: maximize d_j^2 / w_j (float scores decide
   the order only; all arithmetic on the chosen column stays exact). Bland:
   smallest favorable index, which provably cannot cycle. *)
let price core =
  (* A fixed column (width-zero box, e.g. a variable pinned by branch &
     bound) can only ever take a zero-length flip step: it is excluded
     from pricing outright, both for speed and so its reduced-cost sign
     never blocks the optimality test. *)
  let fixed j =
    match core.ub.(j) with Some u -> Q.sign u = 0 | None -> false
  in
  let favorable j =
    if fixed j then false
    else
      match core.status.(j) with
      | At_lower -> Q.sign core.d.(j) < 0
      | At_upper -> Q.sign core.d.(j) > 0
      | Basic _ -> false
  in
  if core.bland_mode then begin
    let q = ref (-1) in
    (try
       for j = 0 to core.n_enter - 1 do
         if favorable j then begin
           q := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !q < 0 then None else Some !q
  end
  else begin
    let q = ref (-1) in
    let best = ref 0.0 in
    for j = 0 to core.n_enter - 1 do
      if favorable j then begin
        let df = Q.to_float core.d.(j) in
        let score = df *. df /. core.w.(j) in
        if score > !best then begin
          best := score;
          q := j
        end
      end
    done;
    if !q < 0 then None else Some !q
  end

(* Ratio test for entering column [q] moving by [theta >= 0] in direction
   [sigma] (+1 off its lower bound, -1 off its upper bound). *)
type step =
  | Step_unbounded
  | Step_flip of Q.t  (* q reaches its own opposite bound *)
  | Step_pivot of int * Q.t  (* leaving row, theta *)

let ratio_test core q sigma v =
  let best_theta = ref None in
  let best_row = ref (-1) in
  (* Tie-break among minimum-ratio rows. Under Devex pricing, prefer to
     drive an artificial out of the basis — phase 1 on degenerate
     configuration LPs otherwise stalls for long plateaus with artificials
     parked at zero (their column indices are the largest, so a plain
     smallest-index rule keeps them basic forever). In Bland mode the rule
     must stay pure smallest-index: that is what the anti-cycling proof
     relies on. *)
  let art_start = core.n_struct + core.n_slack in
  let prefer bi bj =
    if core.bland_mode then bi < bj
    else
      match (bi >= art_start, bj >= art_start) with
      | true, false -> true
      | false, true -> false
      | _ -> bi < bj
  in
  let consider i theta =
    let better =
      match !best_theta with
      | None -> true
      | Some t ->
          Q.(theta < t)
          || (Q.(theta = t)
             && !best_row >= 0
             && prefer core.basis.(i) core.basis.(!best_row))
    in
    if better then begin
      best_theta := Some theta;
      best_row := i
    end
  in
  for i = 0 to core.m - 1 do
    let vi = if sigma > 0 then v.(i) else Q.neg v.(i) in
    let s = Q.sign vi in
    if s > 0 then consider i (Q.div core.xb.(i) vi)
    else if s < 0 then begin
      match core.ub.(core.basis.(i)) with
      | Some u -> consider i (Q.div (Q.sub u core.xb.(i)) (Q.neg vi))
      | None -> ()
    end
  done;
  match (core.ub.(q), !best_theta) with
  | None, None -> Step_unbounded
  | Some u, None -> Step_flip u
  | Some u, Some t when Q.(u <= t) -> Step_flip u
  | _, Some t -> Step_pivot (!best_row, t)

(* Execute a basis change: update x_B, the eta file, reduced costs and
   Devex weights. [v] is B^{-1} a_q (FTRANed), [r] the leaving row. *)
let do_pivot core q sigma v r theta =
  let p = core.basis.(r) in
  let alpha_q = v.(r) in
  (* dual row: rho = e_r B^{-1} (pre-pivot) *)
  let rho = Array.make core.m Q.zero in
  rho.(r) <- Q.one;
  btran core rho;
  let dq = core.d.(q) in
  let dq_over = Q.div dq alpha_q in
  let aqf = Q.to_float alpha_q in
  let aq2 = aqf *. aqf in
  let wq = core.w.(q) in
  for j = 0 to core.n_enter - 1 do
    if j <> q then
      match core.status.(j) with
      | Basic _ -> ()
      | At_lower | At_upper ->
          let alpha = col_dot core rho j in
          if not (Q.is_zero alpha) then begin
            core.d.(j) <- Q.sub core.d.(j) (Q.mul dq_over alpha);
            let af = Q.to_float alpha in
            let cand = af *. af /. aq2 *. wq in
            if cand > core.w.(j) then core.w.(j) <- cand
          end
  done;
  (* primal update *)
  if Q.sign theta <> 0 then begin
    let step = if sigma > 0 then theta else Q.neg theta in
    for i = 0 to core.m - 1 do
      if not (Q.is_zero v.(i)) then core.xb.(i) <- Q.sub core.xb.(i) (Q.mul step v.(i))
    done
  end;
  let x_enter =
    if sigma > 0 then theta
    else
      match core.ub.(q) with Some u -> Q.sub u theta | None -> assert false
  in
  (* leaving variable rests at the bound it ran into *)
  let leave_low = Q.sign (if sigma > 0 then v.(r) else Q.neg v.(r)) > 0 in
  core.status.(p) <- (if leave_low then At_lower else At_upper);
  if p < core.n_enter then begin
    core.d.(p) <- Q.neg dq_over;
    core.w.(p) <- Float.max 1.0 (wq /. aq2)
  end;
  core.d.(q) <- Q.zero;
  let others = ref [] in
  for i = core.m - 1 downto 0 do
    if i <> r && not (Q.is_zero v.(i)) then others := (i, v.(i)) :: !others
  done;
  core.etas.(core.neta) <- Some { er = r; epiv = alpha_q; ecol = Array.of_list !others };
  core.neta <- core.neta + 1;
  core.basis.(r) <- q;
  core.status.(q) <- Basic r;
  core.xb.(r) <- x_enter;
  count_pivot core

(* Weights past this magnitude stop discriminating; restart the framework. *)
let devex_overflow = 1e12

let reset_devex core = Array.fill core.w 0 core.n_enter 1.0

(* Phase-1 objective: artificial columns never sit at an upper bound, so
   the current infeasibility is the sum of basic artificial values. *)
let phase1_value core =
  let acc = ref Q.zero in
  for r = 0 to core.m - 1 do
    if core.basis.(r) >= core.n_enter then acc := Q.add !acc core.xb.(r)
  done;
  !acc

(* One phase of simplex. [stop_at_feasible] makes phase 1 return as soon as
   the artificial infeasibility hits zero instead of proving optimality. *)
let run_phase core ~stop_at_feasible =
  let iters0 = core.iters in
  let rec loop () =
    Ccs_resil.Deadline.check chk_pivot;
    core.iters <- core.iters + 1;
    if (not core.bland_mode) && core.degen_streak >= core.bland_after then begin
      core.bland_mode <- true;
      core.pricing_switches <- core.pricing_switches + 1
    end;
    match price core with
    | None -> `Optimal
    | Some q ->
        let sigma = if core.status.(q) = At_lower then 1 else -1 in
        let v = dense_col core q in
        ftran core v;
        (match ratio_test core q sigma v with
        | Step_unbounded -> `Unbounded
        | Step_flip u ->
            core.status.(q) <- (if sigma > 0 then At_upper else At_lower);
            if not (Q.is_zero u) then begin
              let step = if sigma > 0 then u else Q.neg u in
              for i = 0 to core.m - 1 do
                if not (Q.is_zero v.(i)) then
                  core.xb.(i) <- Q.sub core.xb.(i) (Q.mul step v.(i))
              done;
              core.degen_streak <- 0;
              if core.bland_mode then begin
                core.bland_mode <- false;
                reset_devex core
              end
            end;
            continue ()
        | Step_pivot (r, theta) ->
            if core.bland_mode then core.bland_switched <- true;
            if Q.sign theta = 0 then core.degen_streak <- core.degen_streak + 1
            else begin
              core.degen_streak <- 0;
              if core.bland_mode then begin
                core.bland_mode <- false;
                reset_devex core
              end
            end;
            do_pivot core q sigma v r theta;
            if (not core.bland_mode)
               && Array.exists (fun w -> w > devex_overflow) core.w
            then reset_devex core;
            continue ())
  and continue () =
    if stop_at_feasible && Q.is_zero (phase1_value core) then `Optimal else loop ()
  in
  let status = loop () in
  (status, core.iters - iters0)

(* ------------------------------------------------------------------ *)
(* Translation from the user-facing form, in two parts.

   Variable j becomes non-negative internal columns:
   - finite lower bound l: x = l + x', upper carried implicitly as ub
   - no lower bound:       x = x+ - x- (two columns); a finite upper with
     no lower is the one combination that still needs an explicit row.
   Finite upper bounds on shifted variables become implicit column bounds,
   so bound tightenings (e.g. branch & bound) never change the LP shape.

   The [model] is everything that bound values do not touch: the variable
   layout and the constraint matrix as compressed sparse columns, with
   duplicate indices merged and rows in their natural signs. It is built
   once and serves every solve whose bounds have the same layout — a whole
   branch-and-bound tree. Each solve then builds only its shifted rhs, its
   column upper bounds and fresh simplex state ([node_core]). *)

type model = {
  prob : problem;  (* constraints and objective; its bounds fix the layout *)
  col_of : (int * int option) array;  (* var -> (pos column, neg column) *)
  m_rows : int;
  m_struct : int;
  m_slack : int;
  (* the columns, compressed as in [core]; artificial i is +e_i *)
  m_col_start : int array;
  m_row_of : int array;
  m_value : Q.t array;
  rhs : Q.t array;  (* user rhs; 0 on the upper-bound rows *)
  upper_rows : (int * int) list;  (* (row, var) of each explicit upper row *)
}

exception Empty_box

let model p =
  let nv = p.nvars in
  let col_of = Array.make nv (0, None) in
  let next = ref 0 in
  for j = 0 to nv - 1 do
    match p.lower.(j) with
    | Some _ ->
        col_of.(j) <- (!next, None);
        incr next
    | None ->
        col_of.(j) <- (!next, Some (!next + 1));
        next := !next + 2
  done;
  let n_struct = !next in
  (* rows: user constraints, plus the rare upper-bound row for variables
     unbounded below *)
  let rows = ref [] in
  let add_row coeffs cmp rhs = rows := (coeffs, cmp, rhs) :: !rows in
  List.iter
    (fun c ->
      let coeffs =
        List.concat_map
          (fun (j, a) ->
            if Q.is_zero a then []
            else
              let pos, negc = col_of.(j) in
              match negc with
              | None -> [ (pos, a) ]
              | Some ncol -> [ (pos, a); (ncol, Q.neg a) ])
          c.coeffs
      in
      add_row coeffs c.cmp c.rhs)
    p.constraints;
  let next_row = ref (List.length p.constraints) in
  let upper_rows = ref [] in
  for j = 0 to nv - 1 do
    match (p.lower.(j), p.upper.(j)) with
    | None, Some _ ->
        let pos, negc = col_of.(j) in
        upper_rows := (!next_row, j) :: !upper_rows;
        incr next_row;
        add_row [ (pos, Q.one); (Option.get negc, Q.minus_one) ] Le Q.zero
    | _ -> ()
  done;
  let rows = List.rev !rows in
  let m = List.length rows in
  let n_slack =
    List.fold_left (fun acc (_, cmp, _) -> if cmp = Eq then acc else acc + 1) 0 rows
  in
  let n_total = n_struct + n_slack + m in
  let rhs = Array.make m Q.zero in
  let col_acc = Array.make n_total [] in
  let slack_cursor = ref n_struct in
  List.iteri
    (fun i (coeffs, cmp, r) ->
      rhs.(i) <- r;
      (* merge duplicate variable indices in the row *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (j, a) ->
          Hashtbl.replace tbl j
            (Q.add a (Option.value ~default:Q.zero (Hashtbl.find_opt tbl j))))
        coeffs;
      Hashtbl.iter
        (fun j a -> if not (Q.is_zero a) then col_acc.(j) <- (i, a) :: col_acc.(j))
        tbl;
      let slack a =
        let s = !slack_cursor in
        incr slack_cursor;
        col_acc.(s) <- [ (i, a) ]
      in
      (match cmp with Le -> slack Q.one | Ge -> slack Q.minus_one | Eq -> ());
      col_acc.(n_struct + n_slack + i) <- [ (i, Q.one) ])
    rows;
  let col_start = Array.make (n_total + 1) 0 in
  Array.iteri (fun j l -> col_start.(j + 1) <- col_start.(j) + List.length l) col_acc;
  let nnz = col_start.(n_total) in
  let row_of = Array.make nnz 0 and value = Array.make nnz Q.zero in
  Array.iteri
    (fun j l ->
      (* entries were pushed in descending row order *)
      List.iteri
        (fun k (i, a) ->
          let pos = col_start.(j + 1) - 1 - k in
          row_of.(pos) <- i;
          value.(pos) <- a)
        l)
    col_acc;
  {
    prob = p;
    col_of;
    m_rows = m;
    m_struct = n_struct;
    m_slack = n_slack;
    m_col_start = col_start;
    m_row_of = row_of;
    m_value = value;
    rhs;
    upper_rows = !upper_rows;
  }

(* The bounds a model was built for fix which variables have a finite lower
   bound and which of the others carry an explicit upper row. *)
let same_layout md ~lower ~upper =
  let p = md.prob in
  let ok = ref true in
  for j = 0 to p.nvars - 1 do
    match (p.lower.(j), lower.(j)) with
    | Some _, Some _ -> ()
    | None, None ->
        if Option.is_some p.upper.(j) <> Option.is_some upper.(j) then ok := false
    | _ -> ok := false
  done;
  !ok

(* Per-solve state over a shared model: the rhs shifted by the lower
   bounds, the column upper bounds, and fresh mutable simplex state.
   Raises [Empty_box] if some variable's bounds cross. *)
let node_core ~bland_after md ~lower ~upper =
  let m = md.m_rows and n_struct = md.m_struct and n_slack = md.m_slack in
  let n_enter = n_struct + n_slack in
  let n_total = n_enter + m in
  let ub = Array.make n_total None in
  for j = 0 to md.prob.nvars - 1 do
    match (lower.(j), upper.(j)) with
    | Some l, Some u ->
        let w = Q.sub u l in
        if Q.sign w < 0 then raise Empty_box;
        ub.(fst md.col_of.(j)) <- Some w
    | _ -> ()
  done;
  let core =
    {
      m;
      n_struct;
      n_slack;
      n_total;
      n_enter;
      col_start = md.m_col_start;
      row_of = md.m_row_of;
      value = md.m_value;
      b = Array.copy md.rhs;
      ub;
      cost = Array.make n_total Q.zero;
      status = Array.make n_total At_lower;
      basis = Array.init m (fun i -> n_enter + i);
      xb = Array.make m Q.zero;
      etas = Array.make (m + refactor_every + 1) None;
      neta = 0;
      d = Array.make n_enter Q.zero;
      w = Array.make n_enter 1.0;
      iters = 0;
      pivots = 0;
      degen_streak = 0;
      bland_mode = false;
      bland_switched = false;
      pricing_switches = 0;
      refactorizations = 0;
      refactor_in = 0;
      bland_after;
    }
  in
  List.iter (fun (i, j) -> core.b.(i) <- Option.get upper.(j)) md.upper_rows;
  (* shift the rhs by the lower bounds: b -= l_j a_j *)
  Array.iteri
    (fun j lo ->
      match lo with
      | Some l when not (Q.is_zero l) -> sub_col core core.b (fst md.col_of.(j)) l
      | _ -> ())
    lower;
  core

(* Negate every row whose rhs is negative, so that the cold start's
   identity basis is primal feasible. Only the cold start needs this:
   negating a row together with its rhs leaves x_B, every alpha_j and every
   ratio unchanged, so the warm path runs on the natural signs. Artificial
   columns stay +e_i. Idempotent. *)
let normalise_signs core =
  if Array.exists (fun v -> Q.sign v < 0) core.b then begin
    let flip = Array.map (fun v -> Q.sign v < 0) core.b in
    Array.iteri (fun i v -> if flip.(i) then core.b.(i) <- Q.neg v) core.b;
    let art_start = core.col_start.(core.n_enter) in
    core.value <-
      Array.mapi
        (fun k a -> if k < art_start && flip.(core.row_of.(k)) then Q.neg a else a)
        core.value
  end

(* Cold start: +1 slacks where available (crash), artificials elsewhere,
   everything else at its lower bound. Either way the initial basis is the
   identity, so the start is primal feasible for phase 1 with no etas. *)
let init_cold core =
  normalise_signs core;
  Array.fill core.status 0 core.n_total At_lower;
  for i = 0 to core.m - 1 do
    core.basis.(i) <- core.n_enter + i
  done;
  (* a +1 slack is a ready-made basic column: the crash start uses it
     instead of an artificial, shortening phase 1 *)
  for s = core.n_struct to core.n_enter - 1 do
    let k = core.col_start.(s) in
    if Q.equal core.value.(k) Q.one then core.basis.(core.row_of.(k)) <- s
  done;
  for i = 0 to core.m - 1 do
    core.status.(core.basis.(i)) <- Basic i;
    core.xb.(i) <- core.b.(i)
  done;
  core.neta <- 0;
  (* the identity start has no etas; the first refactorization comes after
     m + refactor_every pivots, as it would if the start had stored m *)
  core.refactor_in <- core.m + refactor_every;
  (* phase-1 costs: unit on artificials *)
  Array.fill core.cost 0 core.n_total Q.zero;
  for i = 0 to core.m - 1 do
    core.cost.(core.n_enter + i) <- Q.one
  done;
  compute_duals core

(* Warm start: adopt an exported basis if it matches the shape and still
   factors. Returns the number of basic variables that violate their box
   under the current bounds and rhs: [`Ok 0] means the basis is primal
   feasible as-is; [`Ok k] with [k > 0] is a candidate for dual-simplex
   repair; [`No] sends the caller down the cold path. The artificial
   columns must already be pinned to [0, 0] so their violations count. *)
let try_warm core (wb : basis) =
  if wb.b_rows <> core.m || wb.b_struct <> core.n_struct
     || wb.b_slack <> core.n_slack || wb.b_total <> core.n_total
  then `No
  else if Array.exists (fun j -> j < 0 || j >= core.n_total) wb.b_basic then `No
  else begin
    Array.fill core.status 0 core.n_total At_lower;
    let distinct = Hashtbl.create core.m in
    Array.iter (fun j -> Hashtbl.replace distinct j ()) wb.b_basic;
    if Hashtbl.length distinct <> core.m then `No
    else if
      Array.exists
        (fun j ->
          j < 0 || j >= core.n_total || Hashtbl.mem distinct j || core.ub.(j) = None)
        wb.b_upper
    then `No
    else begin
      Array.blit wb.b_basic 0 core.basis 0 core.m;
      Array.iteri (fun r j -> core.status.(j) <- Basic r) core.basis;
      Array.iter (fun j -> core.status.(j) <- At_upper) wb.b_upper;
      core.neta <- 0;
      match refactor core with
      | () ->
          core.refactorizations <- core.refactorizations - 1;
          (* do not bill the import factorization as churn *)
          let viol = ref 0 in
          for r = 0 to core.m - 1 do
            let j = core.basis.(r) in
            let v = core.xb.(r) in
            if Q.sign v < 0 then incr viol
            else
              match core.ub.(j) with
              | Some u when Q.(v > u) -> incr viol
              | _ -> ()
          done;
          `Ok !viol
      | exception Singular -> `No
    end
  end

(* Is a nonbasic column pinned to a width-zero box? (Branch-and-bound
   fixings and the pinned artificials; such a column can never enter.) *)
let fixed_col core j =
  match core.ub.(j) with Some u -> Q.sign u = 0 | None -> false

(* The adopted reduced costs must satisfy the dual sign conditions for the
   dual simplex to run; fixed columns are exempt (they never price). *)
let dual_feasible core =
  let ok = ref true in
  for j = 0 to core.n_enter - 1 do
    if !ok && not (fixed_col core j) then
      match core.status.(j) with
      | Basic _ -> ()
      | At_lower -> if Q.sign core.d.(j) < 0 then ok := false
      | At_upper -> if Q.sign core.d.(j) > 0 then ok := false
  done;
  !ok

(* Dual-simplex feasibility repair, starting from a factored, dual-feasible
   basis whose x_B violates some boxes — the branch-and-bound child case,
   where the parent's optimal basis is off by exactly one tightened bound.
   The leaving row is the violated one of smallest basic variable index;
   the entering column is chosen by the least dual ratio and, among ties,
   by the size of its pivot element (see the scan below). Both rules are
   deterministic, but together they are not Bland's rule, so they do not
   exclude cycling: the iteration cap ends the repair, returning [`Stalled]
   so the caller falls back to a cold start. Maintains [core.d] exactly;
   Devex weights are left alone because the caller re-derives them before
   phase 2. *)
let dual_repair core =
  let max_iters = 100 + (20 * core.m) in
  (* alpha_j of the pricing row, allocated once per call rather than per
     pivot (a row wider than 256 words goes straight to the major heap).
     Stale entries are never read: each scan writes every nonbasic column
     it visits, and the dual update reads alphas only after a full scan. *)
  let alpha = Array.make core.n_enter Q.zero in
  let rec loop iters =
    Ccs_resil.Deadline.check chk_pivot;
    if iters > max_iters then `Stalled
    else begin
      let r = ref (-1) in
      let sr = ref 0 in
      for i = core.m - 1 downto 0 do
        let x = core.xb.(i) in
        let s =
          if Q.sign x < 0 then -1
          else
            match core.ub.(core.basis.(i)) with
            | Some u when Q.(x > u) -> 1
            | _ -> 0
        in
        if s <> 0 && (!r < 0 || core.basis.(i) < core.basis.(!r)) then begin
          r := i;
          sr := s
        end
      done;
      if !r < 0 then `Feasible iters
      else begin
        let r = !r and sr = !sr in
        core.iters <- core.iters + 1;
        let srq = Q.of_int sr in
        let rho = Array.make core.m Q.zero in
        rho.(r) <- Q.one;
        btran core rho;
        let q = ref (-1) in
        let best = ref Q.zero in
        let best_alpha = ref Q.zero in  (* |alpha_q| *)
        (* Among the eligible columns of least ratio, enter the first in
           index order whose pivot element has |alpha_j| >= 1, else the one
           of largest |alpha_j| (the lowest index on ties). The entering
           variable moves by |violation| / |alpha_j|, so a small pivot
           element can push other basic variables out of their boxes; in a
           zero-objective feasibility LP every eligible column ties at
           ratio 0 and this rule alone picks the pivot. Dual feasibility
           makes every eligible ratio >= 0, so the first column of ratio 0
           with |alpha_j| >= 1 is the one the full scan would pick: the
           scan stops there. Its theta_d is 0, so the dual update never
           reads the skipped alphas. *)
        let j = ref 0 in
        while !j < core.n_enter do
          let jj = !j in
          incr j;
          match core.status.(jj) with
          | Basic _ -> ()
          | At_lower | At_upper ->
              if fixed_col core jj then alpha.(jj) <- Q.zero
              else begin
                let a = col_dot core rho jj in
                alpha.(jj) <- a;
                let sa = Q.mul srq a in
                let eligible =
                  match core.status.(jj) with
                  | At_lower -> Q.sign sa > 0
                  | At_upper -> Q.sign sa < 0
                  | Basic _ -> false
                in
                if eligible then begin
                  let ratio =
                    if Q.is_zero core.d.(jj) then Q.zero else Q.div core.d.(jj) sa
                  in
                  let c = if !q < 0 then -1 else Q.compare ratio !best in
                  if c <= 0 then begin
                    let abs_a = Q.abs a in
                    if c < 0 || Q.(!best_alpha < one && abs_a > !best_alpha) then begin
                      q := jj;
                      best := ratio;
                      best_alpha := abs_a;
                      if Q.is_zero ratio && Q.(abs_a >= one) then j := core.n_enter
                    end
                  end
                end
              end
        done;
        if !q < 0 then `Infeasible (iters + 1)
          (* row r cannot be brought inside its box by any admissible move *)
        else begin
          let q = !q in
          let theta_d = !best in
          let alpha_q = alpha.(q) in
          let p = core.basis.(r) in
          (* dual update: y += theta_d * sr * rho, so d_j -= theta_d*sr*alpha_j *)
          if Q.sign theta_d <> 0 then
            for j = 0 to core.n_enter - 1 do
              if j <> q then
                match core.status.(j) with
                | Basic _ -> ()
                | At_lower | At_upper ->
                    if not (Q.is_zero alpha.(j)) then
                      core.d.(j) <-
                        Q.sub core.d.(j) (Q.mul theta_d (Q.mul srq alpha.(j)))
            done;
          (* primal update: entering moves by delta, leaving lands on the
             bound it violated *)
          let viol =
            if sr < 0 then core.xb.(r)
            else
              match core.ub.(p) with
              | Some u -> Q.sub core.xb.(r) u
              | None -> assert false
          in
          let delta = Q.div viol alpha_q in
          let bound_q =
            match core.status.(q) with
            | At_upper -> ( match core.ub.(q) with Some u -> u | None -> assert false)
            | _ -> Q.zero
          in
          let v = dense_col core q in
          ftran core v;
          if Q.sign delta <> 0 then
            for i = 0 to core.m - 1 do
              if not (Q.is_zero v.(i)) then
                core.xb.(i) <- Q.sub core.xb.(i) (Q.mul v.(i) delta)
            done;
          core.status.(p) <- (if sr < 0 then At_lower else At_upper);
          if p < core.n_enter then begin
            core.d.(p) <- Q.neg (Q.mul theta_d srq);
            core.w.(p) <- 1.0
          end;
          core.d.(q) <- Q.zero;
          let others = ref [] in
          for i = core.m - 1 downto 0 do
            if i <> r && not (Q.is_zero v.(i)) then others := (i, v.(i)) :: !others
          done;
          core.etas.(core.neta) <-
            Some { er = r; epiv = alpha_q; ecol = Array.of_list !others };
          core.neta <- core.neta + 1;
          core.basis.(r) <- q;
          core.status.(q) <- Basic r;
          core.xb.(r) <- Q.add bound_q delta;
          count_pivot core;
          loop (iters + 1)
        end
      end
    end
  in
  loop 0

let export_basis core =
  let uppers = ref [] in
  for j = core.n_total - 1 downto 0 do
    if core.status.(j) = At_upper then uppers := j :: !uppers
  done;
  {
    b_rows = core.m;
    b_struct = core.n_struct;
    b_slack = core.n_slack;
    b_total = core.n_total;
    b_basic = Array.copy core.basis;
    b_upper = Array.of_list !uppers;
  }

let extract_solution md core ~lower =
  let internal = Array.make core.n_total Q.zero in
  for j = 0 to core.n_total - 1 do
    match core.status.(j) with
    | Basic r -> internal.(j) <- core.xb.(r)
    | At_upper -> internal.(j) <- (match core.ub.(j) with Some u -> u | None -> Q.zero)
    | At_lower -> ()
  done;
  Array.init md.prob.nvars (fun jv ->
      let pos, negc = md.col_of.(jv) in
      let v =
        match negc with
        | None -> internal.(pos)
        | Some ncol -> Q.sub internal.(pos) internal.(ncol)
      in
      Q.add v (Option.value ~default:Q.zero lower.(jv)))

let default_bland_after = 32

let run ?warm ~bland_after md ~lower ~upper =
  let md =
    if same_layout md ~lower ~upper then md else model { md.prob with lower; upper }
  in
  let p = md.prob in
  match node_core ~bland_after md ~lower ~upper with
  | exception Empty_box ->
      let stats =
        {
          phase1_iterations = 0;
          phase2_iterations = 0;
          pivots = 0;
          bland_switched = false;
          pricing_switches = 0;
          basis_refactorizations = 0;
          warm_started = false;
        }
      in
      Ccs_obs.Metrics.incr m_solves;
      Ccs_obs.Metrics.incr m_infeasible;
      sync_rat_counters ();
      Infeasible stats
  | core ->
      let pin_artificials () =
        for i = 0 to core.m - 1 do
          core.ub.(core.n_enter + i) <- Some Q.zero
        done
      in
      let unpin_artificials () =
        for i = 0 to core.m - 1 do
          core.ub.(core.n_enter + i) <- None
        done
      in
      let install_phase2_costs () =
        Array.fill core.cost 0 core.n_total Q.zero;
        for jv = 0 to p.nvars - 1 do
          let c = p.objective.(jv) in
          if not (Q.is_zero c) then begin
            let pos, negc = md.col_of.(jv) in
            core.cost.(pos) <- Q.add core.cost.(pos) c;
            match negc with
            | Some ncol -> core.cost.(ncol) <- Q.sub core.cost.(ncol) c
            | None -> ()
          end
        done
      in
      let warm_ok = ref false in
      (* Warm path: adopt the basis under the real costs with artificials
         pinned to zero. A clean import skips phase 1 outright; an import
         that is only primal-infeasible (the branch-and-bound child case:
         one tightened bound) is repaired with dual-simplex pivots, which
         is the whole point of exporting bases. Anything else — shape
         mismatch, singular, dual-infeasible, repair stall — falls back to
         the cold two-phase start, so a stale basis is never wrong. *)
      let warm_result =
        match warm with
        | None -> `Cold
        | Some wb -> (
            install_phase2_costs ();
            pin_artificials ();
            match try_warm core wb with
            | `No ->
                unpin_artificials ();
                `Cold
            | `Ok nviol -> (
                compute_duals core;
                if nviol = 0 then begin
                  warm_ok := true;
                  `Feasible 0
                end
                else if not (dual_feasible core) then begin
                  unpin_artificials ();
                  `Cold
                end
                else
                  match dual_repair core with
                  | `Feasible iters ->
                      warm_ok := true;
                      `Feasible iters
                  | `Infeasible iters ->
                      warm_ok := true;
                      `Infeasible iters
                  | `Stalled ->
                      (* counted here: the cold restart alone shows only as a
                         solve that is not warm *)
                      Ccs_obs.Metrics.incr m_repair_stalls;
                      unpin_artificials ();
                      `Cold))
      in
      let p1 =
        match warm_result with
        | (`Feasible _ | `Infeasible _) as r -> r
        | `Cold -> (
            init_cold core;
            match run_phase core ~stop_at_feasible:true with
            | `Unbounded, _ -> assert false (* phase-1 objective is bounded below *)
            | `Optimal, iters ->
                if Q.sign (phase1_value core) <> 0 then `Infeasible iters
                else begin
                  pin_artificials ();
                  `Feasible iters
                end)
      in
      let warm_ok = !warm_ok in
      let record ~p1_iters ~p2_iters ~outcome =
        let stats =
          {
            phase1_iterations = p1_iters;
            phase2_iterations = p2_iters;
            pivots = core.pivots;
            bland_switched = core.bland_switched;
            pricing_switches = core.pricing_switches;
            basis_refactorizations = core.refactorizations;
            warm_started = warm_ok;
          }
        in
        Ccs_obs.Metrics.incr m_solves;
        Ccs_obs.Metrics.add m_phase1 stats.phase1_iterations;
        Ccs_obs.Metrics.add m_phase2 stats.phase2_iterations;
        Ccs_obs.Metrics.add m_pivots stats.pivots;
        Ccs_obs.Metrics.add m_refactor stats.basis_refactorizations;
        Ccs_obs.Metrics.add m_pricing_switches stats.pricing_switches;
        if stats.bland_switched then Ccs_obs.Metrics.incr m_bland;
        if warm_ok then Ccs_obs.Metrics.incr m_warm;
        (match outcome with
        | `Infeasible -> Ccs_obs.Metrics.incr m_infeasible
        | `Unbounded -> Ccs_obs.Metrics.incr m_unbounded
        | `Optimal -> ());
        sync_rat_counters ();
        stats
      in
      (match p1 with
      | `Infeasible p1_iters ->
          Infeasible (record ~p1_iters ~p2_iters:0 ~outcome:`Infeasible)
      | `Feasible p1_iters ->
          (* phase 2: real costs; artificials are pinned at zero by their
             bounds, so redundant rows stay inert without a drive-out pass *)
          install_phase2_costs ();
          core.bland_mode <- false;
          core.degen_streak <- 0;
          compute_duals core;
          (match run_phase core ~stop_at_feasible:false with
          | `Unbounded, p2_iters ->
              Unbounded (record ~p1_iters ~p2_iters ~outcome:`Unbounded)
          | `Optimal, p2_iters ->
              let x = extract_solution md core ~lower in
              let value =
                Array.to_list x
                |> List.mapi (fun j v -> Q.mul p.objective.(j) v)
                |> List.fold_left Q.add Q.zero
              in
              let stats = record ~p1_iters ~p2_iters ~outcome:`Optimal in
              Optimal { objective = value; solution = x; stats; basis = export_basis core }))

let solve_model ?warm md ~lower ~upper =
  Ccs_obs.Recorder.phase "lp" @@ fun () ->
  run ?warm ~bland_after:default_bland_after md ~lower ~upper

let solve ?warm ?(bland_after = default_bland_after) p =
  Ccs_obs.Recorder.phase "lp" @@ fun () ->
  run ?warm ~bland_after (model p) ~lower:p.lower ~upper:p.upper
