type t = {
  r : int;
  s : int;
  t : int;
  n : int;
  a : int array array array;
  b : int array array array;
  rhs_top : int array;
  rhs_block : int array array;
  lower : int array array;
  upper : int array array;
  weight : int array array;
}

exception Invalid of string

(* Cancellation checkpoints: the kernel-candidate DFS is the hot inner
   loop (amortized clock), one augmentation step of the Graver walk is the
   coarse outer one (clock every time). *)
let chk_kernel = Ccs_resil.Deadline.site ~hot:true "nfold.kernel"
let chk_augment = Ccs_resil.Deadline.site "nfold.augment"
exception Too_large of string

let m_aug_steps = Ccs_obs.Metrics.counter "nfold.augmentation_steps"
let m_kernel = Ccs_obs.Metrics.counter "nfold.kernel_candidates"
let m_ilp_solves = Ccs_obs.Metrics.counter "nfold.ilp_solves"
let h_lambda = Ccs_obs.Metrics.histogram "nfold.step_lambda"

let validate p =
  let fail msg = raise (Invalid msg) in
  if p.r < 0 || p.s < 0 || p.t <= 0 || p.n <= 0 then fail "non-positive dimension";
  let check_mat name rows cols m =
    if Array.length m <> rows then fail (name ^ ": wrong row count");
    Array.iter (fun row -> if Array.length row <> cols then fail (name ^ ": wrong col count")) m
  in
  if Array.length p.a <> p.n then fail "a: wrong block count";
  if Array.length p.b <> p.n then fail "b: wrong block count";
  Array.iter (check_mat "a" p.r p.t) p.a;
  Array.iter (check_mat "b" p.s p.t) p.b;
  if Array.length p.rhs_top <> p.r then fail "rhs_top: wrong length";
  check_mat "rhs_block" p.n p.s p.rhs_block;
  check_mat "lower" p.n p.t p.lower;
  check_mat "upper" p.n p.t p.upper;
  check_mat "weight" p.n p.t p.weight;
  for i = 0 to p.n - 1 do
    for j = 0 to p.t - 1 do
      if p.lower.(i).(j) > p.upper.(i).(j) then fail "lower > upper"
    done
  done

let make_uniform ~n ~a ~b ~rhs_top ~rhs_block ~lower ~upper ~weight =
  let p =
    {
      r = Array.length a;
      s = Array.length b;
      t = (if Array.length a > 0 then Array.length a.(0) else Array.length b.(0));
      n;
      a = Array.init n (fun _ -> Array.map Array.copy a);
      b = Array.init n (fun _ -> Array.map Array.copy b);
      rhs_top;
      rhs_block;
      lower = Array.init n (fun _ -> Array.copy lower);
      upper = Array.init n (fun _ -> Array.copy upper);
      weight = Array.init n (fun _ -> Array.copy weight);
    }
  in
  validate p;
  p

let delta p =
  let m = ref 1 in
  let scan mat = Array.iter (Array.iter (fun v -> if abs v > !m then m := abs v)) mat in
  Array.iter scan p.a;
  Array.iter scan p.b;
  !m

let objective p x =
  let acc = ref 0 in
  for i = 0 to p.n - 1 do
    for j = 0 to p.t - 1 do
      acc := !acc + (p.weight.(i).(j) * x.(i).(j))
    done
  done;
  !acc

let check p x =
  try
    if Array.length x <> p.n then raise Exit;
    Array.iteri
      (fun i xi ->
        if Array.length xi <> p.t then raise Exit;
        Array.iteri
          (fun j v -> if v < p.lower.(i).(j) || v > p.upper.(i).(j) then raise Exit)
          xi)
      x;
    for k = 0 to p.r - 1 do
      let sum = ref 0 in
      for i = 0 to p.n - 1 do
        for j = 0 to p.t - 1 do
          sum := !sum + (p.a.(i).(k).(j) * x.(i).(j))
        done
      done;
      if !sum <> p.rhs_top.(k) then raise Exit
    done;
    for i = 0 to p.n - 1 do
      for k = 0 to p.s - 1 do
        let sum = ref 0 in
        for j = 0 to p.t - 1 do
          sum := !sum + (p.b.(i).(k).(j) * x.(i).(j))
        done;
        if !sum <> p.rhs_block.(i).(k) then raise Exit
      done
    done;
    true
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* Flattened MILP backend. *)

let solve_ilp ?max_nodes ?(feasibility = false) p =
  validate p;
  let q = Rat.of_int in
  let nv = p.n * p.t in
  let var i j = (i * p.t) + j in
  let rows = ref [] in
  for k = 0 to p.r - 1 do
    let coeffs = ref [] in
    for i = 0 to p.n - 1 do
      for j = 0 to p.t - 1 do
        if p.a.(i).(k).(j) <> 0 then coeffs := (var i j, q p.a.(i).(k).(j)) :: !coeffs
      done
    done;
    rows := Lp.constr !coeffs Lp.Eq (q p.rhs_top.(k)) :: !rows
  done;
  for i = 0 to p.n - 1 do
    for k = 0 to p.s - 1 do
      let coeffs = ref [] in
      for j = 0 to p.t - 1 do
        if p.b.(i).(k).(j) <> 0 then coeffs := (var i j, q p.b.(i).(k).(j)) :: !coeffs
      done;
      rows := Lp.constr !coeffs Lp.Eq (q p.rhs_block.(i).(k)) :: !rows
    done
  done;
  let lower = Array.make nv (Some Rat.zero) in
  let upper = Array.make nv None in
  let obj_coeffs = Array.make nv Rat.zero in
  for i = 0 to p.n - 1 do
    for j = 0 to p.t - 1 do
      lower.(var i j) <- Some (q p.lower.(i).(j));
      upper.(var i j) <- Some (q p.upper.(i).(j));
      obj_coeffs.(var i j) <- q p.weight.(i).(j)
    done
  done;
  let lp = Lp.problem ~lower ~upper ~nvars:nv ~objective:obj_coeffs (List.rev !rows) in
  Ccs_obs.Metrics.incr m_ilp_solves;
  Ccs_obs.Recorder.phase "nfold"
    ~fields:Ccs_obs.Jsonx.[ ("op", Str "solve_ilp"); ("nvars", Int nv); ("bricks", Int p.n) ]
  @@ fun () ->
  match Ilp.solve ?max_nodes ~feasibility (Ilp.all_integer lp) with
  | Ilp.Infeasible -> `Infeasible
  | Ilp.Node_limit -> `Node_limit
  | Ilp.Unbounded -> assert false (* finite bounds *)
  | Ilp.Optimal { solution; _ } ->
      let x =
        Array.init p.n (fun i ->
            Array.init p.t (fun j -> Bigint.to_int_exn (Rat.num solution.(var i j))))
      in
      `Solution (x, objective p x)

(* ------------------------------------------------------------------ *)
(* Augmentation (Graver-walk) solver. *)

(* Enumerate kernel candidates of one brick: vectors g with B g = 0,
   |g_j| <= norm and lo_j <= g_j <= hi_j (the residual move bounds). DFS over
   coordinates with a reachability prune on the partial row sums. *)
let brick_candidates ~bmat ~s ~t ~norm ~lo ~hi =
  (* Remaining max absolute contribution to each row from coordinates >= j. *)
  let tail = Array.make_matrix (t + 1) s 0 in
  for j = t - 1 downto 0 do
    for k = 0 to s - 1 do
      let move = max (abs lo.(j)) (abs hi.(j)) in
      tail.(j).(k) <- tail.(j + 1).(k) + (abs bmat.(k).(j) * min move norm)
    done
  done;
  let out = ref [] in
  let count = ref 0 in
  let g = Array.make t 0 in
  let partial = Array.make s 0 in
  let rec go j =
    Ccs_resil.Deadline.check chk_kernel;
    if j = t then begin
      if Array.for_all (fun v -> v = 0) partial then begin
        incr count;
        if !count > 500_000 then raise (Too_large "brick kernel enumeration");
        out := Array.copy g :: !out
      end
    end
    else begin
      let lo_j = max (-norm) lo.(j) and hi_j = min norm hi.(j) in
      for v = lo_j to hi_j do
        let ok = ref true in
        for k = 0 to s - 1 do
          partial.(k) <- partial.(k) + (bmat.(k).(j) * v);
          if abs partial.(k) > tail.(j + 1).(k) then ok := false
        done;
        g.(j) <- v;
        if !ok then go (j + 1);
        for k = 0 to s - 1 do
          partial.(k) <- partial.(k) - (bmat.(k).(j) * v)
        done
      done;
      g.(j) <- 0
    end
  in
  go 0;
  Ccs_obs.Metrics.add m_kernel !count;
  !out

module State = struct
  type t = int array

  let equal = ( = )
  let hash (a : int array) = Hashtbl.hash a
end

module StateTbl = Hashtbl.Make (State)

(* Best improving direction for step length lambda, or None.
   DP over bricks; state = running sum of A_i g_i; value = (cost, choices). *)
let best_step p x lambda ~max_norm ~state_bound =
  let zero_state = Array.make p.r 0 in
  let start = StateTbl.create 97 in
  StateTbl.replace start zero_state (0, []);
  let states = ref start in
  for i = 0 to p.n - 1 do
    (* Move bounds for this brick: lower <= x + lambda g <= upper. *)
    let lo =
      Array.init p.t (fun j ->
          (* smallest g_j with x + lambda*g_j >= lower: ceil((l - x)/lambda) *)
          let d = p.lower.(i).(j) - x.(i).(j) in
          if d <= 0 then -((-d) / lambda) else (d + lambda - 1) / lambda)
    in
    let hi =
      Array.init p.t (fun j ->
          let d = p.upper.(i).(j) - x.(i).(j) in
          if d >= 0 then d / lambda else -(((-d) + lambda - 1) / lambda))
    in
    let cands = brick_candidates ~bmat:p.b.(i) ~s:p.s ~t:p.t ~norm:max_norm ~lo ~hi in
    let next = StateTbl.create (StateTbl.length !states * 2) in
    StateTbl.iter
      (fun state (cost, choices) ->
        List.iter
          (fun g ->
            let cost' = ref cost in
            for j = 0 to p.t - 1 do
              cost' := !cost' + (p.weight.(i).(j) * g.(j))
            done;
            let state' = Array.copy state in
            let ok = ref true in
            for k = 0 to p.r - 1 do
              for j = 0 to p.t - 1 do
                state'.(k) <- state'.(k) + (p.a.(i).(k).(j) * g.(j))
              done;
              if abs state'.(k) > state_bound then ok := false
            done;
            if !ok then
              match StateTbl.find_opt next state' with
              | Some (c, _) when c <= !cost' -> ()
              | _ -> StateTbl.replace next state' (!cost', g :: choices))
          cands;
        if StateTbl.length next > 2_000_000 then raise (Too_large "augmentation state space"))
      !states;
    states := next
  done;
  match StateTbl.find_opt !states zero_state with
  | Some (cost, choices) when cost < 0 ->
      let g = Array.of_list (List.rev choices) in
      Some (cost, g)
  | _ -> None

let default_state_bound p max_norm =
  (* Any single Graver step's prefix sums are bounded by the total possible
     contribution of all bricks; cap generously but finitely. *)
  let d = delta p in
  max 1 (d * p.t * max_norm * p.n)

let optimize ?(max_norm = 2) p x0 =
  validate p;
  if not (check p x0) then invalid_arg "Nfold.optimize: infeasible start";
  let x = Array.map Array.copy x0 in
  let state_bound = default_state_bound p max_norm in
  (* Largest useful step length: the widest bound range. *)
  let max_lambda = ref 1 in
  for i = 0 to p.n - 1 do
    for j = 0 to p.t - 1 do
      max_lambda := max !max_lambda (p.upper.(i).(j) - p.lower.(i).(j))
    done
  done;
  Ccs_obs.Recorder.phase "nfold"
    ~fields:Ccs_obs.Jsonx.[ ("op", Str "optimize"); ("bricks", Int p.n); ("t", Int p.t) ]
  @@ fun () ->
  let improved = ref true in
  while !improved do
    Ccs_resil.Deadline.check chk_augment;
    improved := false;
    (* Graver-best step over powers of two for lambda. *)
    let best = ref None in
    let lambda = ref 1 in
    while !lambda <= !max_lambda do
      (match best_step p x !lambda ~max_norm ~state_bound with
      | Some (cost, g) ->
          let gain = cost * !lambda in
          (match !best with
          | Some (bg, _, _) when bg <= gain -> ()
          | _ -> best := Some (gain, !lambda, g))
      | None -> ());
      lambda := !lambda * 2
    done;
    match !best with
    | Some (_, lam, g) ->
        for i = 0 to p.n - 1 do
          for j = 0 to p.t - 1 do
            x.(i).(j) <- x.(i).(j) + (lam * g.(i).(j))
          done
        done;
        assert (check p x);
        Ccs_obs.Metrics.incr m_aug_steps;
        Ccs_obs.Metrics.observe h_lambda (float_of_int lam);
        improved := true
    | None -> ()
  done;
  x

(* Phase 1: auxiliary N-fold whose bricks carry slack columns that absorb the
   residual of the trivial point x = lower; minimizing the slacks to zero
   yields a feasible point of the original program. Every brick gets r + s
   extra columns (top-row slacks live in brick 0 only; the others have them
   frozen at zero) to keep a uniform brick size. *)
let find_feasible ?(max_norm = 2) p =
  validate p;
  Ccs_obs.Recorder.phase "nfold"
    ~fields:Ccs_obs.Jsonx.[ ("op", Str "find_feasible"); ("bricks", Int p.n) ]
  @@ fun () ->
  let t' = p.t + p.r + p.s in
  (* residuals at x = lower *)
  let top_res = Array.copy p.rhs_top in
  for k = 0 to p.r - 1 do
    for i = 0 to p.n - 1 do
      for j = 0 to p.t - 1 do
        top_res.(k) <- top_res.(k) - (p.a.(i).(k).(j) * p.lower.(i).(j))
      done
    done
  done;
  let block_res =
    Array.init p.n (fun i ->
        Array.init p.s (fun k ->
            let acc = ref p.rhs_block.(i).(k) in
            for j = 0 to p.t - 1 do
              acc := !acc - (p.b.(i).(k).(j) * p.lower.(i).(j))
            done;
            !acc))
  in
  let a' =
    Array.init p.n (fun i ->
        Array.init p.r (fun k ->
            Array.init t' (fun j ->
                if j < p.t then p.a.(i).(k).(j)
                else if i = 0 && j - p.t = k then if top_res.(k) >= 0 then 1 else -1
                else 0)))
  in
  let b' =
    Array.init p.n (fun i ->
        Array.init p.s (fun k ->
            Array.init t' (fun j ->
                if j < p.t then p.b.(i).(k).(j)
                else if j - p.t - p.r = k then if block_res.(i).(k) >= 0 then 1 else -1
                else 0)))
  in
  let lower' = Array.init p.n (fun i -> Array.init t' (fun j -> if j < p.t then p.lower.(i).(j) else 0)) in
  let upper' =
    Array.init p.n (fun i ->
        Array.init t' (fun j ->
            if j < p.t then p.upper.(i).(j)
            else if j < p.t + p.r then if i = 0 then abs top_res.(j - p.t) else 0
            else abs block_res.(i).(j - p.t - p.r)))
  in
  let weight' = Array.init p.n (fun _ -> Array.init t' (fun j -> if j < p.t then 0 else 1)) in
  let aux =
    {
      r = p.r;
      s = p.s;
      t = t';
      n = p.n;
      a = a';
      b = b';
      rhs_top = p.rhs_top;
      rhs_block = p.rhs_block;
      lower = lower';
      upper = upper';
      weight = weight';
    }
  in
  let x0 =
    Array.init p.n (fun i ->
        Array.init t' (fun j ->
            if j < p.t then p.lower.(i).(j)
            else if j < p.t + p.r then if i = 0 then abs top_res.(j - p.t) else 0
            else abs block_res.(i).(j - p.t - p.r)))
  in
  assert (check aux x0);
  let x = optimize ~max_norm aux x0 in
  if objective aux x = 0 then
    Some (Array.init p.n (fun i -> Array.init p.t (fun j -> x.(i).(j))))
  else None

let solve_augmentation ?(max_norm = 2) p =
  match find_feasible ~max_norm p with
  | None -> `Infeasible
  | Some x0 ->
      let x = optimize ~max_norm p x0 in
      `Solution (x, objective p x)
