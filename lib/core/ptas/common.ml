module Q = Rat

type param = { d : int }

let param d =
  if d < 1 then invalid_arg "Ptas.Common.param: need 1/delta >= 1";
  { d }

let delta p = Q.of_ints 1 p.d

let class_members inst =
  let offsets, ids = Instance.class_jobs_csr inst in
  Array.init (Instance.num_classes inst) (fun u ->
      List.init (offsets.(u + 1) - offsets.(u)) (fun k ->
          let j = ids.(offsets.(u) + k) in
          (j, Instance.job_p inst j)))

(* Cancellation checkpoints: configuration enumeration is the hot DFS,
   one guess probe of the dual-approximation search is the coarse site. *)
let chk_enum = Ccs_resil.Deadline.site ~hot:true "ptas.enum"
let chk_guess = Ccs_resil.Deadline.site "ptas.guess"

exception Too_many

let multisets ?(limit = 200_000) ~parts ~max_sum ~max_count () =
  let parts = List.sort_uniq (fun a b -> compare b a) parts in
  let out = ref [] in
  let count = ref 0 in
  (* DFS over parts in descending order; [current] is built descending. *)
  let rec go parts current sum cnt =
    Ccs_resil.Deadline.check chk_enum;
    incr count;
    if !count > limit then raise Too_many;
    out := List.rev current :: !out;
    match parts with
    | [] -> ()
    | v :: rest ->
        if cnt < max_count && sum + v <= max_sum then
          go parts (v :: current) (sum + v) (cnt + 1);
        go rest current sum cnt
  in
  go parts [] 0 0;
  (* dedupe: the DFS emits each prefix once per skipped part *)
  List.sort_uniq compare !out

let bounded_multisets ?(limit = 200_000) ~parts ~max_sum ~max_count () =
  let parts = List.sort (fun (a, _) (b, _) -> compare b a) parts in
  let out = ref [] in
  let count = ref 0 in
  let rec go parts current sum cnt =
    Ccs_resil.Deadline.check chk_enum;
    incr count;
    if !count > limit then raise Too_many;
    out := List.rev current :: !out;
    match parts with
    | [] -> ()
    | (v, mult) :: rest ->
        if mult > 0 && cnt < max_count && sum + v <= max_sum then
          go ((v, mult - 1) :: rest) (v :: current) (sum + v) (cnt + 1);
        go rest current sum cnt
  in
  ignore (go parts [] 0 0);
  List.sort_uniq compare !out

exception Budget_exceeded

let m_guesses = Ccs_obs.Metrics.counter "ptas.guesses"
let m_ilp_calls = Ccs_obs.Metrics.counter "ptas.ilp_calls"
let h_ilp_vars = Ccs_obs.Metrics.histogram "ptas.ilp_vars"
let h_large = Ccs_obs.Metrics.histogram "ptas.large_classes"
let h_small_groups = Ccs_obs.Metrics.histogram "ptas.small_size_groups"
let h_configs = Ccs_obs.Metrics.histogram "ptas.configs"

let observe_rounding ~large ~small_groups ~configs =
  Ccs_obs.Metrics.observe h_large (float_of_int large);
  Ccs_obs.Metrics.observe h_small_groups (float_of_int small_groups);
  Ccs_obs.Metrics.observe h_configs (float_of_int configs)

type row = { coeffs : (int * int) list; cmp : Lp.cmp; rhs : int }

let row_eq coeffs rhs = { coeffs; cmp = Lp.Eq; rhs }
let row_le coeffs rhs = { coeffs; cmp = Lp.Le; rhs }
let row_ge coeffs rhs = { coeffs; cmp = Lp.Ge; rhs }

let solve_int_feasibility ?(max_nodes = 50_000) ?warm ?basis_out ~nvars ~upper rows =
  let to_q = Q.of_int in
  (* Rows go over unmerged: the LP model merges duplicate variable indices
     itself, with exact sums, once per ILP. *)
  let constraints =
    List.map
      (fun r ->
        Lp.constr (List.map (fun (j, v) -> (j, to_q v)) r.coeffs) r.cmp (to_q r.rhs))
      rows
  in
  let upper_q = Array.map (Option.map to_q) upper in
  let lp =
    Lp.problem ~upper:upper_q ~nvars ~objective:(Array.make nvars Q.zero) constraints
  in
  Ccs_obs.Metrics.incr m_ilp_calls;
  Ccs_obs.Metrics.observe h_ilp_vars (float_of_int nvars);
  Ccs_obs.Recorder.phase "ptas.ilp"
    ~fields:Ccs_obs.Jsonx.[ ("nvars", Int nvars); ("rows", Int (List.length constraints)) ]
  @@ fun () ->
  match Ilp.solve ~max_nodes ~feasibility:true ?warm ?basis_out (Ilp.all_integer lp) with
  | Ilp.Optimal { solution; _ } ->
      Some (Array.map (fun v -> Bigint.to_int_exn (Q.num v)) solution)
  | Ilp.Infeasible -> None
  | Ilp.Node_limit -> raise Budget_exceeded
  | Ilp.Unbounded -> None

let warm_oracle oracle =
  let calls = ref 0 and warm = ref None in
  let orc t =
    incr calls;
    let basis_out = ref None in
    let r = oracle ~warm:!warm ~basis_out t in
    if Option.is_none !warm then warm := !basis_out;
    r
  in
  (orc, calls)

type 'a progress = {
  mutable accepted : ('a * Q.t) option;
  mutable rejected : Q.t option;
}

let progress () = { accepted = None; rejected = None }

type 'a anytime = {
  result : ('a * Q.t) option;
  refuted : Q.t option;
  complete : bool;
}

let geometric_search ?progress:prog ~lb ~ub ~delta ~oracle () =
  if Q.(ub < lb) then invalid_arg "geometric_search: ub < lb";
  Ccs_obs.Recorder.phase "ptas.binary_search"
    ~fields:Ccs_obs.Jsonx.[ ("lb", Str (Q.to_string lb)); ("ub", Str (Q.to_string ub)) ]
  @@ fun () ->
  let oracle t =
    Ccs_resil.Deadline.check chk_guess;
    Ccs_obs.Metrics.incr m_guesses;
    let answer = oracle t in
    Ccs_obs.Log.debug (fun log ->
        log
          ~fields:
            [ Ccs_obs.Log.str "t" (Q.to_string t);
              Ccs_obs.Log.bool "accepted" (answer <> None) ]
          "ptas.guess");
    answer
  in
  let step = Q.add Q.one delta in
  (* grid index of the first point >= ub *)
  let rec grid_size i t = if Q.(t >= ub) then i else grid_size (i + 1) (Q.mul t step) in
  let imax = grid_size 0 lb in
  let point i =
    let rec go acc k = if k = 0 then acc else go (Q.mul acc step) (k - 1) in
    Q.min ub (go lb i)
  in
  let record_accept w t =
    match prog with None -> () | Some p -> p.accepted <- Some (w, t)
  in
  let record_reject t =
    match prog with
    | None -> ()
    | Some p -> (
        match p.rejected with
        | Some r when Q.(r >= t) -> ()
        | _ -> p.rejected <- Some t)
  in
  match oracle (point imax) with
  | None -> failwith "geometric_search: oracle rejected the upper bound"
  | Some witness_ub ->
      record_accept witness_ub (point imax);
      let best = ref (witness_ub, point imax) in
      (* bisection for the smallest accepted grid index in [lo, hi] *)
      let lo = ref 0 and hi = ref imax in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let t = point mid in
        match oracle t with
        | Some w ->
            best := (w, t);
            record_accept w t;
            hi := mid
        | None ->
            record_reject t;
            lo := mid + 1
      done;
      !best
