module Q = Rat

type param = { d : int }

let param d =
  if d < 1 then invalid_arg "Ptas.Common.param: need 1/delta >= 1";
  { d }

let delta p = Q.of_ints 1 p.d

(* [max_int] is 2^62 - 1 and rounds up to 2^62 as a float, so every float
   below it converts exactly. *)
let param_of_epsilon eps =
  if Float.is_nan eps || eps <= 0. then None
  else
    let d = Float.ceil (1. /. eps) in
    if d >= Float.of_int max_int then None else Some { d = max 1 (int_of_float d) }

let class_members inst =
  let offsets, ids = Instance.class_jobs_csr inst in
  Array.init (Instance.num_classes inst) (fun u ->
      List.init (offsets.(u + 1) - offsets.(u)) (fun k ->
          let j = ids.(offsets.(u) + k) in
          (j, Instance.job_p inst j)))

type gjob = { gsize : int; members : int list }

type gclass = { large_jobs : gjob list; small_job : gjob option }

(* Lemma 12 grouping for one class at guess T. [delta_t] is delta*T. *)
let group_class ~delta_t jobs =
  let is_small (_, p) = Q.(Q.of_int p < delta_t) in
  let smalls, bigs = List.partition is_small jobs in
  (* bundle smalls into packets of size in [delta*T, 2 delta*T) *)
  let packets = ref [] in
  let cur_ids = ref [] and cur_sz = ref 0 in
  List.iter
    (fun (id, p) ->
      cur_ids := id :: !cur_ids;
      cur_sz := !cur_sz + p;
      if Q.(Q.of_int !cur_sz >= delta_t) then begin
        packets := { gsize = !cur_sz; members = !cur_ids } :: !packets;
        cur_ids := [];
        cur_sz := 0
      end)
    smalls;
  let leftover = if !cur_sz > 0 then Some { gsize = !cur_sz; members = !cur_ids } else None in
  let big_gjobs = List.map (fun (id, p) -> { gsize = p; members = [ id ] }) bigs in
  match (leftover, big_gjobs @ !packets) with
  | None, [] -> assert false (* classes are non-empty *)
  | None, large -> { large_jobs = large; small_job = None }
  | Some y, [] -> { large_jobs = []; small_job = Some y }
  | Some y, j :: rest ->
      (* merge the leftover into an arbitrary other job of the class *)
      { large_jobs = { gsize = j.gsize + y.gsize; members = j.members @ y.members } :: rest;
        small_job = None }

let group_classes ~delta_t inst = Array.map (group_class ~delta_t) (class_members inst)

let too_long inst t = Q.(Q.of_int (Instance.pmax inst) > t)

(* Cancellation checkpoints: configuration enumeration is the hot DFS,
   one guess probe of the dual-approximation search is the coarse site. *)
let chk_enum = Ccs_resil.Deadline.site ~hot:true "ptas.enum"
let chk_guess = Ccs_resil.Deadline.site "ptas.guess"

exception Too_many

let enum_limit = 200_000

let check_parts n = if n > enum_limit then raise Too_many

let units factors =
  List.fold_left
    (fun acc f ->
      if f < 1 then invalid_arg "Ptas.Common.units: need positive factors";
      if acc > max_int / f then raise Too_many;
      acc * f)
    1 factors

let bounded_multisets ?(limit = enum_limit) ~parts ~max_sum ~max_count () =
  let parts = Array.of_list (List.sort (fun (a, _) (b, _) -> compare b a) parts) in
  let out = ref [] in
  let count = ref 0 in
  (* DFS over the parts in descending order: [taken] copies of part [i]
     are in [current], which holds the multiset in ascending order. *)
  let rec go i taken current sum cnt =
    Ccs_resil.Deadline.check chk_enum;
    incr count;
    if !count > limit then raise Too_many;
    out := List.rev current :: !out;
    if i < Array.length parts then begin
      let v, mult = parts.(i) in
      if taken < mult && cnt < max_count && sum + v <= max_sum then
        go i (taken + 1) (v :: current) (sum + v) (cnt + 1);
      go (i + 1) 0 current sum cnt
    end
  in
  go 0 0 [] 0 0;
  (* dedupe: the DFS emits each prefix once per skipped part *)
  List.sort_uniq compare !out

let multisets ?limit ~parts ~max_sum ~max_count () =
  let parts = List.map (fun v -> (v, max_count)) (List.sort_uniq compare parts) in
  bounded_multisets ?limit ~parts ~max_sum ~max_count ()

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

let solve_int_feasibility ?(max_nodes = 50_000) ~nvars ~upper rows =
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
  match Ilp.solve ~max_nodes ~feasibility:true (Ilp.all_integer lp) with
  | Ilp.Optimal { solution; _ } ->
      Some (Array.map (fun v -> Bigint.to_int_exn (Q.num v)) solution)
  | Ilp.Infeasible -> None
  | Ilp.Node_limit -> raise Budget_exceeded
  | Ilp.Unbounded -> None

let hb_groups configs =
  let index = Hashtbl.create 16 and groups = ref [] in
  let of_config =
    Array.map
      (fun k ->
        let hb = (List.fold_left ( + ) 0 k, List.length k) in
        match Hashtbl.find_opt index hb with
        | Some g -> g
        | None ->
            let g = Hashtbl.length index in
            Hashtbl.replace index hb g;
            groups := hb :: !groups;
            g)
      configs
  in
  (of_config, Array.of_list (List.rev !groups))

type program = {
  nvars : int;
  rows : row list;
  configs : int list array;
  hb_of_config : int array;
  hb_groups : (int * int) array;
  n_modules : int;
  smalls : (int * int list) list;
}

(* w(s, g), the small classes of the [si]-th size sent to group [g] *)
let w_var p si g =
  Array.length p.configs + p.n_modules + (si * Array.length p.hb_groups) + g

let config_program ~machines ~slots ~tbar ~h_unit ~configs ~sizes ~modules ~smalls ~cover
    ?(extra = []) () =
  let nk = Array.length configs and modules = Array.of_list modules in
  let hb_of_config, hb_groups = hb_groups configs in
  let p =
    { nvars = nk + Array.length modules + (List.length smalls * Array.length hb_groups);
      rows = []; configs; hb_of_config; hb_groups; n_modules = Array.length modules; smalls }
  in
  let in_group = Array.make (Array.length hb_groups) [] in
  for ki = nk - 1 downto 0 do
    in_group.(hb_of_config.(ki)) <- ki :: in_group.(hb_of_config.(ki))
  done;
  (* (1) per module size: slots the configurations offer = modules chosen *)
  let module_row q =
    let lhs = ref [] in
    Array.iteri (fun i size -> if size = q then lhs := (nk + i, -1) :: !lhs) modules;
    Array.iteri
      (fun ki k ->
        let cnt = List.length (List.filter (( = ) q) k) in
        if cnt > 0 then lhs := (ki, cnt) :: !lhs)
      configs;
    row_eq !lhs 0
  in
  (* (2, 3) per (h, b) group: slots and space left for the small classes *)
  let group_rows g (h, b) =
    let ws coeff = List.mapi (fun si (s, _) -> (w_var p si g, coeff s)) smalls in
    let xs coeff = List.map (fun ki -> (ki, coeff)) in_group.(g) in
    [ row_le (ws (fun _ -> 1) @ xs (b - slots)) 0;
      row_le (ws Fun.id @ xs ((h * h_unit) - tbar)) 0 ]
  in
  let shift r = { r with coeffs = List.map (fun (i, a) -> (nk + i, a)) r.coeffs } in
  (* (5) every small class sent to exactly one group *)
  let small_row si (_, cls) =
    row_eq (List.init (Array.length hb_groups) (fun g -> (w_var p si g, 1))) (List.length cls)
  in
  let rows =
    (row_eq (List.init nk (fun ki -> (ki, 1))) machines :: List.map module_row sizes)
    @ List.concat (List.mapi group_rows (Array.to_list hb_groups))
    @ List.map shift cover
    @ List.mapi small_row smalls
    @ extra
  in
  { p with rows }

type witness = { x : int array; y : int array; small_classes : int list array }

let decode p sol =
  let remaining = List.map (fun (s, cls) -> (s, ref cls)) p.smalls in
  (* Array.init fills the groups in order, so each takes its classes from
     what the earlier groups left. *)
  let small_classes =
    Array.init (Array.length p.hb_groups) (fun g ->
        let chosen = ref [] in
        List.iteri
          (fun si (s, rest) ->
            for _ = 1 to sol.(w_var p si g) do
              match !rest with
              | u :: tl ->
                  rest := tl;
                  chosen := (s, u) :: !chosen
              | [] -> failwith "Ptas.Common: small class accounting mismatch"
            done)
          remaining;
        List.map snd (List.sort (fun (a, _) (b, _) -> compare b a) !chosen))
  in
  let nk = Array.length p.configs in
  { x = Array.sub sol 0 nk; y = Array.sub sol nk p.n_modules; small_classes }

let solve_program p =
  Option.map (decode p)
    (solve_int_feasibility ~nvars:p.nvars ~upper:(Array.make p.nvars None) p.rows)

type rung = Rung of int | Paper

exception Unrealizable of string

(* Smallest budget first: (1+k delta)T for k = 1, 2, 4, ... below the
   paper's budget, then the paper's. Doubling holds a rejected guess to a
   handful of ILPs; a lower rung's configurations are a subset of the
   paper's, so Too_many and cancellation propagate from any rung. *)
let budget_ladder (p : param) ~paper t attempt =
  let try_rung rung budget =
    let answer =
      match attempt rung with
      | answer -> answer
      | exception (Budget_exceeded | Unrealizable _) when rung <> Paper -> None
      | exception Unrealizable msg -> failwith msg
    in
    if Ccs_obs.Recorder.active () then
      Ccs_obs.Recorder.emit "ptas.rung"
        Ccs_obs.Jsonx.
          [ ("t", Str (Q.to_string t)); ("budget", Str (Q.to_string budget));
            ("paper", Bool (rung = Paper)); ("accepted", Bool (answer <> None)) ];
    answer
  in
  let rec climb k =
    let budget = Q.add Q.one (Q.of_ints k p.d) in
    if Q.(budget >= paper) then try_rung Paper paper
    else
      match try_rung (Rung k) budget with
      | Some _ as found -> found
      | None -> climb (2 * k)
  in
  climb 1

type 'a progress = {
  mutable accepted : ('a * Q.t) option;
  mutable rejected : Q.t option;
}

let progress () = { accepted = None; rejected = None }

let geometric_search ?progress:prog ~lb ~ub ~delta ~oracle () =
  if Q.(ub < lb) then invalid_arg "geometric_search: ub < lb";
  Ccs_obs.Recorder.phase "ptas.binary_search"
    ~fields:Ccs_obs.Jsonx.[ ("lb", Str (Q.to_string lb)); ("ub", Str (Q.to_string ub)) ]
  @@ fun () ->
  let oracle t =
    Ccs_resil.Deadline.check chk_guess;
    Ccs_obs.Metrics.incr m_guesses;
    let answer = oracle t in
    if Ccs_obs.Recorder.active () then
      Ccs_obs.Recorder.emit "ptas.guess"
        Ccs_obs.Jsonx.[ ("t", Str (Q.to_string t)); ("accepted", Bool (answer <> None)) ];
    answer
  in
  let step = Q.add Q.one delta in
  let record_reject t =
    match prog with
    | None -> ()
    | Some p -> (
        match p.rejected with
        | Some r when Q.(r >= t) -> ()
        | _ -> p.rejected <- Some t)
  in
  let accept w t =
    (match prog with None -> () | Some p -> p.accepted <- Some (w, t));
    (w, t)
  in
  (* The LB first: an accepted LB ends the search after one probe. *)
  match oracle lb with
  | Some w -> accept w lb
  | None -> (
      record_reject lb;
      (* The grid is built only now: at a fine delta its exact powers grow
         long, and an accepted LB never needs them. [imax] is the index of
         the first point >= ub. *)
      let rec grid_size i t =
        Ccs_resil.Deadline.check chk_guess;
        if Q.(t >= ub) then i else grid_size (i + 1) (Q.mul t step)
      in
      let imax = grid_size 0 lb in
      let point i =
        let rec go acc k = if k = 0 then acc else go (Q.mul acc step) (k - 1) in
        Q.min ub (go lb i)
      in
      (* bisection for the smallest accepted grid index in [1, imax]; imax
         is taken as accepted until a probe there says otherwise *)
      let best = ref None in
      let lo = ref 1 and hi = ref imax in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let t = point mid in
        match oracle t with
        | Some w ->
            best := Some (accept w t);
            hi := mid
        | None ->
            record_reject t;
            lo := mid + 1
      done;
      match !best with
      | Some found -> found
      | None -> (
          (* every point below imax was rejected: ub is the fallback witness *)
          match if imax = 0 then None else oracle ub with
          | Some w -> accept w ub
          | None -> failwith "geometric_search: oracle rejected the upper bound"))
