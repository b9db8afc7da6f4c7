module Q = Rat

type stats = { t_accepted : Q.t; oracle_calls : int; ilp_vars : int }

let paper_budget (p : Common.param) =
  let delta = Common.delta p in
  Q.mul (Q.add Q.one (Q.mul (Q.of_int 3) delta)) (Q.add Q.one (Q.mul (Q.of_int 2) delta))

let guarantee p t = Q.add (Q.mul (paper_budget p) t) (Q.mul (Common.delta p) t)

type rounded = {
  tbar : int;  (* in base units delta^2*T/c *)
  cstar : int;
  gclasses : Common.gclass array;
  (* large classes: (gclass index, histogram of rounded sizes in base units,
     jobs bucketed per rounded size) *)
  large : (int * (int * int) list * (int, Common.gjob list ref) Hashtbl.t) list;
  smalls_by_size : (int * int list) list;  (* rounded size -> gclass indices *)
}

(* Tbar in base units: c*d*(d+k) at rung k, c*(d+3)*(d+2) at the
   paper's. *)
let round_instance ~rung (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let tbar =
    match rung with
    | Common.Rung k -> Common.units [ c; d; d + k ]
    | Common.Paper -> Common.units [ c; d + 3; d + 2 ]
  in
  let unit_q = Q.div t (Q.of_int (c * d * d)) in
  let delta_t = Q.div t (Q.of_int d) in
  let gclasses = Common.group_classes ~delta_t inst in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun gi gc ->
      match gc.Common.small_job with
      | Some y ->
          let s = max 1 (Bigint.to_int_exn (Q.ceil (Q.div (Q.of_int y.gsize) unit_q))) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
          Hashtbl.replace smalls s (gi :: prev)
      | None ->
          let buckets : (int, Common.gjob list ref) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (gj : Common.gjob) ->
              (* multiples of delta^2*T = c base units *)
              let k =
                Bigint.to_int_exn
                  (Q.ceil (Q.div (Q.of_int gj.gsize) (Q.mul unit_q (Q.of_int c))))
              in
              let size = k * c in
              match Hashtbl.find_opt buckets size with
              | Some r -> r := gj :: !r
              | None -> Hashtbl.replace buckets size (ref [ gj ]))
            gc.large_jobs;
          let hist =
            Hashtbl.fold (fun size r acc -> (size, List.length !r) :: acc) buckets []
            |> List.sort compare
          in
          large := (gi, hist, buckets) :: !large)
    gclasses;
  {
    tbar;
    cstar = min (tbar / (d * c)) (Instance.c inst);
    gclasses;
    large = List.rev !large;
    smalls_by_size = Hashtbl.fold (fun s cls acc -> (s, cls) :: acc) smalls [];
  }

(* Candidate modules of one class: non-empty sub-multisets of its histogram
   with sum <= tbar. Returned as sorted-descending size lists. *)
let class_modules rounded (_, hist, _) =
  Common.bounded_multisets ~parts:hist ~max_sum:rounded.tbar ~max_count:max_int ()
  |> List.filter (( <> ) [])

(* The configuration ILP. Its module variables are the large classes'
   candidate modules, class by class; modules of equal total size share a
   row (1). Returns them with the program. *)
let program inst rounded =
  let modules =
    List.mapi (fun li lc -> List.map (fun m -> (li, m)) (class_modules rounded lc)) rounded.large
    |> List.concat
  in
  let msize = List.fold_left ( + ) 0 in
  let sizes = List.sort_uniq (fun a b -> compare b a) (List.map (fun (_, m) -> msize m) modules) in
  let configs =
    Common.multisets ~parts:sizes ~max_sum:rounded.tbar ~max_count:rounded.cstar ()
  in
  (* (4) per large class and rounded size: exactly its jobs of that size *)
  let cover_row li (size, count) =
    let lhs = ref [] in
    List.iteri
      (fun i (li', mdl) ->
        let cnt = List.length (List.filter (( = ) size) mdl) in
        if li' = li && cnt > 0 then lhs := (i, cnt) :: !lhs)
      modules;
    Common.row_eq !lhs count
  in
  let cover =
    List.concat (List.mapi (fun li (_, hist, _) -> List.map (cover_row li) hist) rounded.large)
  in
  ( Array.of_list modules,
    Common.config_program ~machines:(Instance.m inst) ~slots:(Instance.c inst)
      ~tbar:rounded.tbar ~h_unit:1 ~configs:(Array.of_list configs) ~sizes
      ~modules:(List.map (fun (_, m) -> msize m) modules)
      ~smalls:rounded.smalls_by_size ~cover () )

let construct inst rounded modules (prog : Common.program) (w : Common.witness) =
  let n = Instance.n inst in
  (* module supply: per size, (large index, module, count) *)
  let supply = Hashtbl.create 16 in
  Array.iteri
    (fun i (li, mdl) ->
      let v = w.y.(i) in
      if v > 0 then begin
        let q = List.fold_left ( + ) 0 mdl in
        let prev = Option.value ~default:[] (Hashtbl.find_opt supply q) in
        Hashtbl.replace supply q ((li, mdl, ref v) :: prev)
      end)
    modules;
  let pop_module q =
    match Hashtbl.find_opt supply q with
    | Some entries -> (
        match List.find_opt (fun (_, _, r) -> !r > 0) entries with
        | Some (li, mdl, r) ->
            decr r;
            (li, mdl)
        | None -> failwith "Nonpreemptive_ptas: module supply exhausted")
    | None -> failwith "Nonpreemptive_ptas: no module of requested size"
  in
  (* materialize machines *)
  let machines = ref [] in
  Array.iteri
    (fun ki k ->
      for _ = 1 to w.x.(ki) do
        machines := (ki, k) :: !machines
      done)
    prog.configs;
  let machines = Array.of_list !machines in
  let assignment = Array.make n (-1) in
  let large = Array.of_list rounded.large in
  (* job queues per (large class, rounded size) are the buckets *)
  let place_gjob machine (gj : Common.gjob) =
    List.iter (fun id -> assignment.(id) <- machine) gj.members
  in
  Array.iteri
    (fun mi (_, k) ->
      List.iter
        (fun q ->
          let li, mdl = pop_module q in
          let _, _, buckets = large.(li) in
          List.iter
            (fun size ->
              match Hashtbl.find_opt buckets size with
              | Some ({ contents = gj :: rest } as r) ->
                  r := rest;
                  place_gjob mi gj
              | _ -> failwith "Nonpreemptive_ptas: job bucket exhausted")
            mdl)
        k)
    machines;
  (* all large jobs must be placed *)
  Array.iter
    (fun (_, _, buckets) ->
      Hashtbl.iter
        (fun _ r -> if !r <> [] then failwith "Nonpreemptive_ptas: unplaced large jobs")
        buckets)
    large;
  (* small classes by round robin within (h,b) groups *)
  let group_machines = Array.make (Array.length prog.hb_groups) [] in
  Array.iteri
    (fun mi (ki, _) ->
      let g = prog.hb_of_config.(ki) in
      group_machines.(g) <- mi :: group_machines.(g))
    machines;
  Array.iteri
    (fun hbi sorted ->
      if sorted <> [] then begin
        let arr = Array.of_list (List.rev group_machines.(hbi)) in
        let count = Array.length arr in
        if count = 0 then failwith "Nonpreemptive_ptas: empty group with small classes";
        List.iteri
          (fun i gi ->
            match rounded.gclasses.(gi).small_job with
            | Some gj -> place_gjob arr.(i mod count) gj
            | None -> assert false)
          sorted
      end)
    w.small_classes;
  Array.iteri
    (fun j mi -> if mi < 0 then failwith (Printf.sprintf "Nonpreemptive_ptas: job %d unplaced" j))
    assignment;
  assignment

let attempt rung p inst t =
  let rounded = Ccs_obs.Recorder.phase "ptas.round" (fun () -> round_instance ~rung p inst t) in
  let modules, prog = Ccs_obs.Recorder.phase "ptas.layout" (fun () -> program inst rounded) in
  Common.observe_rounding
    ~large:(List.length rounded.large)
    ~small_groups:(List.length rounded.smalls_by_size)
    ~configs:(Array.length prog.configs);
  match Common.solve_program prog with
  | None -> None
  | Some w ->
      let assignment =
        Ccs_obs.Recorder.phase "ptas.construct" (fun () -> construct inst rounded modules prog w)
      in
      (match Schedule.validate_nonpreemptive inst assignment with
      | Ok _ -> Some (assignment, prog.nvars)
      | Error e -> failwith ("Nonpreemptive_ptas: constructed invalid schedule: " ^ e))

let oracle_at rung p inst t = if Common.too_long inst t then None else attempt rung p inst t

let oracle p inst t =
  if Common.too_long inst t then None
  else
    Ccs_obs.Recorder.phase "nonpreemptive.oracle"
      ~fields:[ ("t", Ccs_obs.Jsonx.Str (Q.to_string t)) ]
    @@ fun () ->
    Common.budget_ladder p ~paper:(paper_budget p) t (fun rung -> attempt rung p inst t)

let solve ?progress p inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Nonpreemptive_ptas.solve: C > c*m, no schedule exists";
  let n = Instance.n inst in
  if Instance.m inst >= n then
    (* one job per machine: optimal with makespan pmax *)
    ( Array.init n (fun j -> j),
      { t_accepted = Q.of_int (Instance.pmax inst); oracle_calls = 0; ilp_vars = 0 } )
  else
    Ccs_obs.Recorder.phase "ptas"
      ~fields:
        Ccs_obs.Jsonx.
          [ ("variant", Str "nonpreemptive"); ("n", Int n); ("m", Int (Instance.m inst));
            ("c", Int (Instance.c inst)); ("d", Int p.Common.d) ]
    @@ fun () ->
    let calls = ref 0 in
    let orc t =
      incr calls;
      oracle p inst t
    in
    let lb = Q.of_int (Bounds.lb_integral inst) in
    (* the 7/3 schedule's makespan is achievable, hence an accepted guess *)
    let approx_sched, _ = Approx.Nonpreemptive.solve inst in
    let ub = Q.max lb (Q.of_int (Schedule.nonpreemptive_makespan inst approx_sched)) in
    let (sched, ilp_vars), t_accepted =
      Common.geometric_search ?progress ~lb ~ub ~delta:(Common.delta p) ~oracle:orc ()
    in
    (sched, { t_accepted; oracle_calls = !calls; ilp_vars })

type abstract = {
  a_tbar : int;
  a_cstar : int;
  a_large_hists : (int * int) list list;
  a_smalls : (int * int) list;
}

let abstract p inst t =
  let rounded = round_instance ~rung:Common.Paper p inst t in
  {
    a_tbar = rounded.tbar;
    a_cstar = rounded.cstar;
    a_large_hists = List.map (fun (_, hist, _) -> hist) rounded.large;
    a_smalls = List.map (fun (s, cls) -> (s, List.length cls)) rounded.smalls_by_size;
  }
