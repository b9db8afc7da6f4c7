module Q = Rat

type stats = { t_accepted : Q.t; oracle_calls : int; ilp_vars : int }

let guarantee (p : Common.param) t =
  let delta = Common.delta p in
  Q.add
    (Q.mul
       (Q.mul (Q.add Q.one (Q.mul (Q.of_int 3) delta)) (Q.add Q.one (Q.mul (Q.of_int 2) delta)))
       t)
    (Q.mul delta t)

(* A grouped job: total (original, un-rounded) size and the original job ids
   it carries. In the non-preemptive case all of them go to one machine. *)
type gjob = { gsize : int; members : int list }

type gclass = {
  large_jobs : gjob list;  (* every size >= delta*T; empty for small classes *)
  small_job : gjob option;  (* single grouped job of size < delta*T *)
}

(* Lemma 12 grouping for one class at guess T. [delta_t] is delta*T. *)
let group_class ~delta_t jobs =
  (* jobs: (id, size); delta_t rational *)
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
  let leftover =
    if !cur_sz > 0 then Some { gsize = !cur_sz; members = !cur_ids } else None
  in
  let big_gjobs = List.map (fun (id, p) -> { gsize = p; members = [ id ] }) bigs in
  let all_large = big_gjobs @ !packets in
  match (leftover, all_large) with
  | None, [] -> assert false (* classes are non-empty *)
  | None, large -> { large_jobs = large; small_job = None }
  | Some y, [] -> { large_jobs = []; small_job = Some y }
  | Some y, j :: rest ->
      (* merge the leftover into an arbitrary other job of the class *)
      let merged = { gsize = j.gsize + y.gsize; members = j.members @ y.members } in
      { large_jobs = merged :: rest; small_job = None }

type rounded = {
  tbar : int;  (* in base units delta^2*T/c *)
  cstar : int;
  gclasses : gclass array;
  (* large classes: (gclass index, histogram of rounded sizes in base units,
     jobs bucketed per rounded size) *)
  large : (int * (int * int) list * (int, gjob list ref) Hashtbl.t) list;
  smalls_by_size : (int * int list) list;  (* rounded size -> gclass indices *)
}

let round_instance (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let unit_q = Q.div t (Q.of_int (c * d * d)) in
  let tbar = c * (d + 3) * (d + 2) in
  let delta_t = Q.div t (Q.of_int d) in
  let gclasses = Array.map (group_class ~delta_t) (Common.class_members inst) in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun gi gc ->
      match gc.small_job with
      | Some y ->
          let s = max 1 (Bigint.to_int_exn (Q.ceil (Q.div (Q.of_int y.gsize) unit_q))) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
          Hashtbl.replace smalls s (gi :: prev)
      | None ->
          let buckets : (int, gjob list ref) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun gj ->
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

type layout = {
  nvars : int;
  x : int array;
  (* y variables: (large index, module) -> var *)
  y : (int * int list, int) Hashtbl.t;
  modules : (int * int list) list;  (* (large index, module) in y order *)
  w : (int * int, int) Hashtbl.t;
  configs : int list array;
  hb_of_config : int array;
  hb_groups : (int * int) array;
  module_sizes : int list;  (* distinct Lambda(M) values, descending *)
}

let build_layout rounded =
  (* candidate modules per large class and the global size set *)
  let per_class_modules =
    List.mapi (fun li lc -> (li, class_modules rounded lc)) rounded.large
  in
  let sizes =
    List.concat_map (fun (_, ms) -> List.map (fun m -> List.fold_left ( + ) 0 m) ms)
      per_class_modules
    |> List.sort_uniq (fun a b -> compare b a)
  in
  let configs =
    Common.multisets ~parts:sizes ~max_sum:rounded.tbar ~max_count:rounded.cstar ()
  in
  let configs = Array.of_list configs in
  let hb_tbl = Hashtbl.create 16 in
  let hb_list = ref [] in
  let hb_of_config =
    Array.map
      (fun k ->
        let h = List.fold_left ( + ) 0 k and b = List.length k in
        match Hashtbl.find_opt hb_tbl (h, b) with
        | Some i -> i
        | None ->
            let i = Hashtbl.length hb_tbl in
            Hashtbl.replace hb_tbl (h, b) i;
            hb_list := (h, b) :: !hb_list;
            i)
      configs
  in
  let hb_groups = Array.of_list (List.rev !hb_list) in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let x = Array.init (Array.length configs) (fun _ -> fresh ()) in
  let y = Hashtbl.create 64 in
  let modules = ref [] in
  List.iter
    (fun (li, ms) ->
      List.iter
        (fun m ->
          Hashtbl.replace y (li, m) (fresh ());
          modules := (li, m) :: !modules)
        ms)
    per_class_modules;
  let w = Hashtbl.create 64 in
  List.iter
    (fun (s, _) ->
      Array.iteri (fun hbi _ -> Hashtbl.replace w (s, hbi) (fresh ())) hb_groups)
    rounded.smalls_by_size;
  {
    nvars = !next;
    x;
    y;
    modules = List.rev !modules;
    w;
    configs;
    hb_of_config;
    hb_groups;
    module_sizes = sizes;
  }

let build_rows inst rounded layout =
  let c = Instance.c inst in
  let m = Instance.m inst in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  push (Common.row_eq (Array.to_list (Array.map (fun v -> (v, 1)) layout.x)) m);
  (* (1) per module size q: config slots = chosen modules of that size *)
  List.iter
    (fun q ->
      let lhs = ref [] in
      Array.iteri
        (fun ki k ->
          let cnt = List.length (List.filter (( = ) q) k) in
          if cnt > 0 then lhs := (layout.x.(ki), cnt) :: !lhs)
        layout.configs;
      List.iter
        (fun (li, mdl) ->
          if List.fold_left ( + ) 0 mdl = q then
            lhs := (Hashtbl.find layout.y (li, mdl), -1) :: !lhs)
        layout.modules;
      push (Common.row_eq !lhs 0))
    layout.module_sizes;
  (* (2,3) small-class capacity per (h,b) *)
  Array.iteri
    (fun hbi (h, b) ->
      let xs = ref [] in
      Array.iteri
        (fun ki v -> if layout.hb_of_config.(ki) = hbi then xs := v :: !xs)
        layout.x;
      let slot_row =
        List.map (fun (s, _) -> (Hashtbl.find layout.w (s, hbi), 1)) rounded.smalls_by_size
        @ List.map (fun v -> (v, b - c)) !xs
      in
      push (Common.row_le slot_row 0);
      let space_row =
        List.map (fun (s, _) -> (Hashtbl.find layout.w (s, hbi), s)) rounded.smalls_by_size
        @ List.map (fun v -> (v, h - rounded.tbar)) !xs
      in
      push (Common.row_le space_row 0))
    layout.hb_groups;
  (* (4) per large class and size: exact cover of the job histogram *)
  List.iteri
    (fun li (_, hist, _) ->
      List.iter
        (fun (size, count) ->
          let lhs = ref [] in
          List.iter
            (fun (li', mdl) ->
              if li' = li then begin
                let cnt = List.length (List.filter (( = ) size) mdl) in
                if cnt > 0 then lhs := (Hashtbl.find layout.y (li, mdl), cnt) :: !lhs
              end)
            layout.modules;
          push (Common.row_eq !lhs count))
        hist)
    rounded.large;
  (* (5) per small size *)
  List.iter
    (fun (s, cls) ->
      let lhs =
        Array.to_list
          (Array.mapi (fun hbi _ -> (Hashtbl.find layout.w (s, hbi), 1)) layout.hb_groups)
      in
      push (Common.row_eq lhs (List.length cls)))
    rounded.smalls_by_size;
  List.rev !rows

let construct inst rounded layout sol =
  let n = Instance.n inst in
  (* module supply: per size, (large index, module, count) *)
  let supply = Hashtbl.create 16 in
  List.iter
    (fun (li, mdl) ->
      let v = sol.(Hashtbl.find layout.y (li, mdl)) in
      if v > 0 then begin
        let q = List.fold_left ( + ) 0 mdl in
        let prev = Option.value ~default:[] (Hashtbl.find_opt supply q) in
        Hashtbl.replace supply q ((li, mdl, ref v) :: prev)
      end)
    layout.modules;
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
      for _ = 1 to sol.(layout.x.(ki)) do
        machines := (ki, k) :: !machines
      done)
    layout.configs;
  let machines = Array.of_list !machines in
  let assignment = Array.make n (-1) in
  let large = Array.of_list rounded.large in
  (* job queues per (large class, rounded size) are the buckets *)
  let place_gjob machine gj = List.iter (fun id -> assignment.(id) <- machine) gj.members in
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
  let group_machines = Array.make (Array.length layout.hb_groups) [] in
  Array.iteri
    (fun mi (ki, _) ->
      let g = layout.hb_of_config.(ki) in
      group_machines.(g) <- mi :: group_machines.(g))
    machines;
  let smalls_remaining = List.map (fun (s, cls) -> (s, ref cls)) rounded.smalls_by_size in
  Array.iteri
    (fun hbi _ ->
      let chosen = ref [] in
      List.iter
        (fun (s, remaining) ->
          let v = sol.(Hashtbl.find layout.w (s, hbi)) in
          for _ = 1 to v do
            match !remaining with
            | gi :: rest ->
                remaining := rest;
                chosen := (s, gi) :: !chosen
            | [] -> failwith "Nonpreemptive_ptas: small class accounting mismatch"
          done)
        smalls_remaining;
      let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !chosen in
      if sorted <> [] then begin
        let arr = Array.of_list (List.rev group_machines.(hbi)) in
        let count = Array.length arr in
        if count = 0 then failwith "Nonpreemptive_ptas: empty group with small classes";
        List.iteri
          (fun i (_, gi) ->
            match rounded.gclasses.(gi).small_job with
            | Some gj -> place_gjob arr.(i mod count) gj
            | None -> assert false)
          sorted
      end)
    layout.hb_groups;
  Array.iteri
    (fun j mi -> if mi < 0 then failwith (Printf.sprintf "Nonpreemptive_ptas: job %d unplaced" j))
    assignment;
  assignment

let oracle ?warm ?basis_out (p : Common.param) inst t =
  if Q.(Q.of_int (Instance.pmax inst) > t) then None
  else
    Ccs_obs.Recorder.phase "nonpreemptive.oracle"
      ~fields:[ ("t", Ccs_obs.Jsonx.Str (Q.to_string t)) ]
    @@ fun () ->
    let rounded = Ccs_obs.Recorder.phase "ptas.round" (fun () -> round_instance p inst t) in
    let layout = Ccs_obs.Recorder.phase "ptas.layout" (fun () -> build_layout rounded) in
    Common.observe_rounding
      ~large:(List.length rounded.large)
      ~small_groups:(List.length rounded.smalls_by_size)
      ~configs:(Array.length layout.configs);
    let rows = build_rows inst rounded layout in
    let upper = Array.make layout.nvars None in
    match Common.solve_int_feasibility ?warm ?basis_out ~nvars:layout.nvars ~upper rows with
    | None -> None
    | Some sol ->
        let assignment =
          Ccs_obs.Recorder.phase "ptas.construct" (fun () -> construct inst rounded layout sol)
        in
        (match Schedule.validate_nonpreemptive inst assignment with
        | Ok _ -> Some assignment
        | Error e -> failwith ("Nonpreemptive_ptas: constructed invalid schedule: " ^ e))

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
    let orc, calls =
      Common.warm_oracle (fun ~warm ~basis_out t -> oracle ?warm ~basis_out p inst t)
    in
    let lb = Q.of_int (Bounds.lb_integral inst) in
    (* the 7/3 schedule's makespan is achievable, hence an accepted guess *)
    let approx_sched, _ = Approx.Nonpreemptive.solve inst in
    let ub = Q.max lb (Q.of_int (Schedule.nonpreemptive_makespan inst approx_sched)) in
    let sched, t_accepted =
      Common.geometric_search ?progress ~lb ~ub ~delta:(Common.delta p) ~oracle:orc ()
    in
    let rounded = round_instance p inst t_accepted in
    let layout = build_layout rounded in
    Ccs_obs.Log.info (fun log ->
        log
          ~fields:
            [ Ccs_obs.Log.str "t_accepted" (Q.to_string t_accepted);
              Ccs_obs.Log.int "oracle_calls" !calls;
              Ccs_obs.Log.int "ilp_vars" layout.nvars ]
          "nonpreemptive.solve: accepted");
    (sched, { t_accepted; oracle_calls = !calls; ilp_vars = layout.nvars })

type abstract = {
  a_tbar : int;
  a_cstar : int;
  a_large_hists : (int * int) list list;
  a_smalls : (int * int) list;
}

let abstract p inst t =
  let rounded = round_instance p inst t in
  {
    a_tbar = rounded.tbar;
    a_cstar = rounded.cstar;
    a_large_hists = List.map (fun (_, hist, _) -> hist) rounded.large;
    a_smalls = List.map (fun (s, cls) -> (s, List.length cls)) rounded.smalls_by_size;
  }

(* Anytime entry; see Splittable_ptas.solve_anytime. *)
let solve_anytime p inst =
  let prog = Common.progress () in
  match solve ~progress:prog p inst with
  | sched, stats ->
      { Common.result = Some (sched, stats.t_accepted);
        refuted = prog.Common.rejected;
        complete = true }
  | exception Ccs_resil.Deadline.Cancelled _ ->
      { Common.result = prog.Common.accepted;
        refuted = prog.Common.rejected;
        complete = false }
