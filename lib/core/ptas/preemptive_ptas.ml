module Q = Rat

type stats = { t_accepted : Q.t; oracle_calls : int; ilp_vars : int; layers : int }

let paper_budget (p : Common.param) =
  let delta = Common.delta p in
  Q.mul (Q.add Q.one (Q.mul (Q.of_int 3) delta)) (Q.add Q.one (Q.mul delta delta))

let guarantee p t =
  let delta = Common.delta p in
  Q.add (Q.mul (paper_budget p) t) (Q.add (Q.mul delta t) (Q.mul (Q.mul delta delta) t))

type rounded = {
  layer_q : Q.t;  (* delta^2*T, the layer height *)
  layers : int;  (* |L| *)
  tbar_u1 : int;  (* Tbar in units of delta^2*T/(c*d) *)
  cstar : int;
  gclasses : Common.gclass array;
  (* (class id, grouped jobs with their layer demands k_j) *)
  large : (int * (Common.gjob * int) list) list;
  smalls_by_size : (int * int list) list;  (* size in delta^2*T/c units *)
}

(* Tbar in units of delta^2*T/(c*d): c*d^2*(d+k) at rung k, and
   c*(d+3)*(d^2+1) at the paper's (1+3delta)(1+delta^2)T. *)
let round_instance ~rung (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let tbar_u1 =
    match rung with
    | Common.Rung k -> Common.units [ c; d; d; d + k ]
    | Common.Paper -> Common.units [ c; d + 3; Common.units [ d; d ] + 1 ]
  in
  (* |L| = floor(Tbar / layer) + 1, a layer being c*d units *)
  let layers = (tbar_u1 / (c * d)) + 1 in
  Common.check_parts layers;
  let layer_q = Q.div t (Q.of_int (d * d)) in
  let delta_t = Q.div t (Q.of_int d) in
  let gclasses = Common.group_classes ~delta_t inst in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun u gc ->
      match gc.Common.small_job with
      | Some y ->
          let s =
            max 1
              (Bigint.to_int_exn
                 (Q.ceil (Q.div (Q.of_int y.gsize) (Q.div layer_q (Q.of_int c)))))
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
          Hashtbl.replace smalls s (u :: prev)
      | None ->
          let jobs =
            List.map
              (fun (gj : Common.gjob) ->
                let k = Bigint.to_int_exn (Q.ceil (Q.div (Q.of_int gj.gsize) layer_q)) in
                (gj, k))
              gc.large_jobs
          in
          large := (u, jobs) :: !large)
    gclasses;
  {
    layer_q;
    layers;
    tbar_u1;
    cstar = min (Instance.c inst) layers;
    gclasses;
    large = List.rev !large;
    smalls_by_size = Hashtbl.fold (fun s cls acc -> (s, cls) :: acc) smalls [];
  }

(* The configuration ILP over module cardinalities: a module variable per
   large class and cardinality k = 1..|L|, class by class, whose cover row
   (4) asks for the class's total layer demand. Space is counted in units
   of delta^2*T/(c*d): a layer is c*d units, a small class of rounded size
   s (in delta^2*T/c units) is s*d units, and Tbar is tbar_u1. *)
let program (p : Common.param) inst rounded =
  let d = p.Common.d and c = Instance.c inst in
  let cards = List.init rounded.layers (fun i -> i + 1) in
  let configs =
    Common.multisets ~parts:cards ~max_sum:rounded.layers ~max_count:rounded.cstar ()
  in
  let cover =
    List.mapi
      (fun li (_, jobs) ->
        let demand = List.fold_left (fun acc (_, k) -> acc + k) 0 jobs in
        Common.row_eq (List.map (fun k -> ((li * rounded.layers) + k - 1, k)) cards) demand)
      rounded.large
  in
  Common.config_program ~machines:(Instance.m inst) ~slots:c ~tbar:rounded.tbar_u1
    ~h_unit:(c * d) ~configs:(Array.of_list configs) ~sizes:cards
    ~modules:(List.concat_map (fun _ -> cards) rounded.large)
    ~smalls:(List.map (fun (s, cls) -> (s * d, cls)) rounded.smalls_by_size)
    ~cover ()

(* ---------------------------------------------------------------- *)
(* Realization: symmetric solution -> concrete layer sets -> flow-matched
   job pieces -> preemptive schedule. *)

let construct inst rounded (prog : Common.program) (w : Common.witness) =
  let m = Instance.m inst in
  let nlayers = rounded.layers in
  let large = Array.of_list rounded.large in
  let nlarge = Array.length large in
  (* module supply per (class, cardinality) *)
  let supply = Array.make_matrix nlarge (nlayers + 1) 0 in
  for li = 0 to nlarge - 1 do
    for k = 1 to nlayers do
      supply.(li).(k) <- w.y.((li * nlayers) + k - 1)
    done
  done;
  (* materialize machines *)
  let machines = ref [] in
  Array.iteri
    (fun ki cfg ->
      for _ = 1 to w.x.(ki) do
        machines := (ki, cfg) :: !machines
      done)
    prog.configs;
  let machines = Array.of_list !machines in
  if Array.length machines <> m then failwith "Preemptive_ptas: machine count mismatch";
  (* assign modules (class, cardinality) to machines and choose layer sets
     greedily, balancing each class's per-layer slot supply *)
  let slot_count = Array.make_matrix nlarge nlayers 0 in
  (* per machine: list of (class, layer list) *)
  let machine_modules = Array.make (Array.length machines) [] in
  Array.iteri
    (fun mi (_, cfg) ->
      let used = Array.make nlayers false in
      (* larger modules first: they have the least freedom *)
      let cfg = List.sort (fun a b -> compare b a) cfg in
      List.iter
        (fun k ->
          (* pick any class with remaining modules of cardinality k *)
          let li = ref (-1) in
          for cand = 0 to nlarge - 1 do
            if !li < 0 && supply.(cand).(k) > 0 then li := cand
          done;
          if !li < 0 then failwith "Preemptive_ptas: module supply exhausted";
          supply.(!li).(k) <- supply.(!li).(k) - 1;
          (* choose the k unused layers with the smallest current supply *)
          let candidates =
            List.init nlayers Fun.id
            |> List.filter (fun l -> not used.(l))
            |> List.sort (fun a b ->
                   compare (slot_count.(!li).(a), a) (slot_count.(!li).(b), b))
          in
          let chosen = List.filteri (fun i _ -> i < k) candidates in
          if List.length chosen < k then failwith "Preemptive_ptas: not enough layers";
          List.iter
            (fun l ->
              used.(l) <- true;
              slot_count.(!li).(l) <- slot_count.(!li).(l) + 1)
            chosen;
          machine_modules.(mi) <- (!li, chosen) :: machine_modules.(mi))
        cfg)
    machines;
  (* flow per class: grouped jobs (capacity k_j) -> layers (1 per job) ->
     sink (slot_count); integral max flow = total demand or the realization
     failed (Theorem 18 / Lemma 16 machinery) *)
  let piece_assignment = Array.make nlarge [||] in
  (* piece_assignment.(li).(layer) = gjob queue assigned to that layer *)
  Array.iteri
    (fun li (_, jobs) ->
      let jobs = Array.of_list jobs in
      let njobs = Array.length jobs in
      let demand = Array.fold_left (fun acc (_, k) -> acc + k) 0 jobs in
      let source = njobs + nlayers and sink = njobs + nlayers + 1 in
      let g = Flow.create (njobs + nlayers + 2) in
      Array.iteri
        (fun ji (_, k) -> ignore (Flow.add_edge g ~src:source ~dst:ji ~cap:k))
        jobs;
      let edge_ids = Array.make_matrix njobs nlayers (-1) in
      for ji = 0 to njobs - 1 do
        for l = 0 to nlayers - 1 do
          if slot_count.(li).(l) > 0 then
            edge_ids.(ji).(l) <- Flow.add_edge g ~src:ji ~dst:(njobs + l) ~cap:1
        done
      done;
      for l = 0 to nlayers - 1 do
        if slot_count.(li).(l) > 0 then
          ignore (Flow.add_edge g ~src:(njobs + l) ~dst:sink ~cap:slot_count.(li).(l))
      done;
      let v = Flow.max_flow g ~source ~sink in
      if v <> demand then
        raise
          (Common.Unrealizable
             (Printf.sprintf "Preemptive_ptas: layer realization failed for class %d (%d/%d)"
                (fst large.(li)) v demand));
      let per_layer = Array.make nlayers [] in
      for ji = 0 to njobs - 1 do
        for l = 0 to nlayers - 1 do
          if edge_ids.(ji).(l) >= 0 && Flow.flow_on g edge_ids.(ji).(l) = 1 then
            per_layer.(l) <- ji :: per_layer.(l)
        done
      done;
      piece_assignment.(li) <- per_layer)
    large;
  (* distribute the (class, layer) jobs onto the machine slots; collect per
     grouped job its (machine, layer) slots *)
  let gjob_slots : (int * int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  (* key (li, ji) *)
  let cursor = Array.make_matrix nlarge nlayers [] in
  for li = 0 to nlarge - 1 do
    if Array.length piece_assignment.(li) > 0 then
      for l = 0 to nlayers - 1 do
        cursor.(li).(l) <- piece_assignment.(li).(l)
      done
  done;
  Array.iteri
    (fun mi modules ->
      List.iter
        (fun (li, layers_chosen) ->
          List.iter
            (fun l ->
              match cursor.(li).(l) with
              | ji :: rest ->
                  cursor.(li).(l) <- rest;
                  let key = (li, ji) in
                  let r =
                    match Hashtbl.find_opt gjob_slots key with
                    | Some r -> r
                    | None ->
                        let r = ref [] in
                        Hashtbl.replace gjob_slots key r;
                        r
                  in
                  r := (mi, l) :: !r
              | [] -> failwith "Preemptive_ptas: slot/piece mismatch")
            layers_chosen)
        modules)
    machine_modules;
  (* build the schedule: fill each grouped job's members sequentially into
     its slots ordered by layer *)
  let sched : Schedule.ppiece list ref array = Array.init m (fun _ -> ref []) in
  let layer_q = rounded.layer_q in
  Array.iteri
    (fun li (_, jobs) ->
      let jobs_arr = Array.of_list jobs in
      Array.iteri
        (fun ji ((gj : Common.gjob), _) ->
          let slots =
            match Hashtbl.find_opt gjob_slots (li, ji) with
            | Some r -> List.sort (fun (_, a) (_, b) -> compare a b) !r
            | None -> []
          in
          let members = ref (List.map (fun id -> (id, Q.of_int (Instance.job_p inst id)))
                               (List.sort compare gj.members)) in
          List.iter
            (fun (mi, l) ->
              let base = Q.mul (Q.of_int l) layer_q in
              let room = ref layer_q in
              let offset = ref Q.zero in
              let continue_fill = ref true in
              while !continue_fill && Q.sign !room > 0 do
                match !members with
                | [] -> continue_fill := false
                | (id, remaining) :: rest ->
                    let take = Q.min remaining !room in
                    sched.(mi) :=
                      { Schedule.pjob = id; start = Q.add base !offset; len = take }
                      :: !(sched.(mi));
                    offset := Q.add !offset take;
                    room := Q.sub !room take;
                    let rem' = Q.sub remaining take in
                    if Q.sign rem' = 0 then members := rest
                    else members := (id, rem') :: rest
              done)
            slots;
          if !members <> [] then failwith "Preemptive_ptas: grouped job did not fit its slots")
        jobs_arr)
    large;
  (* small classes: round robin within (h,b) groups, filling time gaps *)
  let group_machines = Array.make (Array.length prog.hb_groups) [] in
  Array.iteri
    (fun mi (ki, _) ->
      let g = prog.hb_of_config.(ki) in
      group_machines.(g) <- mi :: group_machines.(g))
    machines;
  (* free intervals per machine: unused layers, then open-ended tail *)
  let machine_used_layers = Array.make m [] in
  Array.iteri
    (fun mi modules ->
      machine_used_layers.(mi) <- List.concat_map snd modules)
    machine_modules;
  let place_small mi (gj : Common.gjob) =
    let used = Array.make nlayers false in
    List.iter (fun l -> used.(l) <- true) machine_used_layers.(mi);
    (* also account for smalls already placed on this machine: track via a
       per-machine cursor list of free intervals consumed so far *)
    let members = ref (List.map (fun id -> (id, Q.of_int (Instance.job_p inst id)))
                         (List.sort compare gj.members)) in
    (* existing small pieces on this machine beyond the layer grid *)
    let existing = !(sched.(mi)) in
    (* compute free intervals: within layers not used by large modules and
       not already holding small pieces; simplest correct approach: collect
       all occupied intervals and scan. *)
    let occupied =
      List.map (fun pc -> (pc.Schedule.start, Q.add pc.Schedule.start pc.Schedule.len)) existing
      |> List.sort (fun (a, _) (b, _) -> Q.compare a b)
    in
    (* merge into a simple cursor walk: we fill from time 0 upward, skipping
       occupied intervals and layers used by large modules *)
    let layer_busy l = used.(l) in
    let rec next_free t =
      (* skip any occupied interval or busy layer containing t *)
      let in_layer = Q.floor (Q.div t layer_q) in
      let li = Bigint.to_int_exn in_layer in
      if li < nlayers && layer_busy li then
        next_free (Q.mul (Q.of_int (li + 1)) layer_q)
      else
        match
          List.find_opt (fun (s, e) -> Q.(s <= t) && Q.(t < e)) occupied
        with
        | Some (_, e) -> next_free e
        | None -> t
    in
    let cursor = ref (next_free Q.zero) in
    while !members <> [] do
      let t = !cursor in
      (* available room until the next obstacle *)
      let li = Bigint.to_int_exn (Q.floor (Q.div t layer_q)) in
      let layer_end =
        if li < nlayers then Q.mul (Q.of_int (li + 1)) layer_q
        else Q.add t (Q.of_int (Instance.total_load inst))
      in
      let next_occ =
        List.fold_left
          (fun acc (s, _) -> if Q.(s > t) then Q.min acc s else acc)
          layer_end occupied
      in
      let room = Q.sub next_occ t in
      if Q.sign room <= 0 then cursor := next_free (Q.add t layer_q)
      else begin
        match !members with
        | [] -> ()
        | (id, remaining) :: rest ->
            let take = Q.min remaining room in
            sched.(mi) := { Schedule.pjob = id; start = t; len = take } :: !(sched.(mi));
            let rem' = Q.sub remaining take in
            if Q.sign rem' = 0 then members := rest else members := (id, rem') :: rest;
            cursor := next_free (Q.add t take)
      end
    done
  in
  Array.iteri
    (fun hbi sorted ->
      if sorted <> [] then begin
        let arr = Array.of_list (List.rev group_machines.(hbi)) in
        let count = Array.length arr in
        if count = 0 then failwith "Preemptive_ptas: empty group with small classes";
        List.iteri
          (fun i u ->
            match rounded.gclasses.(u).small_job with
            | Some gj -> place_small arr.(i mod count) gj
            | None -> assert false)
          sorted
      end)
    w.small_classes;
  Array.map (fun r -> List.rev !r) sched

let attempt rung p inst t =
  let rounded = Ccs_obs.Recorder.phase "ptas.round" (fun () -> round_instance ~rung p inst t) in
  let prog = Ccs_obs.Recorder.phase "ptas.layout" (fun () -> program p inst rounded) in
  Common.observe_rounding
    ~large:(List.length rounded.large)
    ~small_groups:(List.length rounded.smalls_by_size)
    ~configs:(Array.length prog.configs);
  match Common.solve_program prog with
  | None -> None
  | Some w ->
      let sched =
        Ccs_obs.Recorder.phase "ptas.construct" (fun () -> construct inst rounded prog w)
      in
      (match Schedule.validate_preemptive inst sched with
      | Ok _ -> Some (sched, prog.nvars, rounded.layers)
      | Error e -> failwith ("Preemptive_ptas: constructed invalid schedule: " ^ e))

let oracle_at rung p inst t = if Common.too_long inst t then None else attempt rung p inst t

let oracle p inst t =
  if Common.too_long inst t then None
  else
    Ccs_obs.Recorder.phase "preemptive.oracle"
      ~fields:[ ("t", Ccs_obs.Jsonx.Str (Q.to_string t)) ]
    @@ fun () ->
    Common.budget_ladder p ~paper:(paper_budget p) t (fun rung -> attempt rung p inst t)

let solve ?progress p inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Preemptive_ptas.solve: C > c*m, no schedule exists";
  let n = Instance.n inst in
  if Instance.m inst >= n then
    (* one job per machine is an optimal preemptive schedule *)
    ( Array.init n (fun j ->
          [ { Schedule.pjob = j; start = Q.zero; len = Q.of_int (Instance.job_p inst j) } ]),
      { t_accepted = Q.of_int (Instance.pmax inst); oracle_calls = 0; ilp_vars = 0; layers = 0 } )
  else
    Ccs_obs.Recorder.phase "ptas"
      ~fields:
        Ccs_obs.Jsonx.
          [ ("variant", Str "preemptive"); ("n", Int n); ("m", Int (Instance.m inst));
            ("c", Int (Instance.c inst)); ("d", Int p.Common.d) ]
    @@ fun () ->
    let calls = ref 0 in
    let orc t =
      incr calls;
      oracle p inst t
    in
    let lb = Bounds.lb_preemptive inst in
    (* the preemptive 2-approximation provides an achievable upper bound *)
    let approx_sched, _ = Approx.Preemptive.solve inst in
    let approx_mk = Schedule.preemptive_makespan approx_sched in
    let ub = Q.max lb approx_mk in
    let (sched, ilp_vars, layers), t_accepted =
      Common.geometric_search ?progress ~lb ~ub ~delta:(Common.delta p) ~oracle:orc ()
    in
    (sched, { t_accepted; oracle_calls = !calls; ilp_vars; layers })
