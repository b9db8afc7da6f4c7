module Q = Rat

type stats = { t_accepted : Q.t; oracle_calls : int; ilp_vars : int; layers : int }

let guarantee (p : Common.param) t =
  let delta = Common.delta p in
  let tbar =
    Q.mul
      (Q.mul (Q.add Q.one (Q.mul (Q.of_int 3) delta)) (Q.add Q.one (Q.mul delta delta)))
      t
  in
  Q.add tbar (Q.add (Q.mul delta t) (Q.mul (Q.mul delta delta) t))

type gjob = { gsize : int; members : int list }

type gclass = { large_jobs : gjob list; small_job : gjob option }

(* Same Lemma 15 grouping as the non-preemptive case. *)
let group_class ~delta_t jobs =
  let is_small (_, p) = Q.(Q.of_int p < delta_t) in
  let smalls, bigs = List.partition is_small jobs in
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
  | None, [] -> assert false
  | None, large -> { large_jobs = large; small_job = None }
  | Some y, [] -> { large_jobs = []; small_job = Some y }
  | Some y, j :: rest ->
      { large_jobs = { gsize = j.gsize + y.gsize; members = j.members @ y.members } :: rest;
        small_job = None }

type rounded = {
  layer_q : Q.t;  (* delta^2*T, the layer height *)
  layers : int;  (* |L| *)
  tbar_u1 : int;  (* Tbar in units of delta^2*T/(c*d) *)
  cstar : int;
  gclasses : gclass array;
  (* (class id, grouped jobs with their layer demands k_j) *)
  large : (int * (gjob * int) list) list;
  smalls_by_size : (int * int list) list;  (* size in delta^2*T/c units *)
}

let round_instance (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let layer_q = Q.div t (Q.of_int (d * d)) in
  (* |L| = floor(Tbar / layer) + 1 with Tbar = (1+3delta)(1+delta^2)T *)
  let layers = ((d + 3) * (d * d + 1) / d) + 1 in
  let tbar_u1 = c * (d + 3) * ((d * d) + 1) in
  let delta_t = Q.div t (Q.of_int d) in
  let gclasses = Array.map (group_class ~delta_t) (Common.class_members inst) in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun u gc ->
      match gc.small_job with
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
              (fun gj ->
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

type layout = {
  nvars : int;
  x : int array;
  y : (int * int, int) Hashtbl.t;  (* (large idx, cardinality) -> var *)
  w : (int * int, int) Hashtbl.t;
  configs : int list array;
  hb_of_config : int array;
  hb_groups : (int * int) array;  (* (layers used, module count) *)
}

let build_layout rounded =
  let cards = List.init rounded.layers (fun i -> i + 1) in
  let configs =
    Common.multisets ~parts:cards ~max_sum:rounded.layers ~max_count:rounded.cstar ()
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
  List.iteri
    (fun li _ -> List.iter (fun k -> Hashtbl.replace y (li, k) (fresh ())) cards)
    rounded.large;
  let w = Hashtbl.create 64 in
  List.iter
    (fun (s, _) ->
      Array.iteri (fun hbi _ -> Hashtbl.replace w (s, hbi) (fresh ())) hb_groups)
    rounded.smalls_by_size;
  { nvars = !next; x; y; w; configs; hb_of_config; hb_groups }

(* Space accounting uses units u1 = delta^2*T/(c*d): a layer is c*d units, a
   small class of rounded size s (in delta^2*T/c units) is s*d units, and
   Tbar is the integer tbar_u1 = c*(d+3)*(d^2+1). *)
let build_rows (p : Common.param) inst rounded layout =
  let d = p.Common.d in
  let c = Instance.c inst in
  let m = Instance.m inst in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  push (Common.row_eq (Array.to_list (Array.map (fun v -> (v, 1)) layout.x)) m);
  (* (1) per cardinality: config slots = chosen modules *)
  List.iter
    (fun k ->
      let lhs = ref [] in
      Array.iteri
        (fun ki cfg ->
          let cnt = List.length (List.filter (( = ) k) cfg) in
          if cnt > 0 then lhs := (layout.x.(ki), cnt) :: !lhs)
        layout.configs;
      List.iteri (fun li _ -> lhs := (Hashtbl.find layout.y (li, k), -1) :: !lhs) rounded.large;
      push (Common.row_eq !lhs 0))
    (List.init rounded.layers (fun i -> i + 1));
  (* (2,3) small-class slots and space per (h,b) group *)
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
        List.map (fun (s, _) -> (Hashtbl.find layout.w (s, hbi), s * d)) rounded.smalls_by_size
        @ List.map (fun v -> (v, (h * c * d) - rounded.tbar_u1)) !xs
      in
      push (Common.row_le space_row 0))
    layout.hb_groups;
  (* (4) per large class: total layer demand covered by its modules *)
  List.iteri
    (fun li (_, jobs) ->
      let demand = List.fold_left (fun acc (_, k) -> acc + k) 0 jobs in
      let lhs =
        List.init rounded.layers (fun i -> (Hashtbl.find layout.y (li, i + 1), i + 1))
      in
      push (Common.row_eq lhs demand))
    rounded.large;
  (* (5) every small class assigned once *)
  List.iter
    (fun (s, cls) ->
      let lhs =
        Array.to_list
          (Array.mapi (fun hbi _ -> (Hashtbl.find layout.w (s, hbi), 1)) layout.hb_groups)
      in
      push (Common.row_eq lhs (List.length cls)))
    rounded.smalls_by_size;
  List.rev !rows

(* ---------------------------------------------------------------- *)
(* Realization: symmetric solution -> concrete layer sets -> flow-matched
   job pieces -> preemptive schedule. *)

let construct (p : Common.param) inst rounded layout sol =
  ignore p;
  let m = Instance.m inst in
  let nlayers = rounded.layers in
  let large = Array.of_list rounded.large in
  let nlarge = Array.length large in
  (* module supply per (class, cardinality) *)
  let supply = Array.make_matrix nlarge (nlayers + 1) 0 in
  for li = 0 to nlarge - 1 do
    for k = 1 to nlayers do
      supply.(li).(k) <- sol.(Hashtbl.find layout.y (li, k))
    done
  done;
  (* materialize machines *)
  let machines = ref [] in
  Array.iteri
    (fun ki cfg ->
      for _ = 1 to sol.(layout.x.(ki)) do
        machines := (ki, cfg) :: !machines
      done)
    layout.configs;
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
        failwith
          (Printf.sprintf "Preemptive_ptas: layer realization failed for class %d (%d/%d)"
             (fst large.(li)) v demand);
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
        (fun ji (gj, _) ->
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
  let group_machines = Array.make (Array.length layout.hb_groups) [] in
  Array.iteri
    (fun mi (ki, _) ->
      let g = layout.hb_of_config.(ki) in
      group_machines.(g) <- mi :: group_machines.(g))
    machines;
  (* free intervals per machine: unused layers, then open-ended tail *)
  let machine_used_layers = Array.make m [] in
  Array.iteri
    (fun mi modules ->
      machine_used_layers.(mi) <- List.concat_map snd modules)
    machine_modules;
  let place_small mi gj =
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
  let smalls_remaining = List.map (fun (s, cls) -> (s, ref cls)) rounded.smalls_by_size in
  Array.iteri
    (fun hbi _ ->
      let chosen = ref [] in
      List.iter
        (fun (s, remaining) ->
          let v = sol.(Hashtbl.find layout.w (s, hbi)) in
          for _ = 1 to v do
            match !remaining with
            | u :: rest ->
                remaining := rest;
                chosen := (s, u) :: !chosen
            | [] -> failwith "Preemptive_ptas: small class accounting mismatch"
          done)
        smalls_remaining;
      let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !chosen in
      if sorted <> [] then begin
        let arr = Array.of_list (List.rev group_machines.(hbi)) in
        let count = Array.length arr in
        if count = 0 then failwith "Preemptive_ptas: empty group with small classes";
        List.iteri
          (fun i (_, u) ->
            match rounded.gclasses.(u).small_job with
            | Some gj -> place_small arr.(i mod count) gj
            | None -> assert false)
          sorted
      end)
    layout.hb_groups;
  Array.map (fun r -> List.rev !r) sched

let oracle ?warm ?basis_out (p : Common.param) inst t =
  if Q.(Q.of_int (Instance.pmax inst) > t) then None
  else
    Ccs_obs.Recorder.phase "preemptive.oracle"
      ~fields:[ ("t", Ccs_obs.Jsonx.Str (Q.to_string t)) ]
    @@ fun () ->
    let rounded = Ccs_obs.Recorder.phase "ptas.round" (fun () -> round_instance p inst t) in
    let layout = Ccs_obs.Recorder.phase "ptas.layout" (fun () -> build_layout rounded) in
    Common.observe_rounding
      ~large:(List.length rounded.large)
      ~small_groups:(List.length rounded.smalls_by_size)
      ~configs:(Array.length layout.configs);
    let rows = build_rows p inst rounded layout in
    let upper = Array.make layout.nvars None in
    match Common.solve_int_feasibility ?warm ?basis_out ~nvars:layout.nvars ~upper rows with
    | None -> None
    | Some sol ->
        let sched =
          Ccs_obs.Recorder.phase "ptas.construct" (fun () -> construct p inst rounded layout sol)
        in
        (match Schedule.validate_preemptive inst sched with
        | Ok _ -> Some sched
        | Error e -> failwith ("Preemptive_ptas: constructed invalid schedule: " ^ e))

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
    let orc, calls =
      Common.warm_oracle (fun ~warm ~basis_out t -> oracle ?warm ~basis_out p inst t)
    in
    let lb = Bounds.lb_preemptive inst in
    (* the preemptive 2-approximation provides an achievable upper bound *)
    let approx_sched, _ = Approx.Preemptive.solve inst in
    let approx_mk = Schedule.preemptive_makespan approx_sched in
    let ub = Q.max lb approx_mk in
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
          "preemptive.solve: accepted");
    ( sched,
      {
        t_accepted;
        oracle_calls = !calls;
        ilp_vars = layout.nvars;
        layers = rounded.layers;
      } )

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
