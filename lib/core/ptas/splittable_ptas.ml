module Q = Rat

type stats = {
  t_accepted : Q.t;
  oracle_calls : int;
  compressed : bool;
  ilp_vars : int;
}

(* All sizes below live in "base units" of delta^2*T/c, so every quantity in
   the ILP is an integer: the budget Tbar is c*d*(d+k) at rung k, and the
   paper's (1+4delta)T is rung 4; modules have size l*c for l in
   [d, d(d+k)], small classes have sizes in [1, c*d]. *)

type rounded = {
  unit_q : Q.t;  (* delta^2*T/c as a rational *)
  tbar : int;  (* Tbar in base units *)
  module_sizes : int list;  (* descending, base units *)
  large : (int * int) list;  (* (class, rounded size in base units) *)
  smalls_by_size : (int * int list) list;  (* (rounded size, class ids) *)
}

let paper_budget p = Q.add Q.one (Q.mul (Q.of_int 4) (Common.delta p))

(* Above this many machines the Theorem 11 path bounds the non-trivial
   configurations and emits the full ones as blocks. *)
let explicit_limit = 4096

let round_instance ~rung (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let k = match rung with Common.Rung k -> k | Common.Paper -> 4 in
  let tbar = Common.units [ c; d; d + k ] in
  let lmax = tbar / c in
  Common.check_parts (lmax - d + 1);
  let unit_q = Q.div t (Q.of_int (c * d * d)) in
  let delta_t = Q.div t (Q.of_int d) in
  let loads = Instance.class_load inst in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun u pu ->
      let pu_q = Q.of_int pu in
      if Q.(pu_q > delta_t) then begin
        (* multiples of delta^2*T = c base units *)
        let k = Bigint.to_int_exn (Q.ceil (Q.div pu_q (Q.mul unit_q (Q.of_int c)))) in
        large := (u, k * c) :: !large
      end
      else begin
        let s = Bigint.to_int_exn (Q.ceil (Q.div pu_q unit_q)) in
        let s = max 1 s in
        let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
        Hashtbl.replace smalls s (u :: prev)
      end)
    loads;
  let module_sizes = List.init (lmax - d + 1) (fun i -> (lmax - i) * c) in
  {
    unit_q;
    tbar;
    module_sizes;
    large = List.rev !large;
    smalls_by_size = Hashtbl.fold (fun s cls acc -> (s, cls) :: acc) smalls [];
  }

(* Configurations: multisets of module sizes, total <= tbar, count <= c* =
   min(Tbar/(delta T), c), as each module is at least delta*T. *)
let configurations (p : Common.param) inst rounded =
  let c = Instance.c inst in
  let cstar = min (rounded.tbar / (c * p.Common.d)) c in
  Common.multisets ~parts:rounded.module_sizes ~max_sum:rounded.tbar ~max_count:cstar ()

(* The configuration ILP: one module variable per large class and module
   size, class by class, and one cover row (4) per large class. *)
let program inst rounded configs =
  let sizes = rounded.module_sizes in
  let nq = List.length sizes in
  let cover =
    List.mapi
      (fun li (_, size) -> Common.row_eq (List.mapi (fun qi q -> ((li * nq) + qi, q)) sizes) size)
      rounded.large
  in
  (* Theorem 11: bound the non-trivial configurations *)
  let extra =
    if Instance.m inst <= explicit_limit then []
    else
      let qmax = List.hd sizes and nclasses = Instance.num_classes inst in
      let lhs = ref [] in
      Array.iteri (fun ki k -> if k <> [] && k <> [ qmax ] then lhs := (ki, 1) :: !lhs) configs;
      if !lhs = [] then [] else [ Common.row_le !lhs ((nclasses * (nclasses - 1) / 2) + nclasses) ]
  in
  Common.config_program ~machines:(Instance.m inst) ~slots:(Instance.c inst) ~tbar:rounded.tbar
    ~h_unit:1 ~configs ~sizes
    ~modules:(List.concat_map (fun _ -> sizes) rounded.large)
    ~smalls:rounded.smalls_by_size ~cover ~extra ()

(* ---------------------------------------------------------------- *)
(* Schedule construction from an ILP witness. *)

(* Assignment of large-class modules to the module slots of the materialized
   machines: any class with remaining modules of the right size will do. *)
let pop_module supply q =
  match Hashtbl.find_opt supply q with
  | Some ((li, cnt) :: rest) ->
      if cnt = 1 then Hashtbl.replace supply q rest
      else Hashtbl.replace supply q ((li, cnt - 1) :: rest);
      li
  | _ -> failwith "Splittable_ptas: module supply exhausted (ILP inconsistency)"

let construct inst rounded (prog : Common.program) (w : Common.witness) =
  let m = Instance.m inst in
  let large = Array.of_list rounded.large in
  let qmax = List.hd rounded.module_sizes in
  let nq = List.length rounded.module_sizes in
  (* module supply per size from the y variables *)
  let supply = Hashtbl.create 16 in
  List.iteri
    (fun qi q ->
      let entries = ref [] in
      Array.iteri
        (fun li _ ->
          let v = w.y.((li * nq) + qi) in
          if v > 0 then entries := (li, v) :: !entries)
        large;
      Hashtbl.replace supply q !entries)
    rounded.module_sizes;
  (* Split configurations into the materialized ones and (for the compressed
     path) the trivial full configuration handled as blocks. *)
  let full_config_count = ref 0 in
  let explicit_cfgs = ref [] in
  Array.iteri
    (fun ki k ->
      let count = w.x.(ki) in
      if count > 0 && k <> [] then
        if k = [ qmax ] && count > explicit_limit then full_config_count := count
        else
          for _ = 1 to count do
            explicit_cfgs := (ki, k) :: !explicit_cfgs
          done)
    prog.configs;
  let explicit_cfgs = Array.of_list !explicit_cfgs in
  if Array.length explicit_cfgs > explicit_limit then
    failwith "Splittable_ptas: explicit machine bound exceeded";
  (* machine numbering: explicit machines first, then the full blocks, then
     empty machines *)
  let n_explicit = Array.length explicit_cfgs in
  (* rounded class loads per explicit machine *)
  let machine_loads = Array.make n_explicit [] in
  Array.iteri
    (fun mi (_, k) ->
      List.iter (fun q -> machine_loads.(mi) <- (pop_module supply q, q) :: machine_loads.(mi)) k)
    explicit_cfgs;
  (* leftover full modules become per-class blocks *)
  let block_specs = ref [] in
  (* (large idx, machine count) *)
  let cursor = ref n_explicit in
  (match Hashtbl.find_opt supply qmax with
  | Some entries ->
      List.iter
        (fun (li, cnt) ->
          block_specs := (li, !cursor, cnt) :: !block_specs;
          cursor := !cursor + cnt)
        entries;
      Hashtbl.replace supply qmax []
  | None -> ());
  let used_full = List.fold_left (fun acc (_, _, cnt) -> acc + cnt) 0 !block_specs in
  if used_full <> !full_config_count then
    failwith "Splittable_ptas: full-block accounting mismatch";
  (* any other leftover supply is an ILP inconsistency *)
  Hashtbl.iter
    (fun _ entries -> if entries <> [] then failwith "Splittable_ptas: unplaced modules")
    supply;
  (* ---- small classes: round robin inside each (h,b) machine group ---- *)
  (* group -> machines (explicit ids; the full-block range forms one group) *)
  let group_machines = Array.make (Array.length prog.hb_groups) [] in
  Array.iteri
    (fun mi (ki, _) ->
      let g = prog.hb_of_config.(ki) in
      group_machines.(g) <- mi :: group_machines.(g))
    explicit_cfgs;
  let full_group =
    if !full_config_count > 0 then begin
      (* locate the (qmax, 1) group *)
      let g = ref (-1) in
      Array.iteri (fun i (h, b) -> if h = qmax && b = 1 then g := i) prog.hb_groups;
      !g
    end
    else -1
  in
  (* empty machines form the (0,0) group *)
  let empty_group =
    let g = ref (-1) in
    Array.iteri (fun i (h, b) -> if h = 0 && b = 0 then g := i) prog.hb_groups;
    !g
  in
  let empty_start = !cursor in
  let small_extra : (int, (int * Q.t) list) Hashtbl.t = Hashtbl.create 16 in
  let add_small machine cls load =
    let prev = Option.value ~default:[] (Hashtbl.find_opt small_extra machine) in
    Hashtbl.replace small_extra machine ((cls, load) :: prev)
  in
  Array.iteri
    (fun hbi sorted ->
      if sorted <> [] then begin
        let machines =
          if hbi = full_group && !full_config_count > 0 then
            `Range (n_explicit, !full_config_count)
          else if hbi = empty_group then `Range (empty_start, m - empty_start)
          else `List (Array.of_list (List.rev group_machines.(hbi)))
        in
        List.iteri
          (fun i cls ->
            let load = Q.of_int (Instance.class_load inst).(cls) in
            match machines with
            | `Range (start, count) ->
                if count = 0 then failwith "Splittable_ptas: empty group with small classes";
                add_small (start + (i mod count)) cls load
            | `List arr ->
                let count = Array.length arr in
                if count = 0 then failwith "Splittable_ptas: empty group with small classes";
                add_small arr.(i mod count) cls load)
          sorted
      end)
    w.small_classes;
  (* ---- shrink rounded large loads back to the original sizes ---- *)
  let class_load = Instance.class_load inst in
  let remaining = Array.map (fun (u, _) -> Q.of_int class_load.(u)) large in
  let explicit_loads = Array.make n_explicit [] in
  Array.iteri
    (fun mi modules ->
      List.iter
        (fun (li, q) ->
          let cap = Q.mul (Q.of_int q) rounded.unit_q in
          let take = Q.min cap remaining.(li) in
          if Q.sign take > 0 then begin
            remaining.(li) <- Q.sub remaining.(li) take;
            let u = fst large.(li) in
            explicit_loads.(mi) <- (u, take) :: explicit_loads.(mi)
          end)
        (List.rev modules))
      machine_loads;
  (* blocks: uniform per-machine loads of one class; the final partial
     machine becomes an explicit entry *)
  let blocks = ref [] in
  List.iter
    (fun (li, start, cnt) ->
      let u = fst large.(li) in
      let cap = Q.mul (Q.of_int qmax) rounded.unit_q in
      let rem = remaining.(li) in
      let full = Bigint.to_int_exn (Q.floor (Q.div rem cap)) in
      let full = min full cnt in
      if full > 0 then
        blocks := { Schedule.cls = u; m_start = start; m_count = full; per_machine = cap } :: !blocks;
      let leftover = Q.sub rem (Q.mul (Q.of_int full) cap) in
      remaining.(li) <- Q.zero;
      if Q.sign leftover > 0 then begin
        if full >= cnt then failwith "Splittable_ptas: block overflow";
        add_small (start + full) u leftover
      end)
    !block_specs;
  Array.iteri
    (fun li r ->
      if Q.sign r > 0 then failwith (Printf.sprintf "Splittable_ptas: class %d under-placed" (fst large.(li))))
    remaining;
  (* ---- assemble ---- *)
  let explicit_tbl : (int, (int * Q.t) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun mi loads -> if loads <> [] then Hashtbl.replace explicit_tbl mi loads)
    explicit_loads;
  Hashtbl.iter
    (fun machine loads ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt explicit_tbl machine) in
      Hashtbl.replace explicit_tbl machine (loads @ prev))
    small_extra;
  (* merge duplicate classes per machine *)
  let explicit_machines =
    Hashtbl.fold
      (fun machine loads acc ->
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun (u, l) ->
            Hashtbl.replace tbl u (Q.add l (Option.value ~default:Q.zero (Hashtbl.find_opt tbl u))))
          loads;
        let merged = Hashtbl.fold (fun u l acc -> if Q.sign l > 0 then (u, l) :: acc else acc) tbl [] in
        if merged = [] then acc else (machine, merged) :: acc)
      explicit_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { Schedule.blocks = List.rev !blocks; explicit_machines }

(* ---------------------------------------------------------------- *)

let oracle_at rung (p : Common.param) inst t =
  let rounded, configs =
    Ccs_obs.Recorder.phase "ptas.round" (fun () ->
        let rounded = round_instance ~rung p inst t in
        (rounded, Array.of_list (configurations p inst rounded)))
  in
  let prog = Ccs_obs.Recorder.phase "ptas.layout" (fun () -> program inst rounded configs) in
  Common.observe_rounding
    ~large:(List.length rounded.large)
    ~small_groups:(List.length rounded.smalls_by_size)
    ~configs:(Array.length configs);
  match Common.solve_program prog with
  | None -> None
  | Some w ->
      let sched =
        Ccs_obs.Recorder.phase "ptas.construct" (fun () -> construct inst rounded prog w)
      in
      (match Schedule.validate_splittable inst sched with
      | Ok _ -> Some (sched, prog.nvars)
      | Error e -> failwith ("Splittable_ptas: constructed invalid schedule: " ^ e))

let oracle p inst t =
  Ccs_obs.Recorder.phase "splittable.oracle" ~fields:[ ("t", Ccs_obs.Jsonx.Str (Q.to_string t)) ]
  @@ fun () ->
  Common.budget_ladder p ~paper:(paper_budget p) t (fun rung -> oracle_at rung p inst t)

let solve ?progress p inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Splittable_ptas.solve: C > c*m, no schedule exists";
  Ccs_obs.Recorder.phase "ptas"
    ~fields:
      Ccs_obs.Jsonx.
        [ ("variant", Str "splittable"); ("n", Int (Instance.n inst));
          ("m", Int (Instance.m inst)); ("c", Int (Instance.c inst)); ("d", Int p.Common.d) ]
  @@ fun () ->
  let calls = ref 0 in
  let orc t =
    incr calls;
    oracle p inst t
  in
  let lb = Bounds.lb_splittable inst in
  let ub = Q.max lb (Bounds.ub_splittable inst) in
  let (sched, ilp_vars), t_accepted =
    Common.geometric_search ?progress ~lb ~ub ~delta:(Common.delta p) ~oracle:orc ()
  in
  ( sched,
    {
      t_accepted;
      oracle_calls = !calls;
      compressed = Instance.m inst > explicit_limit;
      ilp_vars;
    } )
