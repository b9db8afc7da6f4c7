module Q = Rat
module Sp = Splittable_ptas

type built = { program : Nfold.t; n_configs : int; n_modules : int; n_hb : int }

(* Brick layout for class u:
   [0 .. nk-1]                 x^u_K
   [nk .. nk+nm-1]             y^u_q
   [nk+nm .. nk+nm+nhb-1]      z^u_{h,b}
   [.. +nhb-1]                 slack for the (2) slot rows
   [.. +nhb-1]                 slack for the (3) space rows *)
let build_splittable p inst t =
  let rounded = Sp.round_instance ~rung:Common.Paper p inst t in
  let configs = Array.of_list (Sp.configurations p inst rounded) in
  let nk = Array.length configs in
  let module_sizes = Array.of_list rounded.Sp.module_sizes in
  let nm = Array.length module_sizes in
  let hb_of_config, hb = Common.hb_groups configs in
  let nhb = Array.length hb in
  let brick_t = nk + nm + nhb + nhb + nhb in
  let x_off = 0 and y_off = nk and z_off = nk + nm in
  let slack_slot_off = nk + nm + nhb and slack_space_off = nk + nm + (2 * nhb) in
  let c = Instance.c inst in
  let m = Instance.m inst in
  let tbar = rounded.Sp.tbar in
  (* classes: large ones carry (size, xi=0); small carry (size, xi=1) *)
  let class_info =
    List.map (fun (u, size) -> (u, size, 0)) rounded.Sp.large
    @ List.concat_map
        (fun (s, cls) -> List.map (fun u -> (u, s, 1)) cls)
        rounded.Sp.smalls_by_size
  in
  let class_info = Array.of_list class_info in
  let nclasses = Array.length class_info in
  let r = 1 + nm + (2 * nhb) in
  (* globally uniform block for class u *)
  let a_block (_, size, _xi) =
    let a = Array.make_matrix r brick_t 0 in
    (* row 0: machine count *)
    for ki = 0 to nk - 1 do
      a.(0).(x_off + ki) <- 1
    done;
    (* rows 1..nm: module covering *)
    Array.iteri
      (fun qi q ->
        Array.iteri
          (fun ki k ->
            let cnt = List.length (List.filter (( = ) q) k) in
            if cnt > 0 then a.(1 + qi).(x_off + ki) <- cnt)
          configs;
        a.(1 + qi).(y_off + qi) <- -1)
      module_sizes;
    (* rows for (2) and (3), with slack making them equalities *)
    Array.iteri
      (fun hbi (h, b) ->
        let row2 = 1 + nm + hbi and row3 = 1 + nm + nhb + hbi in
        a.(row2).(z_off + hbi) <- 1;
        a.(row3).(z_off + hbi) <- size;
        Array.iteri
          (fun ki _ ->
            if hb_of_config.(ki) = hbi then begin
              a.(row2).(x_off + ki) <- a.(row2).(x_off + ki) + (b - c);
              a.(row3).(x_off + ki) <- a.(row3).(x_off + ki) + (h - tbar)
            end)
          configs;
        a.(row2).(slack_slot_off + hbi) <- 1;
        a.(row3).(slack_space_off + hbi) <- 1)
      hb;
    a
  in
  (* locally uniform rows: (4) module sizes cover the class; (5) small
     classes choose one (h,b) *)
  let b_block _ =
    let bm = Array.make_matrix 2 brick_t 0 in
    Array.iteri (fun qi q -> bm.(0).(y_off + qi) <- q) module_sizes;
    for hbi = 0 to nhb - 1 do
      bm.(1).(z_off + hbi) <- 1
    done;
    bm
  in
  let big_slack = (c + tbar) * max 1 (min m max_int) in
  let big_slack = if big_slack <= 0 then max_int / 2 else big_slack in
  let lower = Array.init nclasses (fun _ -> Array.make brick_t 0) in
  let upper =
    Array.init nclasses (fun ci ->
        let _, size, xi = class_info.(ci) in
        Array.init brick_t (fun j ->
            if j < nk then m
            else if j < nk + nm then if xi = 1 then 0 else (size / (List.nth rounded.Sp.module_sizes (nm - 1))) + 1
            else if j < nk + nm + nhb then if xi = 1 then 1 else 0
            else big_slack))
  in
  let rhs_top = Array.make r 0 in
  rhs_top.(0) <- m;
  let rhs_block =
    Array.map (fun (_, size, xi) -> [| (if xi = 0 then size else 0); xi |]) class_info
  in
  let program =
    {
      Nfold.r;
      s = 2;
      t = brick_t;
      n = nclasses;
      a = Array.map a_block class_info;
      b = Array.map b_block class_info;
      rhs_top;
      rhs_block;
      lower;
      upper;
      weight = Array.init nclasses (fun _ -> Array.make brick_t 0);
    }
  in
  Nfold.validate program;
  { program; n_configs = nk; n_modules = nm; n_hb = nhb }

let feasible_splittable ?(max_nodes = 30_000) p inst t =
  let { program; _ } = build_splittable p inst t in
  match Nfold.solve_ilp ~max_nodes ~feasibility:true program with
  | `Solution _ -> true
  | `Infeasible -> false
  | `Node_limit -> raise Common.Budget_exceeded

(* ---------------------------------------------------------------- *)
(* The non-preemptive duplicated N-fold (Section 4.2): bricks hold
   (x^u_K, y^u_M, z^u_{h,b}, slacks); locally uniform rows are the paper's
   (4) — one per rounded processing time p in P — and (5), so s = |P| + 1.
   Globally uniform rows are (0), (1) per module size, and the slack-carrying
   (2)/(3) per (h,b) group. Modules are the full global set (multisets over
   P with sum <= Tbar), exactly as the paper defines them. *)

let build_nonpreemptive p inst t =
  let open Nonpreemptive_ptas in
  let a = abstract p inst t in
  let tbar = a.a_tbar and cstar = a.a_cstar in
  (* global rounded size set P *)
  let psizes =
    List.concat_map (List.map fst) a.a_large_hists
    |> List.sort_uniq (fun x y -> compare y x)
  in
  let modules =
    Common.multisets ~parts:psizes ~max_sum:tbar ~max_count:max_int ()
    |> List.filter (( <> ) [])
    |> Array.of_list
  in
  let nm = Array.length modules in
  let msize m = List.fold_left ( + ) 0 m in
  let sizes = Array.to_list modules |> List.map msize |> List.sort_uniq (fun x y -> compare y x) in
  let configs =
    Common.multisets ~parts:sizes ~max_sum:tbar ~max_count:cstar () |> Array.of_list
  in
  let nk = Array.length configs in
  let hb_of_config, hb = Common.hb_groups configs in
  let nhb = Array.length hb in
  let brick_t = nk + nm + (3 * nhb) in
  let x_off = 0 and y_off = nk and z_off = nk + nm in
  let slack_slot_off = nk + nm + nhb and slack_space_off = nk + nm + (2 * nhb) in
  let c = Instance.c inst in
  let m = Instance.m inst in
  (* classes: large with histogram; small with size *)
  let class_info =
    List.map (fun hist -> `Large hist) a.a_large_hists
    @ List.concat_map (fun (s, count) -> List.init count (fun _ -> `Small s)) a.a_smalls
  in
  let class_info = Array.of_list class_info in
  let nclasses = Array.length class_info in
  let nsizes = List.length psizes in
  let psizes_arr = Array.of_list psizes in
  let r = 1 + List.length sizes + (2 * nhb) in
  let sizes_arr = Array.of_list sizes in
  let a_block info =
    let a = Array.make_matrix r brick_t 0 in
    for ki = 0 to nk - 1 do
      a.(0).(x_off + ki) <- 1
    done;
    Array.iteri
      (fun qi q ->
        Array.iteri
          (fun ki k ->
            let cnt = List.length (List.filter (( = ) q) k) in
            if cnt > 0 then a.(1 + qi).(x_off + ki) <- cnt)
          configs;
        Array.iteri
          (fun mi mdl -> if msize mdl = q then a.(1 + qi).(y_off + mi) <- -1)
          modules)
      sizes_arr;
    let size_of_small = match info with `Small s -> s | `Large _ -> 0 in
    Array.iteri
      (fun hbi (h, b) ->
        let row2 = 1 + Array.length sizes_arr + hbi in
        let row3 = row2 + nhb in
        a.(row2).(z_off + hbi) <- 1;
        a.(row3).(z_off + hbi) <- size_of_small;
        Array.iteri
          (fun ki _ ->
            if hb_of_config.(ki) = hbi then begin
              a.(row2).(x_off + ki) <- a.(row2).(x_off + ki) + (b - c);
              a.(row3).(x_off + ki) <- a.(row3).(x_off + ki) + (h - tbar)
            end)
          configs;
        a.(row2).(slack_slot_off + hbi) <- 1;
        a.(row3).(slack_space_off + hbi) <- 1)
      hb;
    a
  in
  let b_block _ =
    let bm = Array.make_matrix (nsizes + 1) brick_t 0 in
    Array.iteri
      (fun pi psz ->
        Array.iteri
          (fun mi mdl ->
            let cnt = List.length (List.filter (( = ) psz) mdl) in
            if cnt > 0 then bm.(pi).(y_off + mi) <- cnt)
          modules)
      psizes_arr;
    for hbi = 0 to nhb - 1 do
      bm.(nsizes).(z_off + hbi) <- 1
    done;
    bm
  in
  let rhs_block =
    Array.map
      (fun info ->
        Array.init (nsizes + 1) (fun k ->
            if k = nsizes then match info with `Small _ -> 1 | `Large _ -> 0
            else
              match info with
              | `Small _ -> 0
              | `Large hist -> (
                  match List.assoc_opt psizes_arr.(k) hist with Some n -> n | None -> 0)))
      class_info
  in
  let big_slack =
    let v = (c + tbar) * max 1 m in
    if v <= 0 then max_int / 2 else v
  in
  let lower = Array.init nclasses (fun _ -> Array.make brick_t 0) in
  let upper =
    Array.init nclasses (fun ci ->
        Array.init brick_t (fun j ->
            match class_info.(ci) with
            | `Large hist ->
                let njobs = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
                if j < nk then m
                else if j < nk + nm then njobs
                else if j < nk + nm + nhb then 0
                else big_slack
            | `Small _ ->
                if j < nk then m
                else if j < nk + nm then 0
                else if j < nk + nm + nhb then 1
                else big_slack))
  in
  let rhs_top = Array.make r 0 in
  rhs_top.(0) <- m;
  let program =
    {
      Nfold.r;
      s = nsizes + 1;
      t = brick_t;
      n = nclasses;
      a = Array.map a_block class_info;
      b = Array.map b_block class_info;
      rhs_top;
      rhs_block;
      lower;
      upper;
      weight = Array.init nclasses (fun _ -> Array.make brick_t 0);
    }
  in
  Nfold.validate program;
  { program; n_configs = nk; n_modules = nm; n_hb = nhb }

let feasible_nonpreemptive ?(max_nodes = 30_000) p inst t =
  if Common.too_long inst t then false
  else begin
    let { program; _ } = build_nonpreemptive p inst t in
    match Nfold.solve_ilp ~max_nodes ~feasibility:true program with
    | `Solution _ -> true
    | `Infeasible -> false
    | `Node_limit -> raise Common.Budget_exceeded
  end
