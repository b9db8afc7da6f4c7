(* EX — exact-search capability sweep (conflict-driven B&B + portfolio).

   How large a near-perfect-partition instance can the exact layer close at
   a fixed node budget? The bnb-stress family is the adversarial shape for
   the search (all sizes in a narrow band around p_hi/2, round-robin
   classes: the area bound cannot see that a machine takes whole jobs, so
   the job-count bound does the pruning, and the tree is deep), so the
   largest n the search completes there is a conservative capability
   figure. The search effort varies by orders of magnitude between draws
   of one shape (seed 1236 takes 682k nodes at n = 30 and 41k at n = 32),
   so the sizes run until some seed stays open, and each size runs
   several seeds: the conflict-driven B&B alone, then the full
   portfolio race at the same budget. Per size the table gives how many
   seeds closed, the median and max nodes, and the B&B's ns per node; rows
   plus the resulting max_n_complete land in the "exact_sweep" section of
   BENCH_timing.json (merged non-clobbering, like xl_sweep). Node counts
   are deterministic, so a search regression (weaker pruning, lost
   no-goods) moves this table even on a noisy machine. Most of the sweep's
   ~55 s is the portfolio's ILP members on the two n = 34 seeds the B&B
   leaves open (~25 s each, and neither proves them). *)

module U = Bench_util
module J = Ccs_obs.Jsonx
module T = Ccs_util.Tables
module Bnb = Ccs_exact.Bnb
module Portfolio = Ccs_exact.Portfolio

let node_budget = 1_000_000
let sizes = [ 10; 12; 14; 16; 18; 20; 22; 24; 26; 28; 30; 32; 34 ]
let seeds = [ 1234; 1235; 1236; 1237; 1238 ]

let spec n =
  { Ccs.Generator.n; classes = 4; machines = 4; slots = 2; p_lo = 1; p_hi = 100;
    family = Ccs.Generator.Bnb_stress }

type run = {
  seed : int;
  bnb : Bnb.result;
  bnb_wall : float;
  portfolio : Portfolio.outcome;
  port_wall : float;
}

let solve n seed =
  let inst = Ccs.Generator.generate ~seed (spec n) in
  let bnb, bnb_wall = U.time (fun () -> Bnb.solve_result ~node_limit:node_budget inst) in
  let portfolio, port_wall = U.time (fun () -> Portfolio.solve ~node_limit:node_budget inst) in
  { seed; bnb = Option.get bnb; bnb_wall; portfolio = Option.get portfolio; port_wall }

let closed r = r.bnb.Bnb.status = Bnb.Complete

(* "bnb x1, none x4" *)
let winners runs =
  let ws = List.map (fun r -> r.portfolio.Portfolio.winner) runs in
  String.concat ", "
    (List.map
       (fun w -> Printf.sprintf "%s x%d" w (List.length (List.filter (( = ) w) ws)))
       (List.sort_uniq compare ws))

let ex () =
  U.header "EX — exact capability sweep (bnb-stress, fixed node budget)";
  let nseeds = List.length seeds in
  let table =
    T.create
      [ "n"; "closed"; "nodes p50"; "nodes max"; "ns/node"; "bnb wall"; "portfolio";
        "winners" ]
  in
  (* capability frontier: largest n with every seed of every size up to it
     closed, so one hard middle size (the near-partition wall) caps the
     figure even if easier larger sizes happen to finish *)
  let frontier_open = ref true in
  let max_complete = ref 0 in
  let rows =
    List.map
      (fun n ->
        let runs = List.map (solve n) seeds in
        let nclosed = List.length (List.filter closed runs) in
        if nclosed = nseeds && !frontier_open then max_complete := n
        else if nclosed < nseeds then frontier_open := false;
        let nodes = Array.of_list (List.map (fun r -> r.bnb.Bnb.nodes) runs) in
        Array.sort compare nodes;
        let total_nodes = Array.fold_left ( + ) 0 nodes in
        let bnb_wall = List.fold_left (fun a r -> a +. r.bnb_wall) 0.0 runs in
        let ns_per_node =
          if total_nodes = 0 then 0.0 else bnb_wall *. 1e9 /. float_of_int total_nodes
        in
        let proved =
          List.length (List.filter (fun r -> r.portfolio.Portfolio.proved) runs)
        in
        T.add_row table
          [ string_of_int n;
            Printf.sprintf "%d/%d" nclosed nseeds;
            string_of_int nodes.(nseeds / 2);
            string_of_int nodes.(nseeds - 1);
            Printf.sprintf "%.0f" ns_per_node;
            Printf.sprintf "%.3f s" bnb_wall;
            Printf.sprintf "%d/%d proved" proved nseeds;
            winners runs ];
        J.Obj
          [ ("n", J.Int n);
            ("bnb_closed", J.Int nclosed);
            ("bnb_nodes_median", J.Int nodes.(nseeds / 2));
            ("bnb_nodes_max", J.Int nodes.(nseeds - 1));
            ("bnb_ns_per_node", J.Float (U.round9 ns_per_node));
            ("portfolio_proved", J.Int proved);
            ( "seeds",
              J.List
                (List.map
                   (fun r ->
                     J.Obj
                       [ ("seed", J.Int r.seed);
                         ("bnb_complete", J.Bool (closed r));
                         ("bnb_nodes", J.Int r.bnb.Bnb.nodes);
                         ("bnb_makespan", J.Int r.bnb.Bnb.makespan);
                         ("bnb_lower_bound", J.Int r.bnb.Bnb.lower_bound);
                         ("bnb_wall_s", J.Float (U.round9 r.bnb_wall));
                         ("portfolio_proved", J.Bool r.portfolio.Portfolio.proved);
                         ("portfolio_winner", J.Str r.portfolio.Portfolio.winner);
                         ("portfolio_wall_s", J.Float (U.round9 r.port_wall)) ])
                   runs) ) ])
      sizes
  in
  let sweep =
    J.Obj
      [ ("family", J.Str "bnb-stress");
        ("node_budget", J.Int node_budget);
        ("seeds", J.List (List.map (fun s -> J.Int s) seeds));
        ("max_n_complete", J.Int !max_complete);
        ("rows", J.List rows) ]
  in
  let path = "BENCH_timing.json" in
  let existing =
    if Sys.file_exists path then
      match J.of_string (In_channel.with_open_text path In_channel.input_all) with
      | Ok (J.Obj kvs) -> List.filter (fun (k, _) -> k <> "exact_sweep") kvs
      | _ -> []
    else []
  in
  U.write_json path (J.Obj (existing @ [ ("exact_sweep", sweep) ]));
  T.print table;
  U.footnote
    (Printf.sprintf
       "wrote %s exact_sweep (budget %d nodes, %d seeds per size, largest bnb-stress size \
        every seed closed: n=%d)"
       path node_budget nseeds !max_complete)
