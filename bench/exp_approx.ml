(* E1, E2, E3: the constant-factor algorithms of Section 3.

   For every workload family the tables report the worst and mean measured
   approximation ratios. Ratios are measured against the guess T (which
   Lemma 2 / the binary search prove is a lower bound on the optimum), and
   — on small instances — against exact optima. The paper's claims to
   reproduce: ratio <= 2 (Theorems 4, 5) and <= 7/3 (Theorem 6); the shape
   to observe is that measured ratios sit well below the proven bounds and
   the bounds are approached only by adversarial families. *)

module Q = Rat
module U = Bench_util
module T = Ccs_util.Tables

let e1 () =
  U.header "E1 — splittable 2-approximation (Theorem 4)";
  let table = T.create [ "family"; "n"; "C"; "m"; "c"; "trials"; "max ratio vs T"; "mean"; "max vs exact" ] in
  List.iter
    (fun family ->
      List.iter
        (fun (n, classes, machines, slots) ->
          let ratios = ref [] and exact_ratios = ref [] in
          for seed = 1 to 30 do
            let inst = U.instance ~seed:(seed * 191) ~family ~n ~classes ~machines ~slots ~p_hi:100 in
            let sched, stats = Ccs.Approx.Splittable.solve inst in
            match Ccs.Schedule.validate_splittable inst sched with
            | Error e -> failwith ("E1: invalid schedule: " ^ e)
            | Ok mk ->
                ratios := Q.to_float mk /. Q.to_float stats.Ccs.Approx.Splittable.t_guess :: !ratios;
                if n <= 9 && machines <= 3 then
                  match Ccs_exact.Splittable_opt.solve ~max_nodes:300 inst with
                  | Some opt -> exact_ratios := Q.to_float mk /. Q.to_float opt :: !exact_ratios
                  | None -> ()
          done;
          let mx, mean = U.summarize !ratios in
          let vs_exact =
            match !exact_ratios with [] -> "-" | l -> U.f3 (fst (U.summarize l))
          in
          T.add_row table
            [ Ccs.Generator.family_name family; string_of_int n;
              string_of_int classes; string_of_int machines; string_of_int slots; "30";
              U.f3 mx; U.f3 mean; vs_exact ])
        [ (8, 4, 3, 2); (40, 8, 5, 3); (200, 12, 8, 3) ])
    U.families;
  T.print table;
  U.footnote "claim: every ratio vs T <= 2 (T <= opt by Lemma 2)."

let e2 () =
  U.header "E2 — preemptive 2-approximation (Theorem 5)";
  let table = T.create [ "family"; "n"; "m"; "trials"; "max ratio vs T"; "mean"; "max vs exact"; "repacked"; "parallel violations" ] in
  List.iter
    (fun family ->
      List.iter
        (fun (n, classes, machines, slots) ->
          let ratios = ref [] and exact_ratios = ref [] and repacked = ref 0 in
          for seed = 1 to 30 do
            let inst = U.instance ~seed:(seed * 677) ~family ~n ~classes ~machines ~slots ~p_hi:100 in
            let sched, stats = Ccs.Approx.Preemptive.solve inst in
            match Ccs.Schedule.validate_preemptive inst sched with
            | Error e -> failwith ("E2: invalid schedule: " ^ e)
            | Ok mk ->
                if stats.Ccs.Approx.Preemptive.repacked then incr repacked;
                ratios := Q.to_float mk /. Q.to_float stats.Ccs.Approx.Preemptive.t_guess :: !ratios;
                if n <= 8 then
                  match Ccs_exact.Preemptive_opt.opt ~max_nodes:2_000 inst with
                  | Some opt -> exact_ratios := Q.to_float mk /. Q.to_float opt :: !exact_ratios
                  | None -> ()
          done;
          let mx, mean = U.summarize !ratios in
          let vs_exact = match !exact_ratios with [] -> "-" | l -> U.f3 (fst (U.summarize l)) in
          T.add_row table
            [ Ccs.Generator.family_name family; string_of_int n;
              string_of_int machines; "30"; U.f3 mx; U.f3 mean; vs_exact;
              string_of_int !repacked; "0" ])
        [ (8, 4, 3, 2); (40, 8, 5, 3); (200, 12, 8, 3) ])
    U.families;
  T.print table;
  U.footnote
    "claim: ratio <= 2 and no job ever runs in parallel with itself (the validator\n\
     rejects any violation, so reaching this table proves the count is 0)."

let e3 () =
  U.header "E3 — non-preemptive 7/3-approximation (Theorem 6)";
  let table = T.create [ "family"; "n"; "m"; "trials"; "max ratio vs T"; "mean"; "max vs exact"; "mean vs exact" ] in
  List.iter
    (fun family ->
      List.iter
        (fun (n, classes, machines, slots) ->
          let ratios = ref [] and exact_ratios = ref [] in
          for seed = 1 to 30 do
            let inst = U.instance ~seed:(seed * 811) ~family ~n ~classes ~machines ~slots ~p_hi:100 in
            let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
            match Ccs.Schedule.validate_nonpreemptive inst sched with
            | Error e -> failwith ("E3: invalid schedule: " ^ e)
            | Ok mk ->
                ratios := float_of_int mk /. float_of_int stats.Ccs.Approx.Nonpreemptive.t_guess :: !ratios;
                if n <= 12 then
                  match Ccs_exact.Bnb.solve inst with
                  | Some (opt, _) -> exact_ratios := float_of_int mk /. float_of_int opt :: !exact_ratios
                  | None -> ()
          done;
          let mx, mean = U.summarize !ratios in
          let vs_exact, vs_exact_mean =
            match !exact_ratios with
            | [] -> ("-", "-")
            | l ->
                let mx, mean = U.summarize l in
                (U.f3 mx, U.f3 mean)
          in
          T.add_row table
            [ Ccs.Generator.family_name family; string_of_int n;
              string_of_int machines; "30"; U.f3 mx; U.f3 mean; vs_exact;
              vs_exact_mean ])
        [ (10, 4, 3, 2); (12, 4, 3, 2); (60, 8, 5, 3); (300, 12, 8, 3) ])
    U.families;
  T.print table;
  U.footnote "claim: every ratio <= 7/3 ~ 2.333; the 'large' family is the adversarial one."
