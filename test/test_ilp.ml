(* Branch & bound tests: knapsacks vs brute force, integrality of answers,
   feasibility mode, mixed problems, and status detection. *)

module Q = Rat

let q = Alcotest.testable Q.pp Q.equal
let qi = Q.of_int

let test_small_knapsack () =
  (* max 10x1 + 6x2 + 4x3 st x1+x2+x3 <= 2, 0 <= xi <= 1 integral => 16. *)
  let p =
    Lp.problem ~upper:(Array.make 3 (Some Q.one)) ~nvars:3
      ~objective:[| qi (-10); qi (-6); qi (-4) |]
      [ Lp.constr [ (0, Q.one); (1, Q.one); (2, Q.one) ] Lp.Le (qi 2) ]
  in
  match Ilp.solve (Ilp.all_integer p) with
  | Ilp.Optimal { objective; solution } ->
      Alcotest.check q "objective" (qi (-16)) objective;
      Array.iter (fun v -> Alcotest.(check bool) "integral" true (Q.is_integer v)) solution
  | _ -> Alcotest.fail "expected optimal"

let brute_knapsack values weights cap =
  let n = Array.length values in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0 and w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v + values.(i);
        w := !w + weights.(i)
      end
    done;
    if !w <= cap && !v > !best then best := !v
  done;
  !best

let prop_knapsack_vs_brute =
  QCheck.Test.make ~name:"0/1 knapsack matches brute force" ~count:100
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let n = Ccs_util.Prng.int_in rng 2 8 in
      let values = Array.init n (fun _ -> Ccs_util.Prng.int_in rng 1 30) in
      let weights = Array.init n (fun _ -> Ccs_util.Prng.int_in rng 1 20) in
      let cap = Ccs_util.Prng.int_in rng 5 60 in
      let p =
        Lp.problem ~upper:(Array.make n (Some Q.one)) ~nvars:n
          ~objective:(Array.map (fun v -> qi (-v)) values)
          [ Lp.constr (List.init n (fun i -> (i, qi weights.(i)))) Lp.Le (qi cap) ]
      in
      match Ilp.solve (Ilp.all_integer p) with
      | Ilp.Optimal { objective; _ } ->
          Q.equal objective (qi (-brute_knapsack values weights cap))
      | _ -> false)

let test_infeasible_parity () =
  (* 2x = 3 with x integral: LP feasible, ILP not. *)
  let p =
    Lp.problem ~nvars:1 ~objective:[| Q.zero |]
      [ Lp.constr [ (0, qi 2) ] Lp.Eq (qi 3) ]
  in
  match Ilp.solve (Ilp.all_integer p) with
  | Ilp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_feasibility_mode () =
  (* Find any integral point of x + y = 7, x,y in [0,5]. *)
  let p =
    Lp.problem ~upper:(Array.make 2 (Some (qi 5))) ~nvars:2
      ~objective:[| Q.zero; Q.zero |]
      [ Lp.constr [ (0, Q.one); (1, Q.one) ] Lp.Eq (qi 7) ]
  in
  match Ilp.solve ~feasibility:true (Ilp.all_integer p) with
  | Ilp.Optimal { solution; _ } ->
      Alcotest.(check bool) "sums to 7" true
        (Q.equal (Q.add solution.(0) solution.(1)) (qi 7));
      Array.iter (fun v -> Alcotest.(check bool) "integral" true (Q.is_integer v)) solution
  | _ -> Alcotest.fail "expected a feasible point"

let test_mixed () =
  (* min y st y >= x - 1/2, y >= 1/2 - x, x integral in [0,1], y continuous.
     Any integral x gives y = 1/2. *)
  let p =
    Lp.problem ~upper:[| Some Q.one; None |] ~nvars:2 ~objective:[| Q.zero; Q.one |]
      [ Lp.constr [ (0, qi (-1)); (1, Q.one) ] Lp.Ge (Q.of_ints (-1) 2);
        Lp.constr [ (0, Q.one); (1, Q.one) ] Lp.Ge (Q.of_ints 1 2) ]
  in
  match Ilp.solve { lp = p; integer = [| true; false |] } with
  | Ilp.Optimal { objective; solution } ->
      Alcotest.check q "objective" (Q.of_ints 1 2) objective;
      Alcotest.(check bool) "x integral" true (Q.is_integer solution.(0))
  | _ -> Alcotest.fail "expected optimal"

let test_node_limit () =
  (* A deliberately awkward equality forces branching; node limit 1 triggers. *)
  let n = 6 in
  let p =
    Lp.problem ~upper:(Array.make n (Some (qi 10))) ~nvars:n
      ~objective:(Array.make n Q.one)
      [ Lp.constr (List.init n (fun i -> (i, Q.of_ints 2 3))) Lp.Eq (Q.of_ints 7 3) ]
  in
  match Ilp.solve ~max_nodes:1 (Ilp.all_integer p) with
  | Ilp.Node_limit | Ilp.Optimal _ | Ilp.Infeasible -> ()
  | Ilp.Unbounded -> Alcotest.fail "unexpected unbounded"

let prop_assignment_problem =
  (* n x n assignment: ILP optimum equals brute-force over permutations. *)
  QCheck.Test.make ~name:"assignment problem matches brute force" ~count:40
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Ccs_util.Prng.create seed in
      let n = Ccs_util.Prng.int_in rng 2 4 in
      let cost = Array.init n (fun _ -> Array.init n (fun _ -> Ccs_util.Prng.int_in rng 0 9)) in
      let var i j = (i * n) + j in
      let rows =
        List.init n (fun i ->
            Lp.constr (List.init n (fun j -> (var i j, Q.one))) Lp.Eq Q.one)
        @ List.init n (fun j ->
              Lp.constr (List.init n (fun i -> (var i j, Q.one))) Lp.Eq Q.one)
      in
      let objective = Array.init (n * n) (fun k -> qi cost.(k / n).(k mod n)) in
      let p = Lp.problem ~upper:(Array.make (n * n) (Some Q.one)) ~nvars:(n * n) ~objective rows in
      let brute =
        let rec perms acc rest =
          match rest with
          | [] -> [ List.rev acc ]
          | _ -> List.concat_map (fun x -> perms (x :: acc) (List.filter (( <> ) x) rest)) rest
        in
        perms [] (List.init n Fun.id)
        |> List.map (fun perm -> List.fold_left (fun s (i, j) -> s + cost.(i).(j)) 0 (List.mapi (fun i j -> (i, j)) perm))
        |> List.fold_left min max_int
      in
      match Ilp.solve (Ilp.all_integer p) with
      | Ilp.Optimal { objective; _ } -> Q.equal objective (qi brute)
      | _ -> false)

(* Propagation must never prune a box that holds an integer point. Random
   mixed problems (2-4 variables, Le/Ge/Eq rows with signed and repeated
   coefficients, some continuous variables, some bounds missing) are
   checked against enumeration: each integer assignment in a box that
   holds every feasible one is fixed, and the continuous rest solved with
   [Lp.solve]. A wrong prune shows up as a false [Infeasible] or a worse
   optimum. A variable missing a bound gets it back as a row, so the box
   stays finite while the ILP still sees an infinite bound. *)
let box = 3

let random_mixed rng =
  let module R = Ccs_util.Prng in
  let n = R.int_in rng 2 4 in
  let integer = Array.init n (fun _ -> R.int rng 4 > 0) in
  let half lo hi = Q.of_ints (R.int_in rng (2 * lo) (2 * hi)) 2 in
  let lower = Array.init n (fun _ -> if R.int rng 5 = 0 then None else Some (half (-3) 1)) in
  let upper = Array.init n (fun _ -> if R.int rng 5 = 0 then None else Some (half (-1) 3)) in
  let box_rows =
    List.concat
      (List.init n (fun j ->
           (if lower.(j) = None then [ Lp.constr [ (j, Q.one) ] Lp.Ge (qi (-box)) ] else [])
           @ if upper.(j) = None then [ Lp.constr [ (j, Q.one) ] Lp.Le (qi box) ] else []))
  in
  let coef () = if R.int rng 6 = 0 then half (-2) 2 else qi (R.int_in rng (-4) 4) in
  let rows =
    List.init (R.int_in rng 1 3) (fun _ ->
        Lp.constr
          (List.init (R.int_in rng 1 4) (fun _ -> (R.int rng n, coef ())))
          [| Lp.Le; Lp.Ge; Lp.Eq |].(R.int rng 3)
          (qi (R.int_in rng (-4) 6)))
  in
  let objective = Array.init n (fun _ -> qi (R.int_in rng (-3) 3)) in
  { Ilp.lp = Lp.problem ~lower ~upper ~nvars:n ~objective (rows @ box_rows); integer }

let brute_mixed (p : Ilp.problem) =
  let bound round none = function
    | Some q -> Bigint.to_int_exn (round q)
    | None -> none
  in
  let best = ref None in
  let rec go lower upper j =
    if j = p.lp.Lp.nvars then
      match Lp.solve { p.lp with Lp.lower; upper } with
      | Lp.Optimal { objective; _ } -> (
          match !best with
          | Some b when Q.(b <= objective) -> ()
          | _ -> best := Some objective)
      | Lp.Infeasible _ -> ()
      | Lp.Unbounded _ -> Alcotest.fail "enumeration: unbounded LP"
    else if not p.integer.(j) then go lower upper (j + 1)
    else
      for v = bound Q.ceil (-box) p.lp.Lp.lower.(j) to bound Q.floor box p.lp.Lp.upper.(j) do
        let lower = Array.copy lower and upper = Array.copy upper in
        lower.(j) <- Some (qi v);
        upper.(j) <- Some (qi v);
        go lower upper (j + 1)
      done
  in
  go p.lp.Lp.lower p.lp.Lp.upper 0;
  !best

let prop_mixed_vs_enumeration =
  QCheck.Test.make ~name:"mixed ILP matches enumeration (feasibility and optimum)"
    ~count:1000 (QCheck.int_range 0 100_000) (fun seed ->
      let p = random_mixed (Ccs_util.Prng.create seed) in
      let valid x =
        Lp.feasible p.lp x
        && Array.for_all2 (fun int v -> (not int) || Q.is_integer v) p.integer x
      in
      match (brute_mixed p, Ilp.solve ~feasibility:true p, Ilp.solve p) with
      | None, Ilp.Infeasible, Ilp.Infeasible -> true
      | Some best, Ilp.Optimal { solution = x; _ }, Ilp.Optimal { objective; solution } ->
          valid x && valid solution && Q.equal objective best
      | _ -> false)

let test_overflow_row_skipped () =
  (* 2^61 (x0 - x1) = -2^61 with x0, x1 in [0, 4]: x1 = x0 + 1. The least
     activity -2^61 * 4 = -2^63 wraps to 0 in native ints, above the rhs,
     so an unchecked propagation would refute the root. *)
  let big = 1 lsl 61 in
  let p =
    Lp.problem ~upper:(Array.make 2 (Some (qi 4))) ~nvars:2 ~objective:[| Q.one; Q.one |]
      [ Lp.constr [ (0, qi big); (1, qi (-big)) ] Lp.Eq (qi (-big)) ]
  in
  (match Ilp.solve ~feasibility:true (Ilp.all_integer p) with
  | Ilp.Optimal { solution; _ } ->
      Alcotest.(check bool) "feasible point" true (Lp.feasible p solution)
  | _ -> Alcotest.fail "expected a feasible point");
  match Ilp.solve (Ilp.all_integer p) with
  | Ilp.Optimal { objective; solution } ->
      Alcotest.check q "objective" Q.one objective;
      Alcotest.(check bool) "feasible point" true (Lp.feasible p solution)
  | _ -> Alcotest.fail "expected optimal"

let () =
  Alcotest.run "ilp"
    [ ( "unit",
        [ Alcotest.test_case "small knapsack" `Quick test_small_knapsack;
          Alcotest.test_case "integrality gap infeasible" `Quick test_infeasible_parity;
          Alcotest.test_case "feasibility mode" `Quick test_feasibility_mode;
          Alcotest.test_case "mixed integer/continuous" `Quick test_mixed;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "overflowing row skipped" `Quick test_overflow_row_skipped ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_knapsack_vs_brute; prop_assignment_problem; prop_mixed_vs_enumeration ] ) ]
